"""Experiment reports: canonical JSON, CSV tables, plot data files.

A report is a parameter grid with per-cell measurements, derived
constants (each tagged empirical, with the formula it calibrates), and
declared assertions.  Serialization is canonical (sorted keys, full
precision floats) so that reruns with the same seed produce bit-identical
files; the content fingerprint excludes wall-clock fields.

The canonical text is that of ``json.dumps(x, sort_keys=True, indent=2)``
for the JSON-safe form of x, written by one walk over x: ``json`` runs
its pure-Python encoder whenever it indents.  One encoder writes every
dict, in one walk over a report's grid; the tests keep the sanitizing
pass it replaced as its reference.  Every file, the CLI's too, is
written by _write_text, the one function that makes directories.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote


@dataclass
class Assertion:
    """One declared pass/fail criterion of an experiment."""

    name: str
    passed: bool
    detail: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": bool(self.passed),
                "detail": self.detail}


@dataclass
class ConstantReading:
    """A measured or derived constant with its provenance."""

    name: str
    value: float
    formula: str

    def to_dict(self) -> dict:
        return {"name": self.name, "value": self.value, "mode": "empirical",
                "formula": self.formula}


@dataclass
class ExperimentReport:
    """Everything one experiment run measured and asserted.

    seed is the seed of the experiment's random draws, and None for an
    experiment that draws nothing; its content then records seed 0.
    """

    experiment: str
    parameters: dict
    grid: list
    seed: int | None = None
    constants: list = field(default_factory=list)
    assertions: list = field(default_factory=list)
    plots: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)
    ledger_hash: str | None = None
    runtime_s: float = 0.0

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)

    def _content(self) -> dict:
        """Everything the report measured: the document its fingerprint
        hashes, without the wall clock."""
        return {
            "experiment": self.experiment,
            "seed": self.seed or 0,
            "parameters": self.parameters,
            "grid": self.grid,
            "constants": [c.to_dict() for c in self.constants],
            "assertions": [a.to_dict() for a in self.assertions],
            "extras": self.extras,
            "ledger_hash": self.ledger_hash,
        }

    def _record(self, fingerprint: str) -> dict:
        """The rest of report.json: how the run went and what it hashes to."""
        return {"kind": "experiment_report",
                "plots": [list(p) for p in self.plots],
                "passed": self.passed, "fingerprint": fingerprint,
                "runtime_s": self.runtime_s}

    def to_dict(self) -> dict:
        return {**self._content(), **self._record(self.fingerprint())}

    def fingerprint(self) -> str:
        return _fingerprint(_members(self._content(), "\n"))

    def summary_lines(self) -> list:
        lines = [f"experiment {self.experiment}: "
                 f"{'PASS' if self.passed else 'FAIL'} "
                 f"({len(self.grid)} cells"
                 f"{'' if self.seed is None else f', seed {self.seed}'})"]
        for c in self.constants:
            lines.append(f"  constant {c.name} = {c.value:.6g} "
                         f"[empirical] {c.formula}")
        for a in self.assertions:
            mark = "ok" if a.passed else "FAIL"
            lines.append(f"  [{mark}] {a.name}: {a.detail}")
        return lines


def _unknown_type(obj) -> TypeError:
    return TypeError(f"cannot write an object of type {type(obj).__name__} "
                     "as JSON")


_LITERALS = {None: "null", True: "true", False: "false"}


def _emit(obj, out: list, nl: str) -> None:
    """Append to out the canonical_json text of obj at the depth whose line
    break and indent is nl: json's spelling of strings and numbers, strings
    for Fractions and non-finite floats, lists for tuples, Python values
    for numpy scalars, and a TypeError for any other type."""
    if isinstance(obj, str):
        out.append(_quote(obj))
    elif isinstance(obj, float):
        out.append(float.__repr__(obj) if math.isfinite(obj)
                   else _quote(repr(obj)))
    elif obj is None or obj is True or obj is False:
        out.append(_LITERALS[obj])
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, dict):
        out.append(_object(_members(obj, nl), nl))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner, sep = nl + "  ", "["
        for item in obj:
            out += (sep, inner)
            _emit(item, out, inner)
            sep = ","
        out.append(nl + "]")
    elif isinstance(obj, Fraction):
        out.append(_quote(str(obj)))
    elif hasattr(obj, "item"):
        _emit(obj.item(), out, nl)
    else:
        raise _unknown_type(obj)


def canonical_json(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2) of obj made JSON-safe."""
    out = []
    _emit(obj, out, "\n")
    return "".join(out)


def _members(doc: dict, nl: str) -> dict:
    """Each entry of doc as canonical_json writes it in a dict at the depth
    of nl: key -> '"key": value'.  Keys become strings first, so of two
    that read alike only the later value is encoded."""
    out, inner = {}, nl + "  "
    for key, value in {str(k): v for k, v in doc.items()}.items():
        text = [_quote(key), ": "]
        _emit(value, text, inner)
        out[key] = "".join(text)
    return out


def _object(members: dict, nl: str) -> str:
    """canonical_json, at the depth of nl, of the dict of these _members."""
    if not members:
        return "{}"
    inner = nl + "  "
    body = ("," + inner).join(members[k] for k in sorted(members))
    return "{" + inner + body + nl + "}"


def _fingerprint(content: dict) -> str:
    return hashlib.sha256(_object(content, "\n").encode()).hexdigest()[:16]


def _write_text(path: str, text: str) -> str:
    """Write text to path, line ends as given, making its directories."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


def write_json(path: str, obj) -> str:
    return _write_text(path, canonical_json(obj) + "\n")


def write_csv(path: str, rows: list) -> str:
    header = list(dict.fromkeys(key for row in rows for key in row))
    text = io.StringIO()
    writer = csv.DictWriter(text, fieldnames=header, restval="")
    writer.writeheader()
    writer.writerows(rows)
    return _write_text(path, text.getvalue())


def write_plot_data(path: str, xs, ys) -> str:
    """Two whitespace-separated columns, one point per line."""
    return _write_text(path, "".join(f"{x} {y}\n" for x, y in zip(xs, ys)))


def write_report_files(report: ExperimentReport, out_dir: str) -> dict:
    """Write report.json, tables/<name>.csv, and plots/*.dat; return paths.

    report.json is canonical_json(report.to_dict()), written before any
    other file, each value encoded once: the fingerprint hashes the
    content's entries joined."""
    content = _members(report._content(), "\n")
    record = _members(report._record(_fingerprint(content)), "\n")
    paths = {"report": os.path.join(out_dir, "report.json")}
    _write_text(paths["report"], _object({**content, **record}, "\n") + "\n")
    if report.grid:
        paths["table"] = write_csv(os.path.join(
            out_dir, "tables", f"{report.experiment}.csv"), report.grid)
    for x_key, y_key in report.plots:
        cells = [r for r in report.grid if x_key in r and y_key in r]
        if not cells:
            continue
        name = f"{report.experiment}_{y_key}_vs_{x_key}.dat"
        paths[name] = write_plot_data(
            os.path.join(out_dir, "plots", name),
            [r[x_key] for r in cells], [r[y_key] for r in cells])
    return paths
