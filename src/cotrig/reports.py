"""Experiment reports: canonical JSON, CSV tables, plot data files.

A report is a parameter grid with per-cell measurements, derived
constants (each tagged empirical, with the formula it calibrates), and
declared assertions.  Serialization is canonical (sorted keys, full
precision floats) so that reruns with the same seed produce bit-identical
files; the content fingerprint excludes wall-clock fields.

The canonical text is that of ``json.dumps(x, sort_keys=True, indent=2)``
for the JSON-safe form of x, written by one walk over x: ``json`` runs
its pure-Python encoder whenever it indents.  Every file, the CLI's too,
is written by _write_text, the one function that makes directories.
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
        return _fingerprint(canonical_json(self._content()))

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


def _sanitize(obj):
    """Make an object JSON-safe: Fractions to strings, non-finite floats
    to strings, tuples to lists, numpy scalars to Python ones; any other
    type is a TypeError, not its str()."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(obj)
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    if hasattr(obj, "item"):
        return _sanitize(obj.item())
    raise _unknown_type(obj)


def _unknown_type(obj) -> TypeError:
    return TypeError(f"cannot write an object of type {type(obj).__name__} "
                     "as JSON")


_LITERALS = {None: "null", True: "true", False: "false"}


def _emit(obj, out: list, nl: str) -> None:
    """Append to out the text of _sanitize(obj) in canonical_json at the
    depth whose line break and indent is nl, with json's own spelling of
    strings (ASCII escapes) and numbers (the int and float reprs)."""
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
        items = {str(k): v for k, v in obj.items()}
        if not items:
            out.append("{}")
            return
        inner, sep = nl + "  ", "{"
        for key in sorted(items):
            out += (sep, inner, _quote(key), ": ")
            _emit(items[key], out, inner)
            sep = ","
        out.append(nl + "}")
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
    """json.dumps(_sanitize(obj), sort_keys=True, indent=2), in one pass."""
    out = []
    _emit(obj, out, "\n")
    return "".join(out)


def _members(doc: dict) -> dict:
    """Each entry of doc as canonical_json writes it one level deep:
    key -> '"key": value'."""
    out = {}
    for key, value in doc.items():
        key = str(key)
        text = [_quote(key), ": "]
        _emit(value, text, "\n  ")
        out[key] = "".join(text)
    return out


def _object(members: dict) -> str:
    """canonical_json of the non-empty dict whose _members these are."""
    return "{\n  " + ",\n  ".join(members[k] for k in sorted(members)) + "\n}"


def _fingerprint(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


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

    report.json is canonical_json(report.to_dict()), each value encoded
    once: the fingerprint hashes the content's entries joined."""
    rows = _sanitize(report.grid)
    content = _members({**report._content(), "grid": rows})
    members = {**content,
               **_members(report._record(_fingerprint(_object(content))))}
    paths = {"report": _write_text(os.path.join(out_dir, "report.json"),
                                   _object(members) + "\n")}
    if rows:
        paths["table"] = write_csv(
            os.path.join(out_dir, "tables", f"{report.experiment}.csv"), rows)
    for x_key, y_key in report.plots:
        cells = [r for r in report.grid if x_key in r and y_key in r]
        if not cells:
            continue
        name = f"{report.experiment}_{y_key}_vs_{x_key}.dat"
        paths[name] = write_plot_data(
            os.path.join(out_dir, "plots", name),
            [r[x_key] for r in cells], [r[y_key] for r in cells])
    return paths
