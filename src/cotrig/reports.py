"""Experiment reports: canonical JSON, CSV tables, plot data files.

A report is a parameter grid with per-cell measurements, derived
constants (each tagged empirical, with the formula it calibrates), and
declared assertions.  Serialization is canonical (sorted keys, full
precision floats) so that reruns with the same seed produce bit-identical
files; the content fingerprint excludes wall-clock fields.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction


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

    seed is the seed of the experiment's random draws, and 0 for an
    experiment that draws nothing.
    """

    experiment: str
    parameters: dict
    grid: list
    seed: int = 0
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
        return _sanitize({
            "experiment": self.experiment,
            "seed": self.seed,
            "parameters": self.parameters,
            "grid": self.grid,
            "constants": [c.to_dict() for c in self.constants],
            "assertions": [a.to_dict() for a in self.assertions],
            "extras": self.extras,
            "ledger_hash": self.ledger_hash,
        })

    def to_dict(self) -> dict:
        doc = self._content()
        return {**doc, "kind": "experiment_report",
                "plots": [list(p) for p in self.plots],
                "passed": self.passed, "fingerprint": _fingerprint(doc),
                "runtime_s": self.runtime_s}

    def fingerprint(self) -> str:
        return _fingerprint(self._content())

    def summary_lines(self) -> list:
        lines = [f"experiment {self.experiment}: "
                 f"{'PASS' if self.passed else 'FAIL'} "
                 f"({len(self.grid)} cells, seed {self.seed})"]
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
    raise TypeError(f"cannot write an object of type {type(obj).__name__} "
                    "as JSON")


def _fingerprint(doc: dict) -> str:
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()[:16]


def canonical_json(obj) -> str:
    return json.dumps(_sanitize(obj), sort_keys=True, indent=2)


def write_json(path: str, obj) -> str:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(obj))
        fh.write("\n")
    return path


def write_csv(path: str, rows: list) -> str:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    header = list(dict.fromkeys(key for row in rows for key in row))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=header, restval="")
        writer.writeheader()
        writer.writerows(rows)
    return path


def write_plot_data(path: str, xs, ys) -> str:
    """Two whitespace-separated columns, one point per line."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for x, y in zip(xs, ys):
            fh.write(f"{x} {y}\n")
    return path


def write_report_files(report: ExperimentReport, out_dir: str) -> dict:
    """Write report.json, tables/<name>.csv, and plots/*.dat; return paths."""
    paths = {}
    paths["report"] = write_json(os.path.join(out_dir, "report.json"),
                                 report.to_dict())
    if report.grid:
        paths["table"] = write_csv(
            os.path.join(out_dir, "tables", f"{report.experiment}.csv"),
            [_sanitize(r) for r in report.grid])
    for x_key, y_key in report.plots:
        cells = [r for r in report.grid if x_key in r and y_key in r]
        if not cells:
            continue
        name = f"{report.experiment}_{y_key}_vs_{x_key}.dat"
        paths[name] = write_plot_data(
            os.path.join(out_dir, "plots", name),
            [r[x_key] for r in cells], [r[y_key] for r in cells])
    return paths
