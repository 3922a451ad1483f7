"""In-memory spans around calls into cotrig's public functions.

A span is (name, start, end, parent).  Spans live in flat arrays while a
run is traced and are written out once at the end.  Each traced function
is replaced in every cotrig module that binds it, because the package
imports names with ``from .x import y`` and a caller looks the name up
in its own module.  Self time is a span's duration minus the time its
direct child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

import numpy as np

from layers import SPANS, WORK_COUNTERS


def _points(args, result):
    return int(np.size(args[1])) if len(args) > 1 else 0


def _cells(args, result):
    return int(np.size(result))


def _iterations(args, result):
    return int(result.iterations)


# how each work counter of layers.WORK_COUNTERS is read off a call
WORK = {
    "target.eval": _points,
    "trigpoly.TrigPoly.__call__": _points,
    "trigpoly.trig_basis": _cells,
    "trigpoly.trig_derivative_basis": _cells,
    "simplex.solve_lp": _iterations,
}


class Tracer:
    """Span and counter store for one traced process."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list = []
        self.counters: dict = {}
        self.maxima: dict = {}
        self.errors: dict = {}
        self.active = False

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, name: str, value) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def record_max(self, name: str, value) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        """fn with a span around every call while the tracer is active."""
        work = WORK.get(name)
        counter = f"{name}.{WORK_COUNTERS.get(name)}"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                key = f"{name}.errors.{type(exc).__name__}"
                tracer.errors[key] = tracer.errors.get(key, 0) + 1
                raise
            finally:
                tracer.close(idx)
            if work is not None:
                tracer.count(counter, work(args, result))
            if on_result is not None:
                on_result(tracer, result)
            return result

        return traced

    # -- results ----------------------------------------------------------

    def arrays(self):
        n = len(self.start)
        start = np.frombuffer(self.start, dtype=float, count=n)
        end = np.frombuffer(self.end, dtype=float, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        name_id = np.frombuffer(self.name_id, dtype=np.int32, count=n)
        return name_id, parent, start, end

    def save(self, path: str) -> None:
        name_id, parent, start, end = self.arrays()
        np.savez_compressed(path, name_id=name_id, parent=parent,
                            start=start, end=end,
                            names=np.asarray(json.dumps(self.names)))


def self_times(parent, start, end) -> np.ndarray:
    """Duration of each span minus the summed duration of its direct
    children.  Spans of one thread nest, so children never overlap."""
    parent = np.asarray(parent)
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    child = np.zeros(dur.size)
    has_parent = parent >= 0
    if has_parent.any():
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
    return dur - child


def aggregate(names, name_id, parent, start, end) -> dict:
    """Per span name: number of calls and total self time in seconds."""
    own = self_times(parent, start, end)
    calls = np.bincount(name_id, minlength=len(names))
    total = np.bincount(name_id, weights=own, minlength=len(names))
    return {name: {"calls": int(calls[i]), "self_s": float(total[i])}
            for i, name in enumerate(names)}


# -- installing ---------------------------------------------------------------


def _minimax_result(tracer, result):
    tracer.count("minimax.refine_rounds", len(result.rounds))


def _grid_result(tracer, result):
    info = result[2]
    tracer.count("minimax.exchange_rounds", int(info["outer_rounds"]))
    tracer.record_max("minimax.working_points_max",
                      int(info["working_points"]))


ON_RESULT = {
    "minimax.best_approx": _minimax_result,
    "minimax.best_co_q_monotone": _minimax_result,
    "minimax.solve_grid_minimax": _grid_result,
}


def _rebind(original, replacement) -> int:
    """Replace every module-level binding of original inside cotrig."""
    hits = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "cotrig"
                                  or mod_name.startswith("cotrig.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                hits += 1
    return hits


def install(tracer: Tracer) -> list:
    """Wrap every span target that exists; returns the names not found.

    A target is ``module:attr`` or ``module:Class.method``; several
    targets may share a span name (``target.eval``).
    """
    import importlib

    missing = []
    for span, targets in SPANS.items():
        for target in targets:
            mod_name, _, path = target.partition(":")
            try:
                module = importlib.import_module(f"cotrig.{mod_name}")
            except ImportError:
                missing.append(target)
                continue
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                missing.append(target)
                continue
            wrapped = tracer.wrap(span, original, ON_RESULT.get(span))
            if owner is module:
                _rebind(original, wrapped)
            else:
                setattr(owner, attr, wrapped)
    return missing
