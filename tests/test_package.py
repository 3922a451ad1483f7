"""Tests that the package's public names and the benchmark's span table
resolve against the code."""

import importlib
import importlib.util
from pathlib import Path

import cotrig

LAYERS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _defined(target: str) -> bool:
    """Whether ``module:attr`` or ``module:Class.method`` exists in cotrig."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(f"cotrig.{module_name}")
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name, None)
    if owner is None:
        return False
    if classes:
        # defined by the class itself: every class answers __call__ via type
        return any(attr in vars(k) for k in owner.__mro__ if k is not object)
    return callable(getattr(owner, attr, None))


def test_every_public_name_resolves():
    missing = [name for name in cotrig.__all__ if not hasattr(cotrig, name)]
    assert missing == []


def test_benchmark_spans_resolve():
    # load the span table by path; the tracer itself is never installed
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    targets = [t for defs in layers.SPANS.values() for t in defs]
    assert len(targets) >= len(layers.SPANS)
    assert [t for t in targets if not _defined(t)] == []
