"""Self-tests of the benchmark: checker, span arithmetic, seeded inputs.

Run with ``python3 -m pytest perfbench``.  None of these import cotrig.
"""

import json
import math
import os

import numpy as np
import pytest

import checker
import run
import workloads
from layers import per_layer_metrics
from tracing import aggregate, self_times

HERE = os.path.dirname(os.path.abspath(__file__))


def _optimal_answer(spec):
    """The reference LP's own minimiser, packaged like a solve answer."""
    n = spec["n"]
    lo, hi = spec["domain"]
    x = checker.dense_grid(lo, hi, spec["kinks"], checker.REF_PER_DEGREE, n)
    rows = None
    if spec["constraint"] is not None:
        cx, sig = checker.gap_grid(spec["constraint"]["points"],
                                   checker.REF_PER_DEGREE, n)
        rows = checker.trig_derivative_columns(cx, n, spec["constraint"]["q"])
        rows = rows * sig[:, None]
    opt, theta, status = checker.minimax_lp(
        checker.target_values(spec["target"], x), checker.trig_columns(x, n),
        rows)
    assert status == 0
    coef = {"a0": theta[0], "cos": list(theta[1:n + 1]),
            "sin": list(theta[n + 1:])}
    return {"coefficients": coef, "post_check_error": opt}, {"optimum": opt}


def _spec(constrained):
    b = 1.2
    return {"type": "solve", "n": 6,
            "target": {"kind": "ideal", "r": 2, "b": b},
            "domain": [-math.pi, math.pi], "kinks": [-b, 0.0],
            "constraint": {"q": 3, "points": [-b, 0.0]} if constrained else None}


def _scaled(answer, factor):
    coef = answer["coefficients"]
    return dict(answer, coefficients={
        "a0": coef["a0"] * factor, "cos": [c * factor for c in coef["cos"]],
        "sin": [s * factor for s in coef["sin"]]})


@pytest.mark.parametrize("constrained", [False, True])
def test_checker_accepts_optimum_and_rejects_scaled_copy(constrained):
    spec = _spec(constrained)
    answer, ref = _optimal_answer(spec)
    ok = checker.check(spec, answer, ref)
    assert ok["status"] == "ok", ok["problems"]
    bad = checker.check(spec, _scaled(answer, 1.01), ref)
    assert bad["status"] == "wrong"
    assert any(p.startswith("suboptimal") for p in bad["problems"])


def test_checker_rejects_broken_sign_pattern():
    spec = _spec(True)
    answer, ref = _optimal_answer(spec)
    # 1e-4 cos 6t moves the error by at most 1e-4 but its third
    # derivative, 0.0216 sin 6t, changes sign inside every gap
    coef = answer["coefficients"]
    cos = list(coef["cos"])
    cos[-1] += 1e-4
    broken = dict(answer, coefficients=dict(coef, cos=cos))
    verdict = checker.check(spec, broken, ref)
    assert verdict["status"] == "wrong"
    assert any(p.startswith("sign pattern") for p in verdict["problems"])


def test_checker_rejects_under_reported_error():
    spec = _spec(False)
    answer, ref = _optimal_answer(spec)
    low = dict(answer, post_check_error=0.9 * answer["post_check_error"])
    verdict = checker.check(spec, low, ref)
    assert any(p.startswith("under-reported") for p in verdict["problems"])


def test_checker_marks_missing_reference_unverified():
    spec = _spec(False)
    answer, _ = _optimal_answer(spec)
    verdict = checker.check(spec, answer, {"optimum": None, "status": 4})
    assert verdict["status"] == "unverified"


def test_ideal_spline_derivative_is_the_step():
    b = 0.8
    x = np.array([-0.5, -0.2, 0.3, 2.0, 4.0])
    h = 1e-6
    slope = (checker.ideal_spline(1, b, x + h)
             - checker.ideal_spline(1, b, x - h)) / (2 * h)
    offset = 1.0 - b / math.pi
    step = np.where((x > -b) & (x < 0), -1.0, 1.0) - offset
    assert np.allclose(slope, step, atol=1e-6)
    grid = np.linspace(-math.pi, math.pi, 20001)[:-1]
    assert abs(checker.ideal_spline(2, b, grid).mean()) < 1e-12


def test_self_times_on_hand_built_tree():
    # root [0, 10] with children [1, 3] and [4, 8]; [5, 6] inside the second
    parent = [-1, 0, 0, 2]
    start = [0.0, 1.0, 4.0, 5.0]
    end = [10.0, 3.0, 8.0, 6.0]
    assert self_times(parent, start, end).tolist() == [4.0, 2.0, 3.0, 1.0]
    names = ["root", "leaf"]
    name_id = np.array([0, 1, 0, 1])
    got = aggregate(names, name_id, np.array(parent), np.array(start),
                    np.array(end))
    assert got == {"root": {"calls": 2, "self_s": 7.0},
                   "leaf": {"calls": 2, "self_s": 3.0}}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_repeat_for_a_seed_and_change_with_it(workload):
    assert workloads.cases(workload, 7) == workloads.cases(workload, 7)
    assert workloads.cases(workload, 7) != workloads.cases(workload, 8)
    if workload in workloads.TIMED:
        first = workloads.timed_cases(workload, 7)
        assert first == workloads.timed_cases(workload, 7)
        assert first != workloads.timed_cases(workload, 8)
        assert len({c["key"] for c in first}) == len(first)


def test_tail_percentile_leaves_ten_samples_beyond():
    assert run.tail_percentile(10) is None
    for count in (11, 20, 39, 120, 1000):
        p = run.tail_percentile(count)
        beyond = count - math.ceil(count * p / 100)
        assert beyond >= 10
        assert count - math.ceil(count * (p + 1) / 100) < 10 or p == 99


def test_benchmark_json_matches_the_metrics_printed():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.REPORTED)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        per_layer_metrics()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.TIMED)
