"""Tests for the HiGHS adapter behind LinearProgram and solve_lp."""

import importlib.util
import sys

import numpy as np
import pytest
import scipy
from scipy.optimize import linprog

import cotrig.simplex
from cotrig.simplex import (LinearProgram, LPInfeasibleError,
                            LPIterationLimitError, LPUnboundedError, solve_lp)


def _standard_form(A, b, c):
    """min c.x subject to A x = b, x >= 0."""
    lp = LinearProgram(c)
    lp.add_rows(A, b, b)
    return lp


def test_hand_solved_transport():
    # min x0 + 2 x1 s.t. x0 + x1 = 1: optimum puts everything on x0
    sol = solve_lp(_standard_form(np.array([[1.0, 1.0]]), np.array([1.0]),
                                  np.array([1.0, 2.0])))
    assert sol.objective == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(sol.x, [1.0, 0.0], atol=1e-12)
    assert sol.duals[0] == pytest.approx(1.0, abs=1e-12)


def test_two_constraint_program():
    # min -x0 - 2 x1 with x0 + s0 = 2, x1 + s1 = 3
    A = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])
    sol = solve_lp(_standard_form(A, np.array([2.0, 3.0]),
                                  np.array([-1.0, -2.0, 0.0, 0.0])))
    assert sol.objective == pytest.approx(-8.0, abs=1e-12)
    assert np.allclose(sol.x[:2], [2.0, 3.0], atol=1e-12)
    assert sol.duality_gap <= 1e-8


def test_negative_rhs_rows_are_flipped():
    # -x0 = -2 is x0 = 2; duals must refer to the original row
    sol = solve_lp(_standard_form(np.array([[-1.0, 0.0]]), np.array([-2.0]),
                                  np.array([3.0, 1.0])))
    assert sol.x[0] == pytest.approx(2.0, abs=1e-12)
    assert sol.objective == pytest.approx(6.0, abs=1e-12)
    assert sol.duals[0] == pytest.approx(-3.0, abs=1e-12)


def test_infeasible():
    with pytest.raises(LPInfeasibleError):
        solve_lp(_standard_form(np.array([[1.0, 1.0]]), np.array([-1.0]),
                                np.array([1.0, 1.0])))


def test_unbounded():
    # min -x0 with x0 - x1 = 0: increase both without limit
    with pytest.raises(LPUnboundedError):
        solve_lp(_standard_form(np.array([[1.0, -1.0]]), np.array([0.0]),
                                np.array([-1.0, 0.0])))


def test_iteration_limit(monkeypatch):
    # the limit is tested on a program that takes several simplex steps;
    # a LinearProgram takes ITERATION_LIMIT when it is built
    rng = np.random.default_rng(3)
    A = rng.standard_normal((4, 9))
    b = A @ np.abs(rng.standard_normal(9))
    c = np.abs(rng.standard_normal(9)) + 0.1
    assert solve_lp(_standard_form(A, b, c)).iterations > 1
    monkeypatch.setattr(cotrig.simplex, "ITERATION_LIMIT", 1)
    with pytest.raises(LPIterationLimitError):
        solve_lp(_standard_form(A, b, c))


def test_dimension_validation():
    lp = LinearProgram(np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        lp.add_rows(np.eye(2), np.array([1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        lp.add_rows(np.ones((1, 3)), np.array([1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        LinearProgram(np.eye(2))


def test_degenerate_vertices_terminate():
    # many redundant rows meeting at one vertex
    A = np.array([
        [1.0, 1.0, 1.0, 0.0, 0.0],
        [1.0, 1.0, 0.0, 1.0, 0.0],
        [2.0, 2.0, 0.0, 0.0, 1.0],
    ])
    b = np.array([1.0, 1.0, 2.0])
    c = np.array([-1.0, -0.9, 0.0, 0.0, 0.0])
    sol = solve_lp(_standard_form(A, b, c))
    assert sol.objective == pytest.approx(-1.0, abs=1e-10)


def test_random_programs_match_reference_solver():
    rng = np.random.default_rng(42)
    for trial in range(25):
        m = int(rng.integers(2, 6))
        n = m + int(rng.integers(1, 6))
        A = rng.standard_normal((m, n))
        x0 = np.abs(rng.standard_normal(n))
        b = A @ x0
        c = np.abs(rng.standard_normal(n)) + 0.1
        sol = solve_lp(_standard_form(A, b, c))
        ref = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
        assert ref.status == 0
        assert sol.objective == pytest.approx(ref.fun, abs=1e-7)
        assert np.allclose(A @ sol.x, b, atol=1e-8)
        assert np.all(sol.x >= -1e-9)
        assert sol.duality_gap <= 1e-7 * max(1.0, abs(sol.objective))


def test_duals_certify_optimum():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((3, 7))
    b = A @ np.abs(rng.standard_normal(7))
    c = np.abs(rng.standard_normal(7)) + 0.5
    sol = solve_lp(_standard_form(A, b, c))
    # dual feasibility: reduced costs nonnegative
    assert np.all(c - A.T @ sol.duals >= -1e-8)
    # strong duality
    assert float(sol.duals @ b) == pytest.approx(sol.objective, abs=1e-8)


def _minimax_rows(xs, degree):
    """Rows of min t, |x^j coefficients . p - cos(3x)| <= t at xs."""
    V = np.vander(xs, degree + 1, increasing=True)
    ones = np.ones((xs.size, 1))
    rows = np.vstack([np.hstack([V, -ones]), np.hstack([V, ones])])
    v = np.cos(3.0 * xs)
    lower = np.concatenate([np.full(xs.size, -np.inf), v])
    upper = np.concatenate([v, np.full(xs.size, np.inf)])
    return rows, lower, upper


def _minimax_lp(degree):
    cost = np.zeros(degree + 2)
    cost[-1] = 1.0
    lp = LinearProgram(cost)
    lp.set_col_bounds(-np.inf, np.inf)
    return lp


def test_added_rows_resolve_from_the_last_basis():
    # a Chebyshev fit on 41 points, then three batches of 200 more points
    # joining it: each re-solve (after the first, priced by Devex) must
    # land on the cold optimum of all the rows so far, in fewer pivots
    # than that cold solve needs
    degree = 6
    xs = np.linspace(-1.0, 1.0, 41)
    rng = np.random.default_rng(5)
    warm = _minimax_lp(degree)
    warm.add_rows(*_minimax_rows(xs, degree))
    last = solve_lp(warm)
    for _ in range(3):
        extra = np.sort(rng.uniform(-1.0, 1.0, 200))
        warm.add_rows(*_minimax_rows(extra, degree))
        resolved = solve_lp(warm)
        assert resolved.objective >= last.objective - 1e-15

        xs = np.concatenate([xs, extra])
        cold = _minimax_lp(degree)
        cold.add_rows(*_minimax_rows(xs, degree))
        reference = solve_lp(cold)
        assert resolved.objective == pytest.approx(reference.objective,
                                                   abs=1e-12)
        assert np.allclose(resolved.x, reference.x, rtol=0, atol=1e-12)
        assert resolved.iterations < reference.iterations
        assert resolved.duality_gap <= 1e-12
        last = resolved


def test_missing_highs_bindings_are_named(monkeypatch):
    # the bindings load with the first LinearProgram, not with the module
    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
    cotrig.simplex._highs_bindings.cache_clear()
    try:
        with pytest.raises(ImportError) as exc:
            LinearProgram([1.0])
    finally:
        monkeypatch.undo()
        cotrig.simplex._highs_bindings.cache_clear()
    assert "scipy.optimize._highspy._core" in str(exc.value)
    assert scipy.__version__ in str(exc.value)


def test_highs_loader_names_the_module_without_scipy(monkeypatch):
    # no scipy found: the loader's typed ImportError names the bindings
    for name in ("scipy.optimize._highspy._core", "scipy.optimize._highspy"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
    cotrig.simplex._highs_bindings.cache_clear()
    try:
        with pytest.raises(ImportError) as exc:
            cotrig.simplex._highs_bindings()
    finally:
        monkeypatch.undo()
        cotrig.simplex._highs_bindings.cache_clear()
    assert "scipy.optimize._highspy._core" in str(exc.value)
    assert exc.value.__cause__.name == "scipy"
