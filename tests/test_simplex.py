"""Tests for the HiGHS adapter behind solve_lp."""

import numpy as np
import pytest
from scipy.optimize import linprog

from cotrig.simplex import (LPInfeasibleError, LPIterationLimitError,
                            LPUnboundedError, solve_lp)


def test_hand_solved_transport():
    # min x0 + 2 x1 s.t. x0 + x1 = 1: optimum puts everything on x0
    sol = solve_lp(np.array([[1.0, 1.0]]), np.array([1.0]),
                   np.array([1.0, 2.0]))
    assert sol.objective == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(sol.x, [1.0, 0.0], atol=1e-12)
    assert sol.duals[0] == pytest.approx(1.0, abs=1e-12)


def test_two_constraint_program():
    # min -x0 - 2 x1 with x0 + s0 = 2, x1 + s1 = 3
    A = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])
    sol = solve_lp(A, np.array([2.0, 3.0]), np.array([-1.0, -2.0, 0.0, 0.0]))
    assert sol.objective == pytest.approx(-8.0, abs=1e-12)
    assert np.allclose(sol.x[:2], [2.0, 3.0], atol=1e-12)
    assert sol.duality_gap <= 1e-8


def test_negative_rhs_rows_are_flipped():
    # -x0 = -2 is x0 = 2; duals must refer to the original row
    sol = solve_lp(np.array([[-1.0, 0.0]]), np.array([-2.0]),
                   np.array([3.0, 1.0]))
    assert sol.x[0] == pytest.approx(2.0, abs=1e-12)
    assert sol.objective == pytest.approx(6.0, abs=1e-12)
    assert sol.duals[0] == pytest.approx(-3.0, abs=1e-12)


def test_infeasible():
    with pytest.raises(LPInfeasibleError):
        solve_lp(np.array([[1.0, 1.0]]), np.array([-1.0]),
                 np.array([1.0, 1.0]))


def test_unbounded():
    # min -x0 with x0 - x1 = 0: increase both without limit
    with pytest.raises(LPUnboundedError):
        solve_lp(np.array([[1.0, -1.0]]), np.array([0.0]),
                 np.array([-1.0, 0.0]))


def test_iteration_limit():
    # presolve solves small diagonal programs in 0 iterations, so the
    # limit is tested on one that takes several simplex steps
    rng = np.random.default_rng(3)
    A = rng.standard_normal((4, 9))
    b = A @ np.abs(rng.standard_normal(9))
    c = np.abs(rng.standard_normal(9)) + 0.1
    assert solve_lp(A, b, c).iterations > 1
    with pytest.raises(LPIterationLimitError):
        solve_lp(A, b, c, max_iterations=1)


def test_dimension_validation():
    with pytest.raises(ValueError):
        solve_lp(np.eye(2), np.array([1.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        solve_lp(np.eye(2), np.array([1.0, 1.0]), np.array([1.0]))


def test_degenerate_vertices_terminate():
    # many redundant rows meeting at one vertex
    A = np.array([
        [1.0, 1.0, 1.0, 0.0, 0.0],
        [1.0, 1.0, 0.0, 1.0, 0.0],
        [2.0, 2.0, 0.0, 0.0, 1.0],
    ])
    b = np.array([1.0, 1.0, 2.0])
    c = np.array([-1.0, -0.9, 0.0, 0.0, 0.0])
    sol = solve_lp(A, b, c)
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
        sol = solve_lp(A, b, c)
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
    sol = solve_lp(A, b, c)
    # dual feasibility: reduced costs nonnegative
    assert np.all(c - A.T @ sol.duals >= -1e-8)
    # strong duality
    assert float(sol.duals @ b) == pytest.approx(sol.objective, abs=1e-8)
