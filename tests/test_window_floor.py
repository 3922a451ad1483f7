"""Window floors against dense-grid reference optima.

window_floor_solve feeds calibrate (c3) and lemma-aux, where trig and
monomial columns on a narrow window are nearly dependent.  Each result is
compared with the optimum of the same minimax problem on a denser grid,
solved in one HiGHS LP over an SVD-orthonormalised basis.
"""

from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from cotrig import experiments, minimax
from cotrig.experiments import window_floor_solve
from cotrig.grids import Interval, chebyshev_points
from cotrig.splines import abs_power
from cotrig.trigpoly import trig_basis, trig_derivative_basis

REF_PER_DEGREE = 64


def _reference_floor(n: int, q: int, b: float, r: int) -> float:
    """min sup|F_r + P - T| on [-b, b] over degree-n trig T with
    t T^(q)(t) >= 0 and degree-r algebraic P, on a grid through 0."""
    count = max(257, REF_PER_DEGREE * (n + 1))
    halves = [Interval(-b, 0.0), Interval(0.0, b)]
    x = np.unique(np.concatenate([chebyshev_points(iv, count)
                                  for iv in halves]))
    cx = np.concatenate([chebyshev_points(iv, count, open_ends=True)
                         for iv in halves])
    columns = np.hstack([trig_basis(x, n),
                         -np.vander(x, r + 1, increasing=True)])
    rows = np.hstack([trig_derivative_basis(cx, n, q) * np.sign(cx)[:, None],
                      np.zeros((cx.size, r + 1))])
    values = abs_power(r, x)
    vmax = float(np.abs(values).max())
    u, s, vt = np.linalg.svd(columns, full_matrices=False)
    keep = s > 1e-12 * s[0]
    cons = rows @ (vt[keep].T / s[keep])
    cons /= np.linalg.norm(cons, axis=1)[:, None]
    k = int(keep.sum())
    ones = np.ones((x.size, 1))
    A = np.vstack([np.hstack([u[:, keep], -ones]),
                   np.hstack([-u[:, keep], -ones]),
                   np.hstack([-cons, np.zeros((cx.size, 1))])])
    rhs = np.concatenate([values / vmax, -values / vmax, np.zeros(cx.size)])
    cost = np.zeros(k + 1)
    cost[-1] = 1.0
    res = linprog(cost, A_ub=A, b_ub=rhs, bounds=[(None, None)] * k + [(0, None)],
                  method="highs")
    assert res.status == 0
    return float(res.fun) * vmax


@pytest.mark.parametrize("n", [4, 8, 16])
@pytest.mark.parametrize("b", ["1/4", "1/8", "1/16", "1/32"])
@pytest.mark.parametrize("q", [3, 4])
def test_window_floor_matches_dense_reference(q, b, n):
    r = q - 1
    b = float(Fraction(b))
    error, post = window_floor_solve(lambda x: abs_power(r, x), n, q, b, r)
    ref = _reference_floor(n, q, b, r)
    assert post == pytest.approx(ref, rel=1e-3)
    assert error <= post * (1 + 1e-9)


@pytest.mark.parametrize("n", [8, 48])
def test_window_floor_theta_contract(monkeypatch, n):
    # the benchmark captures theta by patching experiments.solve_grid_minimax
    # and checks it as trig coefficients, then the negated monomials
    captured = []

    def capture(*args, **kwargs):
        result = minimax.solve_grid_minimax(*args, **kwargs)
        captured.append((args, result[0]))
        return result

    monkeypatch.setattr(experiments, "solve_grid_minimax", capture)
    q, b = 3, 0.25
    r = q - 1
    _, post = window_floor_solve(lambda x: abs_power(r, x), n, q, b, r)
    (values, columns), theta = captured[-1][0][:2], captured[-1][1]
    assert theta.size == 2 * n + 1 + r + 1
    # the solve grid holds the kink: its -x column has a zero
    assert 0.0 in columns[:, 2 * n + 2]
    halves = [Interval(-b, 0.0), Interval(0.0, b)]
    fine = minimax._split_points(halves, 4 * max(24 * (n + 1), 1025))
    fit = np.hstack([trig_basis(fine, n),
                     -np.vander(fine, r + 1, increasing=True)]) @ theta
    assert np.abs(abs_power(r, fine) - fit).max() == pytest.approx(post,
                                                                   rel=1e-12)
