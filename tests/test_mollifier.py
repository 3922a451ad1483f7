"""Tests for the bump calculus and the smooth step table."""

import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebpts1, chebval
from scipy.integrate import quad

from cotrig.mollifier import (_BLOCK, _CHEB_DEGREE, MollifierTable,
                              _cumulative_bump, build_mollifier_table, bump,
                              bump_derivatives)

# sup |S^(j)| for j = 1..12 in 60 digits (mpmath: psi^(j-1) from the exact
# P_k of psi^(k) = P_k / (1-t^2)^(2k) psi, the mass Z by mp.quad, and the
# extremum by bisection on psi^(j)), rounded to double
S_NORMS_60_DIGITS = [
    1.6571376797382103, 3.5965805052174147, 34.909067016196447,
    839.65097950041839, 37459.486002154149, 2686333.7141678241,
    367008505.81148518, 65533598488.584171, 14869131271274.864,
    4185519617824251.8, 1.4326342015707238e18, 6.3316224937237634e20]


def test_bump_values_and_support():
    assert bump(0.0)[0] == pytest.approx(np.exp(-1.0), abs=1e-15)
    assert bump(1.0)[0] == 0.0
    assert bump(-1.0)[0] == 0.0
    assert bump(2.5)[0] == 0.0
    ts = np.linspace(-0.95, 0.95, 33)
    assert np.allclose(bump(ts), bump(-ts), atol=1e-16)
    assert np.all(bump(ts) > 0.0)


def test_bump_derivative_matches_central_differences():
    # each order against a difference quotient of the one below: a wrong
    # Leibniz recursion cannot survive this cascade
    ts = np.linspace(-0.85, 0.85, 19)
    h = 1e-6
    for k in range(1, 7):
        fd = (bump_derivatives(k - 1, ts + h)[k - 1]
              - bump_derivatives(k - 1, ts - h)[k - 1]) / (2 * h)
        exact = bump_derivatives(k, ts)[k]
        scale = np.abs(exact).max()
        assert np.allclose(fd, exact, atol=1e-5 * max(scale, 1.0))


def test_bump_second_derivative_closed_form():
    # psi'' = (6 t^4 - 2) / (1 - t^2)^4 * psi, worked out by hand
    ts = np.linspace(-0.9, 0.9, 25)
    d = 1.0 - ts * ts
    expected = (6.0 * ts ** 4 - 2.0) / d ** 4 * bump(ts)
    assert np.allclose(bump_derivatives(2, ts)[2], expected, atol=1e-13)


def test_bump_derivative_zero_order_and_bounds():
    ts = np.linspace(-0.9, 0.9, 11)
    np.testing.assert_array_equal(bump_derivatives(0, ts), [bump(ts)])
    with pytest.raises(ValueError):
        bump_derivatives(14, ts)
    with pytest.raises(ValueError):
        bump_derivatives(-1, ts)


def test_bump_derivatives_share_one_recursion():
    # row 0 is the bump itself, bit for bit, and row k of a longer jet is
    # the last row of the jet of order k; everything vanishes outside the
    # support
    ts = np.linspace(-1.2, 1.2, 97)
    rows = bump_derivatives(13, ts)
    assert rows.shape == (14, 97)
    np.testing.assert_array_equal(rows[0], bump(ts))
    for k in range(14):
        np.testing.assert_array_equal(rows[k], bump_derivatives(k, ts)[k])
    assert not rows[:, np.abs(ts) >= 1.0].any()


def test_bump_rows_do_not_depend_on_the_blocks():
    # a sample longer than one block gives, bit for bit, the rows of its
    # points taken a few at a time, in the shape of its input
    ts = np.linspace(-1.0, 1.0, 4 * _BLOCK + 3)
    rows = bump_derivatives(13, ts)
    pieces = np.concatenate([bump_derivatives(13, ts[i:i + 7])
                             for i in range(0, ts.size, 7)], axis=1)
    np.testing.assert_array_equal(rows, pieces)
    grid = ts[:-3].reshape(4, _BLOCK)
    np.testing.assert_array_equal(bump_derivatives(2, grid),
                                  rows[:3, :-3].reshape(3, 4, _BLOCK))
    assert bump_derivatives(5, []).shape == (6, 0)


def test_one_bump_row_holds_one_row_of_memory(table, monkeypatch):
    # the sample of sup |S^(12)| reads one row on 8193 points: the row and
    # its scaled copy take 0.13 MB and one block's recursion 0.2 MB, while
    # the 13 rows of the whole sample alone would take 0.85 MB
    seen = {}

    def capture(jet, window, **kwargs):
        seen["jet"] = jet
        return 0.0

    monkeypatch.setattr("cotrig.mollifier.sup_norm", capture)
    table.sup_step_derivative(12)
    jet = seen["jet"]
    ts = np.linspace(-1.0, 1.0, 8193)
    jet(ts[:5], 1)
    tracemalloc.start()
    try:
        row = jet(ts, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 19
    rows = jet(ts)
    np.testing.assert_array_equal(row, rows[:1])
    np.testing.assert_array_equal(
        rows, 2.0 / table.mass * bump_derivatives(13, ts)[11:])


def test_bump_mass_against_dense_trapezoid(table):
    ts = np.linspace(-1.0, 1.0, 200001)
    approx = np.trapezoid(bump(ts), ts)
    assert table.mass == pytest.approx(approx, abs=1e-9)
    assert 0.44 < table.mass < 0.45


def _quad_bump(lo, hi):
    integral, _ = quad(lambda t: bump(t)[0], lo, hi,
                       epsabs=1e-14, epsrel=1e-13, limit=200)
    return integral


def test_panel_rule_matches_adaptive_quadrature(table):
    # the fixed Gauss-Legendre panels against adaptive quadrature at the
    # interpolation nodes, accumulated node to node
    nodes = chebpts1(_CHEB_DEGREE + 1)
    below, mass = _cumulative_bump(nodes)
    assert mass == table.mass
    assert table.mass == pytest.approx(_quad_bump(-1.0, 1.0), rel=1e-15)
    edges = np.concatenate(([-1.0], nodes))
    reference = np.cumsum([_quad_bump(lo, hi)
                           for lo, hi in zip(edges[:-1], edges[1:])])
    assert np.abs(below - reference).max() <= 1e-15


def test_step_shape(table):
    # S on (-1, 1) is the interpolant the zone pieces carry
    step = lambda u: chebval(u, table.cheb_coeffs)
    us = np.linspace(-1.0, 1.0, 101)[1:-1]
    s = step(us)
    # the interpolant may overshoot the plateaus by its own accuracy
    assert np.all(np.abs(s) <= 1.0 + 1e-10)
    assert np.allclose(step(-us), -s, atol=1e-11)
    assert step(0.0) == pytest.approx(0.0, abs=1e-12)
    # strictly increasing where the slope beats the interpolation error,
    # nondecreasing up to that error in the flat tails
    core = np.linspace(-0.9, 0.9, 181)
    assert np.all(np.diff(step(core)) > 0.0)
    inner = np.linspace(-0.999, 0.999, 201)
    assert np.all(np.diff(step(inner)) > -1e-11)


def test_step_matches_direct_quadrature(table):
    for u in (-0.7, -0.2, 0.3, 0.8):
        integral, _ = quad(lambda t: bump(t)[0], -1.0, u,
                           epsabs=1e-13, epsrel=1e-12, limit=200)
        expected = -1.0 + 2.0 * integral / table.mass
        assert chebval(u, table.cheb_coeffs) == pytest.approx(expected,
                                                              abs=1e-10)


def test_step_derivative_consistency(table):
    # S' = 2/Z psi and S'' = 2/Z psi': central differences of the
    # interpolant and of the first row give the next row
    us = np.linspace(-0.9, 0.9, 41)
    rows = 2.0 / table.mass * bump_derivatives(1, us)
    h = 1e-5
    fd = (chebval(us + h, table.cheb_coeffs)
          - chebval(us - h, table.cheb_coeffs)) / (2 * h)
    assert np.allclose(fd, rows[0], atol=1e-6)
    fd = 2.0 / table.mass * (bump(us + h) - bump(us - h)) / (2 * h)
    assert np.allclose(fd, rows[1], atol=1e-6)


def test_s_norms(table):
    assert table.s_norm(0) == 1.0
    # |S'| peaks at 0 with value 2 psi(0) / mass
    assert table.s_norm(1) == pytest.approx(2.0 * np.exp(-1.0) / table.mass,
                                            rel=1e-6)
    for j in range(table.max_order):
        assert table.s_norm(j + 1) > 0.0
    # higher derivatives of the bump family grow rapidly
    assert table.s_norm(2) > table.s_norm(1)


def test_s_norms_are_polished_maxima(table):
    # every order up to the highest the bump recursion reaches
    us = np.linspace(-1.0, 1.0, 20001)
    top = len(S_NORMS_60_DIGITS)
    rows = 2.0 / table.mass * bump_derivatives(top - 1, us)
    for j in range(1, top + 1):
        dense = np.abs(rows[j - 1]).max()
        assert table.s_norm(j) >= dense
        assert table.s_norm(j) == pytest.approx(S_NORMS_60_DIGITS[j - 1],
                                                rel=1e-13)


def test_table_cache_returns_same_object(table):
    assert build_mollifier_table() is table


def test_table_validation(table):
    # S^(13)'s jet needs a bump derivative past the recursion's cap
    with pytest.raises(ValueError, match="up to order 13"):
        table.s_norm(13)


def test_s_norm_is_computed_on_first_read(monkeypatch):
    """The table stores no norm ahead of time: s_norm(0) is exactly 1,
    and s_norm(j) is sup_step_derivative(j), bit for bit, computed the
    first time order j is read and never again."""
    computed = []
    original = MollifierTable.sup_step_derivative

    def counting(self, j):
        computed.append(j)
        return original(self, j)

    monkeypatch.setattr(MollifierTable, "sup_step_derivative", counting)
    fresh = build_mollifier_table.__wrapped__()
    assert computed == []
    assert fresh.s_norm(0) == 1.0
    orders = range(1, fresh.max_order + 3)
    for j in orders:
        assert fresh.s_norm(j) == original(fresh, j)
    for j in orders:
        fresh.s_norm(j)
    assert computed == list(orders)
