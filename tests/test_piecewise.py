"""Tests for piecewise Chebyshev series."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.chebyshev import chebder, chebval

from cotrig.piecewise import PiecewiseCheb, zero_mean_levels


def two_piece():
    # f(x) = x on [-1, 0] and x^2 on [0, 2]: u = 2x + 1 and u = x - 1
    return PiecewiseCheb([-1.0, 0.0, 2.0], centres=[-0.5, 1.0],
                         halves=[0.5, 1.0],
                         coefficients=[[-0.5, 0.5], [1.5, 2.0, 0.5]])


def square_wave():
    return PiecewiseCheb([-np.pi, 0.0, np.pi], centres=[-np.pi / 2, np.pi / 2],
                         halves=[np.pi / 2, np.pi / 2],
                         coefficients=[[-1.0], [1.0]], periodic=True)


def test_validation():
    with pytest.raises(ValueError):
        PiecewiseCheb([0.0], [], [], [])
    with pytest.raises(ValueError):
        PiecewiseCheb([0.0, 0.0], [0.0], [1.0], [[1.0]])
    with pytest.raises(ValueError):
        PiecewiseCheb([1.0, 0.0], [0.5], [0.5], [[1.0]])
    with pytest.raises(ValueError):
        PiecewiseCheb([0.0, 1.0], [0.5], [0.5], [[1.0], [2.0]])
    with pytest.raises(ValueError):
        PiecewiseCheb([0.0, 1.0], [0.5, 0.5], [0.5], [[1.0]])
    with pytest.raises(ValueError):
        PiecewiseCheb([0.0, 1.0], [0.5], [0.0], [[1.0]])
    with pytest.raises(ValueError):
        PiecewiseCheb([0.0, 1.0], [0.5], [0.5], [[1.0]], periodic=True)


def test_evaluation():
    f = two_piece()
    xs = np.array([-1.0, -0.5, 0.5, 2.0])
    assert np.allclose(f(xs), [-1.0, -0.5, 0.25, 4.0], atol=1e-14)
    assert f(1.5) == pytest.approx(2.25, abs=1e-14)
    assert isinstance(f(1.5), float)
    # the stored centre, not the breakpoint midpoint, anchors u
    g = PiecewiseCheb([0.0, 2.0], centres=[0.5], halves=[1.0],
                      coefficients=[[0.0, 1.0]])
    assert g(0.5) == pytest.approx(0.0, abs=1e-15)
    assert g(2.0) == pytest.approx(1.5, abs=1e-15)


def test_piece_integrals_exact():
    f = two_piece()
    assert f.integral() == pytest.approx(-0.5 + 8.0 / 3.0, abs=1e-13)
    # T1 integrates to 0 and T2 = 2u^2 - 1 to -2/3 over [-1, 1]; scaled by half
    odd = PiecewiseCheb([0.0, 2.0], [1.0], [1.0], [[0.0, 1.0]])
    assert odd.integral() == pytest.approx(0.0, abs=1e-14)
    t2 = PiecewiseCheb([0.0, 6.0], [3.0], [3.0], [[0.0, 0.0, 1.0]])
    assert t2.integral() == pytest.approx(-2.0, abs=1e-14)


def test_with_zero_mean():
    g = two_piece().with_zero_mean()
    assert g.integral() == pytest.approx(0.0, abs=1e-13)
    xs = np.linspace(-1.0, 2.0, 7)
    shift = (-0.5 + 8.0 / 3.0) / 3.0
    assert np.allclose(g(xs), two_piece()(xs) - shift, atol=1e-14)


def test_antiderivative_is_continuous_and_anchored(join_defects):
    f = two_piece()
    F = f.antiderivative()
    assert F(-1.0) == pytest.approx(0.0, abs=1e-14)
    # integral of x from -1 to 0
    assert F(0.0) == pytest.approx(-0.5, abs=1e-13)
    # plus integral of x^2 from 0 to 1
    assert F(1.0) == pytest.approx(-0.5 + 1.0 / 3.0, abs=1e-13)
    assert join_defects(F).max() < 1e-15
    # central differences of the antiderivative return the original
    xs = np.linspace(-0.95, 1.95, 31)
    h = 1e-6
    assert np.allclose((F(xs + h) - F(xs - h)) / (2 * h), f(xs), atol=1e-8)


def test_antiderivative_welds_a_narrow_piece(join_defects):
    # a piece 1e-9 wide between two wide ones, as a mollification zone sits
    lam = 1e-9
    f = PiecewiseCheb([0.0, 1.0, 1.0 + 2 * lam, 3.0],
                      centres=[0.5, 1.0 + lam, 0.5 * (4.0 + 2 * lam)],
                      halves=[0.5, lam, 0.5 * (2.0 - 2 * lam)],
                      coefficients=[[1.0], [0.0, 1.0], [-1.0]])
    F = f.antiderivative()
    assert join_defects(F).max() < 1e-15
    # 1 on [0, 1], an odd ramp through the zone, then -1
    assert F(1.0) == pytest.approx(1.0, abs=1e-15)
    assert F(1.0 + 2 * lam) == pytest.approx(1.0, abs=1e-15)
    assert F(3.0) == pytest.approx(1.0 - (2.0 - 2 * lam), abs=1e-14)
    # the zone's share of the integral is exact at its own scale
    assert F(1.0 + lam) - F(1.0) == pytest.approx(-0.5 * lam, rel=1e-5)


def test_continuity_defects(join_defects):
    f = two_piece()
    assert join_defects(f).shape == (1,)
    assert join_defects(f)[0] == pytest.approx(0.0, abs=1e-15)
    # interior jump at 0 and the wrap jump at +-pi
    assert np.allclose(join_defects(square_wave()), [2.0, 2.0])


def test_periodic_wrap_and_defects():
    f = square_wave()
    assert f(np.pi + 0.5) == pytest.approx(-1.0)
    assert f(-np.pi - 0.5) == pytest.approx(1.0)
    assert f.integral() == pytest.approx(0.0, abs=1e-13)
    ramp = PiecewiseCheb([0.0, 2 * np.pi], [np.pi], [np.pi], [[0.0, 1.0]],
                         periodic=True)
    assert ramp(-0.5) == pytest.approx(ramp(2 * np.pi - 0.5), abs=1e-12)
    with pytest.raises(ValueError):
        PiecewiseCheb([0.0, 6.0], [3.0], [3.0], [[1.0]], periodic=True)


def test_plus_constant():
    f = square_wave().plus_constant(3.0)
    assert f(0.5) == pytest.approx(4.0)
    assert f(-0.5) == pytest.approx(2.0)


def test_sup_norm():
    f = two_piece()
    assert f.sup_norm() == pytest.approx(4.0, abs=1e-10)
    # interior maximum: 1 - x^2 on [-1, 1] is T0/2 - T2/2
    g = PiecewiseCheb([-1.0, 1.0], [0.0], [1.0], [[0.5, 0.0, -0.5]])
    assert g.sup_norm() == pytest.approx(1.0, abs=1e-10)
    # a maximum strictly inside the second of two pieces, off every seed
    h = PiecewiseCheb([0.0, 1.0, 3.0], [0.5, 2.0], [0.5, 1.0],
                      [[1.0], [1.5, 0.1, -1.0]])
    u = 0.1 / 4.0  # where 1.5 + 0.1 u - (2u^2 - 1) peaks
    assert h.sup_norm() == pytest.approx(2.5 + 0.1 * u - 2 * u * u, abs=1e-12)


def test_jet():
    f = two_piece()
    xs = np.array([-0.75, -0.25, 0.0, 0.5, 1.5])
    # x on [-1, 0], x^2 on [0, 2]; a breakpoint takes the piece to its right
    np.testing.assert_allclose(f.jet(xs), [xs * np.where(xs < 0, 1.0, xs),
                                           np.where(xs < 0, 1.0, 2 * xs),
                                           np.where(xs < 0, 0.0, 2.0)],
                               atol=1e-14)
    # periodic wrap, as in evaluation; constant pieces have zero slope
    np.testing.assert_array_equal(square_wave().jet([np.pi + 0.5]),
                                  [[-1.0], [0.0], [0.0]])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_jet_rows_are_derivatives(data, draw_piecewise):
    p = draw_piecewise(data)
    bp = p.breakpoints
    u = np.linspace(-0.9, 0.9, 9)
    xs = np.concatenate([0.5 * (lo + hi) + 0.5 * (hi - lo) * u
                         for lo, hi in zip(bp[:-1], bp[1:])])
    jet = p.jet(xs)
    np.testing.assert_array_equal(jet[0], p(xs))
    h = 1e-6
    fd = (p.jet(xs + h) - p.jet(xs - h)) / (2 * h)
    lifted = p.antiderivative().jet(xs)
    for row in range(2):
        # the antiderivative's jet is the jet of p, shifted by one row
        scale = max(np.abs(jet[row]).max(), 1.0)
        np.testing.assert_allclose(lifted[row + 1], jet[row], rtol=1e-12,
                                   atol=1e-12 * scale)
        # central differences of each row give the next one
        scale = max(np.abs(jet[row + 1]).max(), 1.0)
        np.testing.assert_allclose(fd[row], jet[row + 1], rtol=1e-5,
                                   atol=1e-5 * scale)


def test_jet_rows_are_exact(table):
    # a smooth spline's base level (d = 1, lam = 1/12), its three plateaus
    # given series of lengths 1, 2 and 3 beside the two zones of length 97
    d, lam = 1.0, 1.0 / 12.0
    bp = [-d, -d + lam, -d + 3 * lam, lam, 3 * lam, 2 * np.pi - d]
    centres = [0.5 * (-2 * d + lam), -d + 2 * lam, 0.5 * (-d + 4 * lam),
               2 * lam, 0.5 * (2 * np.pi - d + 3 * lam)]
    halves = [0.5 * lam, lam, 0.5 * (d - 2 * lam), lam,
              0.5 * (2 * np.pi - d - 3 * lam)]
    coefficients = [[0.7], -table.cheb_coeffs, [0.3, -1.1], table.cheb_coeffs,
                    [0.2, 0.5, -0.4]]
    p = PiecewiseCheb(bp, centres, halves, coefficients, periodic=True)
    assert sorted({c.size for c in p.coefficients}) == [1, 2, 3, 97]
    rng = np.random.default_rng(5)
    inside = np.concatenate([lo + (hi - lo) * rng.random(7)
                             for lo, hi in zip(bp[:-1], bp[1:])])
    xs = np.concatenate([inside, bp, inside + 2 * np.pi, inside - 6 * np.pi])
    jet = p.jet(xs)
    assert np.array_equal(p(xs), jet[0])
    # reference: chebval of each piece's differentiated series, at the
    # wrapped points the piece holds (a breakpoint goes to its right)
    wrapped = bp[0] + np.mod(xs - bp[0], 2 * np.pi)
    piece = np.clip(np.searchsorted(bp, wrapped, side="right") - 1, 0, 4)
    for i, coef in enumerate(p.coefficients):
        mask = piece == i
        assert mask.any()
        u = (wrapped[mask] - p.centres[i]) / p.halves[i]
        for k in range(3):
            expect = chebval(u, chebder(coef, k, scl=1.0 / p.halves[i]))
            assert np.array_equal(jet[k, mask], expect)


def test_global_piece_coefficients():
    f = two_piece()
    np.testing.assert_allclose(f.global_piece_coefficients(0), [0.0, 1.0],
                               atol=1e-14)
    np.testing.assert_allclose(f.global_piece_coefficients(1), [0.0, 0.0, 1.0],
                               atol=1e-14)


def test_zero_mean_levels():
    levels = zero_mean_levels(square_wave(), 3)
    assert len(levels) == 4
    xs = np.linspace(-3.0, 3.0, 13)
    h = 1e-6
    for lower, upper in zip(levels, levels[1:]):
        assert abs(upper.integral()) < 1e-13
        fd = (upper(xs + h) - upper(xs - h)) / (2 * h)
        assert np.allclose(fd[xs != 0.0], lower(xs)[xs != 0.0], atol=1e-7)
