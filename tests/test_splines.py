"""Tests for the periodic ideal splines and their exact structure."""

import numpy as np
import pytest

from cotrig.signsets import SignChangeSet, delta_q_membership_by_convexity
from cotrig.splines import PowerKink, abs_power, build_ideal_spline, step_offset


def test_abs_power_closed_forms():
    xs = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    assert np.allclose(abs_power(1, xs), np.abs(xs))
    assert np.allclose(abs_power(2, xs), np.abs(xs) * xs / 2.0)
    assert np.allclose(abs_power(3, xs), np.abs(xs) * xs ** 2 / 6.0)
    with pytest.raises(ValueError):
        abs_power(0, xs)


@pytest.mark.parametrize("r, scale", [(1, 1.0), (2, 1.0), (3, 0.5)])
def test_power_kink_values_jet_and_kink(r, scale):
    kink = PowerKink(r, scale)
    xs = np.linspace(-1.5, 1.5, 31)
    np.testing.assert_array_equal(kink(xs), abs_power(r, xs / scale))
    rows = kink.jet(xs)
    np.testing.assert_array_equal(rows[0], kink(xs))
    # away from the kink, central differences of each row give the next
    xs = xs[np.abs(xs) > 1e-3]
    h = 1e-6
    fd = (kink.jet(xs + h) - kink.jet(xs - h)) / (2 * h)
    np.testing.assert_allclose(fd[:2], kink.jet(xs)[1:], rtol=1e-6, atol=1e-6)
    assert kink.breakpoints == (0.0,)


def test_step_offset_values():
    assert step_offset(np.pi) == 0.0
    assert step_offset(np.pi / 2) == 0.5
    assert step_offset(np.pi / 4) == 0.75
    for bad in (0.0, -1.0, np.pi + 0.1):
        with pytest.raises(ValueError):
            step_offset(bad)


def test_build_validation():
    with pytest.raises(ValueError):
        build_ideal_spline(0, 1.0)
    with pytest.raises(ValueError):
        build_ideal_spline(2, 4.0)


def test_full_cut_degree_one_is_shifted_abs():
    # b = pi gives offset 0 and the spline |x| - pi/2 on [-pi, pi]
    sp = build_ideal_spline(1, np.pi)
    assert sp.offset == 0.0
    xs = np.linspace(-np.pi, np.pi, 41)
    assert np.allclose(sp(xs), np.abs(xs) - np.pi / 2, atol=1e-13)
    assert sp(0.0) == pytest.approx(-np.pi / 2, abs=1e-13)


def test_top_derivative_sup_is_exactly_one_plus_offset():
    for r in (1, 2, 3):
        for b in (np.pi / 4, np.pi / 2, np.pi):
            sp = build_ideal_spline(r, b)
            assert sp.sup_derivative(r) == 1.0 + sp.offset


def test_every_level_has_zero_period_mean():
    sp = build_ideal_spline(3, np.pi / 2)
    for level in sp.levels:
        assert abs(level.integral()) < 1e-12


def test_smoothness_at_breakpoints(join_defects):
    # levels 1..r are the derivatives of orders r-1..0: all continuous
    for r in (2, 3):
        sp = build_ideal_spline(r, np.pi / 4)
        for level in sp.levels[1:]:
            assert join_defects(level).max() < 1e-10
        # the top derivative jumps by 2 at both joins
        assert np.allclose(join_defects(sp.levels[0]) * (1.0 + sp.offset), 2.0)


def test_residual_polynomial_leading_coefficient():
    from math import factorial

    for r in (1, 2, 3):
        for b in (np.pi / 3, np.pi):
            coeffs, defect = build_ideal_spline(r, b).residual_poly()
            assert defect < 1e-10
            assert coeffs[r] == pytest.approx(-step_offset(b) / factorial(r),
                                              abs=1e-10)


def test_spline_equals_power_kink_plus_residual():
    r, b = 2, np.pi / 2
    sp = build_ideal_spline(r, b)
    coeffs, _ = sp.residual_poly()
    xs = np.linspace(-b + 1e-9, 2 * np.pi - b - 1e-9, 301)
    recon = abs_power(r, xs) + np.polynomial.polynomial.polyval(xs, coeffs)
    assert np.allclose(sp(xs), recon, atol=1e-10)


def test_derivative_values_match_difference_quotients():
    sp = build_ideal_spline(3, np.pi / 2)
    xs = np.array([-1.0, 0.7, 2.0, 4.0])
    h = 1e-5
    for j in (1, 2):
        fd = (sp.jet(xs + h, 1, j - 1)[0]
              - sp.jet(xs - h, 1, j - 1)[0]) / (2 * h)
        assert np.allclose(fd, sp.jet(xs, 1, j)[0], atol=1e-7)
    with pytest.raises(ValueError):
        sp.jet(xs, 1, 4)
    with pytest.raises(ValueError):
        sp.jet(xs, 1, -1)


def test_membership_in_both_shape_classes():
    # with sign changes at the kinks, sign * (q-2)-nd derivative is convex on
    # each open gap for both q = r + 1 and q = r + 2
    for r in (1, 2, 3):
        b = np.pi / 2
        sp = build_ideal_spline(r, b)
        ys = SignChangeSet([-b, 0.0])
        assert delta_q_membership_by_convexity(
            lambda t: sp.jet(t, 1, r - 1)[0], ys)
        assert delta_q_membership_by_convexity(
            lambda t: sp.jet(t, 1, r)[0], ys)
