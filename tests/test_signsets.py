"""Tests for sign-change sets and co-q-monotone membership checks."""

import numpy as np
import pytest

from cotrig.signsets import (SignChangeSet, delta_q_membership,
                             delta_q_membership_by_convexity)


def test_validation():
    with pytest.raises(ValueError):
        SignChangeSet([])
    with pytest.raises(ValueError):
        SignChangeSet([0.0])
    with pytest.raises(ValueError):
        SignChangeSet([1.0, 1.0])
    with pytest.raises(ValueError):
        SignChangeSet([2.0, 1.0])
    with pytest.raises(ValueError):
        SignChangeSet([0.0, 2 * np.pi])


def test_pairs_gaps_min_gap():
    ys = SignChangeSet([-np.pi / 2, 0.0])
    assert ys.pairs == 1
    assert ys.wrap_point == pytest.approx(-np.pi / 2 + 2 * np.pi)
    gaps = ys.gaps()
    assert gaps.shape == (2,)
    assert gaps[0] == pytest.approx(np.pi / 2)
    assert gaps[1] == pytest.approx(3 * np.pi / 2)
    assert ys.min_gap() == pytest.approx(np.pi / 2)


def test_interval_signs_alternate():
    ys = SignChangeSet([-1.0, 0.0, 1.0, 2.0])
    assert [ys.interval_sign(l) for l in range(4)] == [-1, 1, -1, 1]
    with pytest.raises(IndexError):
        ys.interval_sign(4)
    with pytest.raises(IndexError):
        ys.interval_sign(-1)


def test_intervals_cover_one_period():
    ys = SignChangeSet([-1.0, 0.5])
    triples = ys.intervals()
    assert triples[0] == (-1.0, 0.5, -1)
    assert triples[1][0] == 0.5
    assert triples[1][1] == pytest.approx(-1.0 + 2 * np.pi)
    assert triples[1][2] == 1
    total = sum(hi - lo for lo, hi, _ in triples)
    assert total == pytest.approx(2 * np.pi)


def test_shift_to_canonical_inner_gap():
    ys = SignChangeSet([-1.0, 0.5])
    canon, shift = ys.shift_to_canonical()
    assert shift == pytest.approx(-0.5)
    assert canon.points[0] == pytest.approx(-1.5)
    assert canon.points[1] == pytest.approx(0.0)


def test_shift_to_canonical_wrap_gap():
    # points 0 and 6: wrap gap 2pi - 6 ~ 0.28 is the smallest
    ys = SignChangeSet([0.0, 6.0])
    canon, shift = ys.shift_to_canonical()
    assert shift == pytest.approx(-2 * np.pi)
    assert canon.points[0] == pytest.approx(6.0 - 2 * np.pi)
    assert canon.points[1] == pytest.approx(0.0)
    assert canon.min_gap() == pytest.approx(ys.min_gap())


def test_product():
    ys = SignChangeSet([-1.0, 1.0])
    ts = np.array([0.0, 2.0])
    assert np.allclose(ys.product(ts), [-1.0, 3.0])


def test_membership_sine_against_pi_zero_set():
    # f(t) = cos t has f'''(t) = sin t, changing sign at -pi and 0 with
    # sin(t) * (t + pi) * t >= 0 on (-pi, pi)
    ys = SignChangeSet([-np.pi, 0.0])
    ok, margin = delta_q_membership(np.sin, ys)
    assert ok and margin >= 0.0
    ok, margin = delta_q_membership(lambda t: -np.sin(t), ys)
    assert not ok
    assert margin < -1e-3


def test_membership_zero_function_and_wrong_constant():
    ys = SignChangeSet([-np.pi, 0.0])
    assert delta_q_membership(lambda t: np.zeros_like(t), ys)[0]
    assert not delta_q_membership(lambda t: np.ones_like(t), ys)[0]


def test_membership_extra_points_catch_narrow_violation():
    # violation confined to a 1e-3 wide dip inside the wrap gap
    ys = SignChangeSet([-np.pi, 0.0])
    centre = 2.0

    def dq(t):
        t = np.asarray(t, dtype=float)
        return np.sin(t) - 50.0 * np.exp(-((t - centre) / 1e-4) ** 2)

    assert delta_q_membership(dq, ys)[0]
    assert not delta_q_membership(dq, ys, extra_points=[centre])[0]


def test_convexity_membership_consistent_with_direct():
    # with q = 3 and Y = {-pi, 0}: f^(1) = -sin has second derivative sin,
    # matching the direct check of f^(3) = sin above
    ys = SignChangeSet([-np.pi, 0.0])
    assert delta_q_membership_by_convexity(lambda t: -np.sin(t), ys)
    assert not delta_q_membership_by_convexity(np.sin, ys)


def test_convexity_membership_accepts_piecewise_kinks():
    # the wrapped |t| is linear on each open gap of {-pi, 0}; its kinks sit
    # exactly on the sign-change points, which the per-gap check never samples
    ys = SignChangeSet([-np.pi, 0.0])
    fq2 = lambda t: np.abs(np.mod(np.asarray(t) + np.pi, 2 * np.pi) - np.pi)
    assert delta_q_membership_by_convexity(fq2, ys)


def test_to_dict():
    """The set stores its points as plain floats, the list its removed
    serialiser wrote."""
    assert SignChangeSet([-1, 0]).points == (-1.0, 0.0)
