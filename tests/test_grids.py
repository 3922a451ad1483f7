"""Tests for intervals, Chebyshev grids, and refined sup-norm estimates."""

import numpy as np
import pytest

from cotrig.grids import (FULL_PERIOD, GridSpec, Interval, chebyshev_points,
                          golden_refine_max, sup_norm)


def test_interval_basic_properties():
    iv = Interval(-1.0, 3.0)
    assert iv.width == 4.0
    assert iv.midpoint == 1.0
    assert iv.contains(0.0)
    assert not iv.contains(3.5)
    assert iv.contains(3.5, slack=1.0)
    assert iv.clip(5.0) == 3.0
    assert iv.clip(-5.0) == -1.0


def test_interval_rejects_bad_endpoints():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(2.0, -2.0)
    with pytest.raises(ValueError):
        Interval(0.0, 7.0)
    with pytest.raises(ValueError):
        Interval(0.0, np.inf)


def test_full_period_width():
    assert FULL_PERIOD.lo == -np.pi
    assert FULL_PERIOD.hi == np.pi


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(points_per_degree=3)
    with pytest.raises(ValueError):
        GridSpec(refinement_tolerance=0.0)
    with pytest.raises(ValueError):
        GridSpec(max_refinements=0)


def test_gridspec_sample_count():
    g = GridSpec(points_per_degree=10)
    assert g.sample_count(None) == 256
    assert g.sample_count(None, floor=100) == 100
    assert g.sample_count(50) == 500
    assert g.sample_count(5) == 256
    assert g.sample_count(0) == 256


def test_chebyshev_points_closed_hits_endpoints():
    iv = Interval(-2.0, 2.0)
    xs = chebyshev_points(iv, 9)
    assert xs.shape == (9,)
    assert np.all(np.diff(xs) > 0)
    assert xs[0] == pytest.approx(-2.0, abs=1e-14)
    assert xs[-1] == pytest.approx(2.0, abs=1e-14)
    # extrema nodes of degree 8 on [-1, 1], scaled by 2
    expected = 2.0 * np.cos(np.pi * np.arange(9) / 8.0)[::-1]
    assert np.allclose(xs, expected, atol=1e-13)


def test_chebyshev_points_open_stays_inside():
    iv = Interval(0.0, 1.0)
    xs = chebyshev_points(iv, 16, open_ends=True)
    assert xs.shape == (16,)
    assert np.all(np.diff(xs) > 0)
    assert xs[0] > 0.0
    assert xs[-1] < 1.0


def test_chebyshev_points_needs_two():
    with pytest.raises(ValueError):
        chebyshev_points(FULL_PERIOD, 1)


def test_golden_refine_max_finds_parabola_peak():
    f = lambda x: 1.0 - (x - 0.3) ** 2
    best = golden_refine_max(f, np.array([0.0]), np.array([1.0]), 60)
    assert best[0] == pytest.approx(1.0, abs=1e-12)


def test_sup_norm_sine_is_one():
    assert sup_norm(np.sin, FULL_PERIOD) == pytest.approx(1.0, abs=1e-12)


def test_sup_norm_endpoint_maximum():
    iv = Interval(-1.0, 2.0)
    assert sup_norm(lambda x: x * x, iv) == pytest.approx(4.0, abs=1e-12)


def test_sup_norm_narrow_spike_needs_seed():
    # a bump of width ~2e-4 hiding between Chebyshev nodes near the centre
    spike = lambda x: np.exp(-((x - 0.1234) / 1e-4) ** 2)
    iv = Interval(-np.pi, np.pi)
    coarse = sup_norm(spike, iv, floor=64)
    seeded = sup_norm(spike, iv, floor=64, seeds=[0.1234])
    assert seeded == pytest.approx(1.0, abs=1e-10)
    assert seeded >= coarse


def test_sup_norm_seeds_are_clipped():
    iv = Interval(0.0, 1.0)
    val = sup_norm(lambda x: x, iv, seeds=[-50.0, 50.0])
    assert val == pytest.approx(1.0, abs=1e-12)
