"""Tests for the mixed plateau and zone pieces of mollified splines, and
for the splines themselves."""

import numpy as np
import pytest

from cotrig.mollifier import MollifierTable
from cotrig.piecewise import PiecewiseCheb
from cotrig.smooth import (MIN_REALIZED_WIDTH, build_smooth_spline,
                           spline_distance)
from cotrig.splines import build_ideal_spline, step_offset


def plateau_then_zone():
    # a plateau at -1 on [0, 1], then the zone piece T1(u), u = x - 2
    return PiecewiseCheb([0.0, 1.0, 3.0], centres=[0.5, 2.0],
                         halves=[0.5, 1.0], coefficients=[[-1.0], [0.0, 1.0]])


def test_mixed_validation():
    with pytest.raises(ValueError):
        PiecewiseCheb([1.0, 1.0], [1.0], [1.0], [[0.0]])
    with pytest.raises(ValueError):
        PiecewiseCheb([0.0, 1.0], [0.5], [0.5], [[0.0]], periodic=True)


def test_mixed_poly_piece():
    # 2 + (x - 1/2) on [0, 1]
    f = PiecewiseCheb([0.0, 1.0], [0.5], [0.5], [[2.0, 0.5]])
    assert f(0.5) == pytest.approx(2.0)
    assert f(1.0) == pytest.approx(2.5)
    assert f.integral() == pytest.approx(2.0, abs=1e-14)


def test_mixed_cheb_piece():
    # T1(u) = u with u = x - 1 on [0, 2]
    f = PiecewiseCheb([0.0, 2.0], [1.0], [1.0], [[0.0, 1.0]])
    assert f(0.5) == pytest.approx(-0.5)
    assert f.integral() == pytest.approx(0.0, abs=1e-14)
    # T2(u) = 2u^2 - 1 integrates to -2/3 over [-1, 1]
    g = PiecewiseCheb([0.0, 2.0], [1.0], [1.0], [[0.0, 0.0, 1.0]])
    assert g.integral() == pytest.approx(-2.0 / 3.0, abs=1e-14)


def test_mixed_constant_shift_and_mean():
    f = PiecewiseCheb([0.0, 2.0], [1.0], [1.0], [[3.0]])
    g = f.plus_constant(-1.0)
    assert g(1.3) == pytest.approx(2.0)
    z = plateau_then_zone().with_zero_mean()
    assert z.integral() == pytest.approx(0.0, abs=1e-13)
    # the mean of -1 on [0, 1] and x - 2 on [1, 3] is -1/3
    assert z(0.5) == pytest.approx(-1.0 + 1.0 / 3.0, abs=1e-14)


def test_mixed_periodic_wrap():
    f = PiecewiseCheb([0.0, 1.0, 2 * np.pi], centres=[0.5, 0.5 + np.pi],
                      halves=[0.5, np.pi - 0.5],
                      coefficients=[[1.0], [0.0, 1.0]], periodic=True)
    assert f(-0.5) == pytest.approx(f(2 * np.pi - 0.5), abs=1e-12)
    assert f(2 * np.pi + 0.25) == pytest.approx(1.0, abs=1e-12)


def test_mixed_sup_norm_and_defect(join_defects):
    f = PiecewiseCheb([0.0, 1.0, 2.0], [0.5, 1.5], [0.5, 0.5],
                      [[1.0], [-2.0]])
    assert f.sup_norm() == pytest.approx(2.0, abs=1e-12)
    assert join_defects(f).max() == pytest.approx(3.0 / 2.0)
    g = plateau_then_zone()
    assert g.sup_norm() == pytest.approx(1.0, abs=1e-12)
    assert join_defects(g).max() == pytest.approx(0.0, abs=1e-15)


def test_smooth_build_validation():
    with pytest.raises(ValueError):
        build_smooth_spline(0, 1.0, 0.1)
    with pytest.raises(ValueError):
        build_smooth_spline(1, 4.0, 0.1)
    with pytest.raises(ValueError):
        build_smooth_spline(1, 1.0, 0.5)
    with pytest.raises(ValueError):
        build_smooth_spline(1, 1.0, 0.0)


def test_smooth_build_refuses_widths_below_the_realization_floor():
    assert build_smooth_spline(1, 1.0, MIN_REALIZED_WIDTH).lam \
        == MIN_REALIZED_WIDTH
    with pytest.raises(ValueError, match=r"^lam: 1e-17 .* floor 1e-13$"):
        build_smooth_spline(1, 1.0, 1e-17)


def test_smooth_step_plateaus():
    d = np.pi / 2
    lam = d / 8
    sp = build_smooth_spline(2, d, lam)
    gamma = step_offset(d)
    base = sp.levels[0]
    # low plateau between the zones, high plateau outside
    assert base(0.5 * (-d + 3 * lam + lam)) == pytest.approx(-1.0 - gamma)
    assert base(0.5 * (3 * lam + 2 * np.pi - d)) == pytest.approx(1.0 - gamma)
    assert base(-d + 0.5 * lam) == pytest.approx(1.0 - gamma)
    assert abs(base.integral()) < 1e-10


def test_smooth_levels_are_smooth_and_mean_zero(join_defects):
    sp = build_smooth_spline(2, np.pi / 2, np.pi / 16)
    for level in sp.levels:
        assert join_defects(level).max() < 1e-9
        assert abs(level.integral()) < 1e-9
    assert join_defects(sp.levels[0]).max() < 1e-10


def test_smooth_derivative_values_match_differences():
    d = np.pi / 2
    lam = d / 6
    sp = build_smooth_spline(2, d, lam)
    xs = np.linspace(-d + 0.01, 2 * np.pi - d - 0.01, 101)
    h = 1e-6
    for j in (1, 2):
        fd = (sp.jet(xs + h, 1, j - 1)[0]
              - sp.jet(xs - h, 1, j - 1)[0]) / (2 * h)
        assert np.allclose(fd, sp.jet(xs, 1, j)[0], atol=1e-5)
    # above the stored levels: the closed form against differences of level r
    inner = np.linspace(lam * 1.2, lam * 2.8, 41)
    fd = (sp.jet(inner + h, 1, 2)[0] - sp.jet(inner - h, 1, 2)[0]) / (2 * h)
    assert np.allclose(fd, sp.jet(inner, 1, 3)[0],
                       atol=1e-4 * max(1.0, np.abs(fd).max()))
    with pytest.raises(ValueError):
        sp.jet(xs, 1, -1)


def test_smooth_higher_derivatives_vanish_off_zones():
    d = np.pi / 2
    lam = d / 12
    sp = build_smooth_spline(1, d, lam)
    xs = np.array([-d + 0.5 * lam, 0.0, 0.5 * lam, 4 * lam, 3.0, -d + 3.5 * lam])
    for j in (2, 3, 4):
        assert np.all(sp.jet(xs, 1, j) == 0.0)
    # and they are nonzero somewhere inside each zone
    assert sp.jet(2 * lam - 0.3 * lam, 1, 2)[0, 0] != 0.0
    assert sp.jet(-d + 2 * lam + 0.3 * lam, 1, 2)[0, 0] != 0.0


def test_smooth_derivative_sup_scaling(table):
    d = np.pi / 2
    sp = build_smooth_spline(2, d, d / 12)
    for j in (1, 2):
        ratio = sp.sup_derivative(2 + j) * sp.lam ** j / table.s_norm(j)
        assert ratio == pytest.approx(1.0, abs=1e-6)


def test_smooth_derivative_sup_reads_each_step_norm_once(table, monkeypatch):
    # above r the sup is the table's step norm over lam^k; the table
    # takes each order's norm at most once, however often it is read
    sp = build_smooth_spline(2, 1.0, 1.0 / 12)
    expected = {k: table.sup_step_derivative(k) / sp.lam ** k
                for k in (1, 2, 3, table.max_order + 1)}
    computed = []
    original = MollifierTable.sup_step_derivative

    def counting(self, j):
        computed.append(j)
        return original(self, j)

    monkeypatch.setattr(MollifierTable, "sup_step_derivative", counting)
    for _ in range(2):
        for k, value in expected.items():
            assert sp.sup_derivative(2 + k) == value
    assert sorted(set(computed)) == sorted(computed)
    assert set(computed) <= set(expected)


def test_smooth_close_to_ideal_spline():
    d = np.pi / 2
    for r in (1, 2):
        ideal = build_ideal_spline(r, d)
        dists = []
        for lam in (d / 6, d / 12):
            sp = build_smooth_spline(r, d, lam)
            dist = spline_distance(sp, ideal, sp.window,
                                   seeds=sp.seed_points())
            assert dist <= 8.0 * np.pi ** (r - 1) * lam
            dists.append(dist)
        assert 0.3 <= dists[1] / dists[0] <= 0.7


def test_smooth_seed_points():
    sp = build_smooth_spline(1, np.pi / 2, np.pi / 24)
    seeds = sp.seed_points()
    assert seeds.size >= 130
    assert np.all(np.diff(seeds) > 0)
    lo, hi = sp.zones()[1]
    assert np.any((seeds > lo) & (seeds < hi))


def test_spline_distance_of_identical_functions():
    sp = build_smooth_spline(1, np.pi / 2, np.pi / 12)
    assert spline_distance(sp, sp, sp.window) == 0.0
