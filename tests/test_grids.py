"""Tests for intervals, Chebyshev grids, and refined sup-norm estimates."""

import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotrig import grids
from cotrig.counterexample import build_partial_sum, plan_recursion
from cotrig.experiments import (_bernstein_ratio, _domination_ratio,
                                _halfconvex_family, _mirrored)
from cotrig.grids import (FULL_PERIOD, Interval, chebyshev_points,
                          golden_refine_max, sup_norm)
from cotrig.mollifier import bump, bump_derivatives
from cotrig.piecewise import PiecewiseCheb
from cotrig.smooth import build_smooth_spline
from cotrig.splines import PowerKink, build_ideal_spline
from cotrig.trigpoly import TrigPoly


def test_interval_basic_properties():
    iv = Interval(-1.0, 3.0)
    assert iv.width == 4.0
    assert iv.midpoint == 1.0
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


def _golden_sup(jet, iv, degree_hint=None, seeds=None, floor=256):
    """Reference sup norm: the sample and brackets of sup_norm, each bracket
    polished by 60 rounds of golden-section search instead of Newton."""
    sampled, _, lo, hi, _ = grids._sampled_maxima(jet, iv, degree_hint,
                                                  seeds, floor)
    f = lambda x: jet(x, 1)[0]
    return max(float(sampled), float(golden_refine_max(f, lo, hi, 60).max()))


def _assert_family_is_its_members(family, members, iv, **kwargs):
    """A family's sups are each member's own sup_norm, bit for bit."""
    sups = sup_norm(family, iv, **kwargs)
    assert isinstance(sups, np.ndarray) and sups.shape == (len(members),)
    assert sups.tolist() == [sup_norm(jet, iv, **kwargs) for jet in members]


def _brackets(jet, iv, **kwargs):
    """Each member's bracket count, and whether each member's polish
    moved any bracket off its sampled point."""
    _, x0, lo, hi, owner = grids._sampled_maxima(
        jet, iv, kwargs.get("degree_hint"), None, kwargs.get("floor", 256))
    *_, last = grids._newton_refine_max(
        lambda x, i: jet(x, owner=owner[i]), x0, lo, hi)
    moved = np.zeros(owner.max() + 1, dtype=bool)
    np.logical_or.at(moved, owner, last != x0)
    return np.bincount(owner), moved


def _sin_jet(x, rows=3):
    return np.array([np.sin(x), np.cos(x), -np.sin(x)])[:rows]


def test_sup_norm_sample_count():
    # the first call to the jet evaluates row 0 on the Chebyshev sample: 20
    # points a degree, never fewer than floor, and floor without a hint
    for degree_hint, floor, count in [(None, 256, 256), (None, 100, 100),
                                      (50, 256, 1000), (5, 256, 256),
                                      (0, 256, 256)]:
        calls = []

        def jet(x, rows=3):
            calls.append((np.size(x), rows))
            return np.array([np.cos(x), -np.sin(x), -np.cos(x)])[:rows]

        sup_norm(jet, Interval(-1.0, 1.0), degree_hint=degree_hint,
                 floor=floor)
        assert calls[0] == (count, 1)
        assert {rows for _, rows in calls[1:]} == {3}


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
    assert sup_norm(_sin_jet, FULL_PERIOD) == pytest.approx(1.0, abs=1e-12)


def test_sup_norm_endpoint_maximum():
    iv = Interval(-1.0, 2.0)
    jet = lambda x, rows=3: np.array([x * x, 2.0 * x,
                                      np.full_like(x, 2.0)])[:rows]
    assert sup_norm(jet, iv) == pytest.approx(4.0, abs=1e-12)


def test_sup_norm_narrow_spike_needs_seed():
    # a bump of width ~2e-4 hiding between Chebyshev nodes near the centre
    w = 1e-4

    def jet(x, rows=3):
        u = x - 0.1234
        return np.exp(-(u / w) ** 2) * np.array([
            np.ones_like(x), -2.0 * u / w ** 2,
            4.0 * u * u / w ** 4 - 2.0 / w ** 2])[:rows]

    iv = Interval(-np.pi, np.pi)
    coarse = sup_norm(jet, iv, floor=64)
    seeded = sup_norm(jet, iv, floor=64, seeds=[0.1234])
    assert seeded == pytest.approx(1.0, abs=1e-10)
    assert seeded >= coarse


def test_sup_norm_seeds_are_clipped():
    iv = Interval(0.0, 1.0)
    jet = lambda x, rows=3: np.array([x, np.ones_like(x),
                                      np.zeros_like(x)])[:rows]
    val = sup_norm(jet, iv, seeds=[-50.0, 50.0])
    assert val == pytest.approx(1.0, abs=1e-12)


def test_sup_norm_looks_left_of_a_flat_piece():
    # the sampled maximum is the breakpoint at 1.25, where the jet reads
    # f' = f'' = 0 from the flat piece on its right; the cubic piece on its
    # left peaks just before it
    p = PiecewiseCheb([-1.0, 1.0, 1.25, 2.25], centres=[0.0, 1.125, 1.75],
                      halves=[1.0, 0.125, 0.5],
                      coefficients=[[0.0], [0.25, 0.25, 0.0, -0.625], [0.0]])
    f = p.antiderivative()
    assert f(1.25) == 0.0625
    newton = sup_norm(f.jet, f.window, seeds=f.breakpoints)
    golden = _golden_sup(f.jet, f.window, seeds=f.breakpoints)
    assert newton == pytest.approx(golden, rel=1e-13)
    assert newton == pytest.approx(0.06268579509458588, rel=1e-13)


@pytest.mark.parametrize("j, value, most", [
    # 2 endpoints and 16 last-digit ripples of the zone pieces next to
    # the plateaus
    (2, 1.6816901138230258, 20),
    (3, 19.885652156858534, 5),
])
def test_sup_norm_polishes_a_flat_run_at_its_ends(monkeypatch, j, value,
                                                   most):
    # derivatives of a smooth spline have plateaus; each is one maximum,
    # not one bracket per sample, and Newton steps polish every bracket
    spline = build_smooth_spline(2, 1.0, Fraction(1, 12))
    brackets = set()
    newton = grids._newton_refine_max

    def counting_newton(jet, x0, lo, hi):
        brackets.update(zip(lo, hi))
        return newton(jet, x0, lo, hi)

    def no_golden(f, lo, hi, rounds):
        raise AssertionError("sup_norm called golden_refine_max")

    monkeypatch.setattr(grids, "_newton_refine_max", counting_newton)
    monkeypatch.setattr(grids, "golden_refine_max", no_golden)
    assert spline.sup_derivative(j) == value
    if j > spline.r:
        # above r the spline reads the table's stored step norm: take
        # that sup again, the one the table took when it was built
        k = j - spline.r
        assert spline.table.sup_step_derivative(k) / spline.lam ** k == value
    assert 0 < len(brackets) <= most


def _draw_trig(data, degree, kind):
    coeff = st.floats(-1.0, 1.0, allow_subnormal=False)

    def draw():
        return np.array(data.draw(st.lists(coeff, min_size=degree,
                                           max_size=degree)))

    if kind == "zero":
        return TrigPoly(0.0, np.zeros(degree), np.zeros(degree))
    if kind == "odd":
        return TrigPoly(0.0, np.zeros(degree), draw())
    a0 = data.draw(coeff)
    if kind == "even":
        return TrigPoly(a0, draw(), np.zeros(degree))
    return TrigPoly(a0, draw(), draw())


def _assert_polish_paths_agree(jet, iv, **kwargs):
    """Newton polish by the jet agrees with golden-section search on the
    same brackets and never reads below a dense sample."""
    newton = sup_norm(jet, iv, **kwargs)
    golden = _golden_sup(jet, iv, **kwargs)
    assert abs(newton - golden) <= max(1e-13 * golden, 1e-15)
    dense = np.abs(jet(np.linspace(iv.lo, iv.hi, 5001), 1)[0]).max()
    assert newton >= dense * (1.0 - 1e-13) - 1e-15


@settings(max_examples=100, deadline=None)
@given(data=st.data(), degree=st.integers(0, 32),
       kind=st.sampled_from(["odd", "even", "general", "zero"]),
       half=st.one_of(st.none(), st.floats(0.05, np.pi, exclude_max=True)))
def test_trigpoly_sup_norm_matches_golden_section(data, degree, kind, half):
    tp = _draw_trig(data, degree, kind)
    iv = FULL_PERIOD if half is None else Interval(-half, half)
    _assert_polish_paths_agree(tp.jet, iv, degree_hint=degree)
    # a stack of tp, its mirror image and its double is a family
    members = [tp, TrigPoly(tp.a0, tp.cos_coeffs, -tp.sin_coeffs),
               TrigPoly(2 * tp.a0, 2 * tp.cos_coeffs, 2 * tp.sin_coeffs)]
    stack = TrigPoly([m.a0 for m in members], [m.cos_coeffs for m in members],
                     [m.sin_coeffs for m in members])
    _assert_family_is_its_members(stack.jet, [m.jet for m in members], iv,
                                  degree_hint=degree)


def _trig_stack(degree):
    """Six members of one degree: four drawn, the constant 1/2, and 0."""
    rng = np.random.default_rng(degree)
    a0 = rng.standard_normal(6)
    cos, sin = rng.standard_normal((2, 6, degree))
    a0[4:], cos[4:], sin[4:] = (0.5, 0.0), 0.0, 0.0
    return TrigPoly(a0, cos, sin), [TrigPoly(*c) for c in zip(a0, cos, sin)]


@pytest.mark.parametrize("order", [0, 1])
@pytest.mark.parametrize("degree", range(1, 17))
def test_trigpoly_family_sups_are_the_members_own(degree, order):
    stack, members = _trig_stack(degree)
    family = lambda x, rows=3, owner=None: stack.jet(x, rows, order, owner)
    singles = [lambda x, rows=3, m=m: m.jet(x, rows, order) for m in members]
    _assert_family_is_its_members(family, singles, FULL_PERIOD,
                                  degree_hint=degree)
    # the drawn members have interior maxima to polish; the constant and
    # the zero member are one flat run, whose two end brackets never open
    counts, moved = _brackets(family, FULL_PERIOD, degree_hint=degree)
    assert counts[:4].min() > 2 and counts[4:].tolist() == [2, 2]
    assert moved[:4].all() and not moved[4:].any()


@pytest.mark.parametrize("degree", range(1, 17))
def test_bernstein_family_ratios_are_the_members_own(degree):
    # the constant and the zero member have no sine part: their ratios
    # are 0.0, and nothing warns of their 0/0
    stack, _ = _trig_stack(degree)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ratios = _bernstein_ratio(stack.sin_coeffs, 1.0, floor=256)
        singles = [_bernstein_ratio(c, 1.0, floor=256)
                   for c in stack.sin_coeffs]
    assert ratios.tolist() == singles
    assert ratios[:4].min() > 0.0 and ratios[4:].tolist() == [0.0, 0.0]


@pytest.mark.parametrize("q", [3, 4, 5])
def test_hinge_family_sups_are_the_members_own(q):
    # lemma-3111's trials as one family, with a zero member whose
    # brackets never open: its sups and ratios are those of each trial
    # alone, bit for bit
    b = 0.5
    knots = np.linspace(0.0, 2 * b, 14, endpoint=False)
    # half of them signed, whose sums have interior maxima
    weights = np.random.default_rng(q).standard_normal((40, 14))
    weights[:20] = np.abs(weights[:20])
    weights[7] = 0.0
    family = _halfconvex_family(q, b, weights, knots)
    members = [_halfconvex_family(q, b, w, knots) for w in weights]
    for k, iv in ((0, Interval(-2 * b, 2 * b)), (1, Interval(-b, b))):
        _assert_family_is_its_members(family[k], [m[k] for m in members],
                                      iv, floor=1024)
        counts, moved = _brackets(family[k], iv, floor=1024)
        assert len(set(counts)) > 1 and not moved[7]
    ratios = _domination_ratio(q, b, family)
    assert ratios.tolist() == [_domination_ratio(q, b, m) for m in members]
    assert ratios[7] == 0.0


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_piecewise_sup_norm_matches_golden_section(data, draw_piecewise):
    # mixed degrees, a kink at every breakpoint, and flat pieces where the
    # drawn series is zero; seeded per piece as PiecewiseCheb.sup_norm is
    f = draw_piecewise(data).antiderivative()
    bp = f.breakpoints
    seeds = np.concatenate([chebyshev_points(Interval(lo, hi), 192)
                            for lo, hi in zip(bp[:-1], bp[1:])])
    _assert_polish_paths_agree(f.jet, f.window, seeds=seeds)


@settings(max_examples=60, deadline=None)
@given(q=st.integers(3, 5), b=st.floats(0.1, 1.5),
       weights=st.lists(st.floats(-1.0, 1.0, allow_subnormal=False),
                        min_size=14, max_size=14))
def test_hinge_sup_norm_matches_golden_section(q, b, weights):
    knots = np.linspace(0.0, 2 * b, 14, endpoint=False)
    f_jet, fq2_jet = _halfconvex_family(q, b, weights, knots)
    _assert_polish_paths_agree(f_jet, Interval(-2 * b, 2 * b), floor=1024)
    _assert_polish_paths_agree(fq2_jet, Interval(-b, b), floor=1024)
    # with its reversal and its magnitudes, it makes a family
    family = np.array([weights, weights[::-1], np.abs(weights)])
    jets = _halfconvex_family(q, b, family, knots)
    members = [_halfconvex_family(q, b, w, knots) for w in family]
    for k, iv in ((0, Interval(-2 * b, 2 * b)), (1, Interval(-b, b))):
        _assert_family_is_its_members(jets[k], [m[k] for m in members], iv,
                                      floor=1024)
    # away from the knots, central differences of each row give the next
    xs = np.linspace(-2 * b, 2 * b, 41)
    xs = xs[np.abs(np.abs(xs)[:, None] - knots).min(axis=1) > 1e-3 * b]
    h = 1e-6 * b
    for jet in (f_jet, fq2_jet):
        rows = jet(xs)
        fd = (jet(xs + h) - jet(xs - h)) / (2 * h)
        for row in range(2):
            scale = max(np.abs(rows[row + 1]).max(), 1.0)
            np.testing.assert_allclose(fd[row], rows[row + 1], rtol=1e-5,
                                       atol=1e-5 * scale)


def _captured_jet(module, call):
    """The jet that call hands to the sup_norm of cotrig.<module>."""
    seen = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(f"cotrig.{module}.sup_norm",
                      lambda jet, *args, **kwargs: seen.append(jet) or 0.0)
        call()
    return seen[0]


def _of_order(obj, order, count, exact):
    """obj's jet of order `order`, and the (object, order, count, exact)
    that _jet_case gives with it."""
    return (lambda x, rows=3: obj.jet(x, rows, order)), (obj, order, count,
                                                         exact)


def _jet_case(name, request):
    """A jet of the package; the function (or derivative) whose values its
    row 0 must repeat (None where there is none); points to compare at:
    outside one period too, and every breakpoint or zone seed; and, for
    the jet of order `order` of an object, (object, order, count, exact):
    its first `count` rows must be the rows obj.jet(x, 1, order + i)[0],
    bit for bit where exact (one recursion gives every row) and to
    allclose where they come from different stored levels (a level's
    derivative series against the next level down)."""
    table = request.getfixturevalue("table")
    xs = np.linspace(-7.0, 7.0, 301)
    if name.startswith("trigpoly"):
        tp = request.getfixturevalue("random_trig")(np.random.default_rng(3), 9)
        if name == "trigpoly":
            return tp.jet, tp, xs, None
        # T^(q) at q = 3, as the sign check reads it
        jet, ordered = _of_order(tp, 3, 3, True)
        return jet, None, xs, ordered
    if name == "piecewise":
        # series of lengths 1, 2, 3 and 97 on one period
        bp = np.array([-np.pi, -1.0, 0.5, 1.0, np.pi])
        p = PiecewiseCheb(bp, centres=0.5 * (bp[:-1] + bp[1:]),
                          halves=0.5 * np.diff(bp),
                          coefficients=[[0.7], [0.3, -1.1], [0.2, 0.5, -0.4],
                                        table.cheb_coeffs], periodic=True)
        return p.jet, p, np.concatenate([xs, bp]), None
    if name == "power-kink":
        kink = PowerKink(3, 0.5)
        return kink.jet, kink, xs, None
    if name.startswith("ideal-spline"):
        sp = build_ideal_spline(3, 1.0)
        xs = np.concatenate([xs, sp.breakpoints])
        if name == "ideal-spline":
            return sp.jet, sp, xs, None
        # order r - 1: rows r - 1 and r exist as levels, row r + 1 does not
        jet, ordered = _of_order(sp, 2, 2, False)
        return jet, None, xs, ordered
    if name.startswith("smooth-spline"):
        sp = build_smooth_spline(2, 1.0, 1.0 / 12.0)
        xs = np.concatenate([xs, sp.seed_points()])
        if name == "smooth-spline":
            return sp.jet, sp, xs, None
        # order 1 <= r reads level 1, whose rows 1 and 2 are levels 1 and
        # 0; order 3 > r reads the zones' closed forms
        low = name.endswith("low")
        jet, ordered = _of_order(sp, 1, 2, False) if low \
            else _of_order(sp, 3, 3, True)
        return jet, None, xs, ordered
    if name.startswith("hinge"):
        knots = np.linspace(0.0, 1.0, 14, endpoint=False)
        f_jet, fq2_jet = _halfconvex_family(4, 0.5, np.linspace(0.2, 1.0, 14),
                                            knots)
        jet = f_jet if "fq2" not in name else fq2_jet
        jet = _mirrored(jet) if name.endswith("mirrored") else jet
        return jet, None, np.concatenate([xs, knots, -knots]), None
    if name == "step-derivative":
        j = 5
        jet = _captured_jet("mollifier", lambda: table.sup_step_derivative(j))
        step = lambda u: 2.0 / table.mass * bump_derivatives(j - 1, u)[j - 1]
        return jet, step, np.linspace(-1.0, 1.0, 2049), (table, j, 3, True)
    if name == "table":
        # S' = 2/Z psi, the first row of the recursion
        jet, ordered = _of_order(table, 1, 3, True)
        return (jet, lambda u: 2.0 / table.mass * bump(u),
                np.linspace(-1.0, 1.0, 2049), ordered)
    toy_ledger = request.getfixturevalue("toy_ledger")
    plan = plan_recursion(toy_ledger, d=1, levels=2, eps_rule="tower:2:3")
    f = build_partial_sum(plan, 2)
    xs = np.concatenate([xs, f.seed_points()])
    if name == "summand":
        # f_{n,b}^(q) at q = 3 above r = 2, as build fnb's check reads it
        jet, ordered = _of_order(f.summands[0], 3, 3, True)
        return jet, None, xs, ordered
    if name == "partial-sum-low":
        # order 1 <= r: rows 1 and 2 are the summands' levels 1 and 0
        jet, ordered = _of_order(f, 1, 2, False)
        return jet, None, xs, ordered
    # PartialSum.sup_derivative(j), at j = p above the spline degree r
    j = toy_ledger.p
    jet = _captured_jet("counterexample", lambda: f.sup_derivative(j))
    return jet, lambda x: f.jet(x, 1, j)[0], xs, (f, j, 3, True)


@pytest.mark.parametrize("name", [
    "trigpoly", "piecewise", "power-kink", "ideal-spline", "smooth-spline",
    "hinge-f", "hinge-fq2", "hinge-f-mirrored", "hinge-fq2-mirrored",
    "step-derivative", "partial-sum-high", "trigpoly-order",
    "ideal-spline-order", "smooth-spline-low", "smooth-spline-high",
    "summand", "partial-sum-low", "table"])
def test_jets_give_their_first_rows(name, request):
    # sup_norm samples row 0 of jet(x, 1) and polishes with jet(x): each
    # jet's first k rows are those of the full jet, bit for bit, and row 0
    # is the function's own value wherever the function can be called
    jet, fn, xs, ordered = _jet_case(name, request)
    rows = jet(xs)
    assert rows.shape == (3, xs.size)
    assert np.any(rows[0] != 0.0)
    for k in (1, 2):
        assert np.array_equal(jet(xs, k), rows[:k])
    if fn is not None:
        assert np.array_equal(fn(xs), rows[0])
    if ordered is not None:
        # row i of a jet of order `order` is the derivative of order
        # order + i, which jet(x, 1, order + i) reads on its own
        obj, order, count, exact = ordered
        for i in range(count):
            row = obj.jet(xs, 1, order + i)[0]
            if exact:
                assert np.array_equal(row, rows[i])
            else:
                scale = np.abs(rows[i]).max()
                np.testing.assert_allclose(row, rows[i], rtol=1e-12,
                                           atol=1e-13 * scale)
