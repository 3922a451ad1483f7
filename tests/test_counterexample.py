"""Tests for summands, exact recursion plans, and partial sums."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from cotrig.counterexample import (MIN_REALIZED_WIDTH, PartialSum,
                                   RealizabilityError, RecursionPlan,
                                   build_partial_sum, build_summand,
                                   canonical_sign_set, plan_recursion,
                                   transition_width)
from cotrig.ledger import EpsGrowthError, make_proven_ledger


def toy_plan(toy_ledger):
    return plan_recursion(toy_ledger, d=1, levels=2, eps_rule="linear")


def test_transition_width_exact(toy_ledger):
    assert transition_width(toy_ledger, 8, Fraction(1, 4)) == Fraction(1, 128)
    with pytest.raises(ValueError):
        transition_width(toy_ledger, 0, Fraction(1, 4))


def test_canonical_sign_set():
    ys = canonical_sign_set(1.0)
    assert ys.points == (-1.0, 0.0)
    assert ys.min_gap() == pytest.approx(1.0)


def test_summand_validation(toy_ledger):
    with pytest.raises(ValueError, match="need 0 < b <= d"):
        build_summand(toy_ledger, 8, 2, 1)
    with pytest.raises(ValueError, match="degree too small"):
        build_summand(toy_ledger, 2, 1, 1)
    with pytest.raises(ValueError, match="smoothing width exceeds"):
        build_summand(toy_ledger, 1, Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(RealizabilityError, match="plan-only level"):
        build_summand(toy_ledger, 10 ** 18, Fraction(1, 4), 1)


def test_summand_scaling_is_exact(toy_ledger):
    s1 = build_summand(toy_ledger, 64, Fraction(1, 4), 1)
    s2 = build_summand(toy_ledger, 128, Fraction(1, 4), 1)
    # doubling the degree quarters the amplitude (m = 2) and halves the width
    assert s1.amplitude / s2.amplitude == Fraction(4)
    assert s1.width / s2.width == Fraction(2)
    assert s1.amplitude == toy_ledger["c7"] * Fraction(1, 4) ** 4 / 64 ** 2
    xs = np.linspace(-0.5, 2.0, 9)
    assert np.allclose(s1(xs), float(s1.amplitude) * s1.spline(xs))


def test_summand_top_derivative_identity(table_ledger):
    # the closed chain makes sup |f^(p)| equal the true-to-ledger step-norm
    # ratio, which is 1 when the ledger carries the measured norms
    s = build_summand(table_ledger, 8, Fraction(1, 4), 1)
    p = table_ledger.p
    top = s.sup_derivative(p)
    assert top <= 1.0 + 1e-6
    assert top >= 1.0 - 1e-3


def test_plan_recursion_exact_oracle(toy_ledger):
    plan = toy_plan(toy_ledger)
    assert plan.levels == 2
    assert plan.n == (3, 16384, 2 ** 111)
    assert plan.b == (Fraction(1, 4), Fraction(1, 2 ** 18), Fraction(1, 2 ** 147))
    assert plan.summand_parameters(1) == (16384, Fraction(1, 4), Fraction(1, 2 ** 18))
    assert plan.summand_parameters(2) == (2 ** 111, Fraction(1, 2 ** 18),
                                          Fraction(1, 2 ** 147))
    with pytest.raises(ValueError):
        plan.summand_parameters(0)
    with pytest.raises(ValueError):
        plan.summand_parameters(3)


def test_plan_conditions_all_hold(toy_ledger):
    plan = toy_plan(toy_ledger)
    rows = plan.verify()
    assert len(rows) == 2
    assert rows[0]["cond_93"] is None
    assert rows[1]["cond_93"] is True
    assert plan.all_satisfied()


def test_plan_verify_flags_unmet_growth_condition(toy_ledger):
    plan = toy_plan(toy_ledger)
    # the linear rule's threshold at level 2 is exactly n_2 = 2^111
    short = plan.n[2] - 1
    width = toy_ledger["c6"] * plan.b[1] ** toy_ledger.r / short
    bad = RecursionPlan(ledger=toy_ledger, d=plan.d, eps_rule_name="linear",
                        n=plan.n[:2] + (short,), b=plan.b[:2] + (width,))
    row = bad.verify()[1]
    assert row["cond_92"] is False
    assert row["doubling_ok"] and row["cond_91"] and row["cond_93"]
    assert row["width_ok"]
    assert bad.all_satisfied() is False
    # the log rule cannot reach these thresholds within any budget;
    # verify() reports the condition unmet instead of raising
    slow = dataclasses.replace(plan, eps_rule_name="log")
    assert [r["cond_92"] for r in slow.verify()] == [False, False]
    assert slow.all_satisfied() is False


def test_plan_tail_bounds_exact(toy_ledger):
    plan = toy_plan(toy_ledger)
    assert plan.tail_bound(1) == Fraction(1, 2 ** 229)
    assert plan.tail_bound(2) == Fraction(1, 5 * 2 ** 443)
    with pytest.raises(ValueError):
        plan.tail_bound(0)
    with pytest.raises(ValueError):
        plan.tail_bound(3)


def test_plan_realizable_prefix(toy_ledger):
    # level 1's width clears the realization floor and level 2's does not
    plan = toy_plan(toy_ledger)
    assert float(plan.b[1]) >= MIN_REALIZED_WIDTH
    assert float(plan.b[2]) < MIN_REALIZED_WIDTH


def test_plan_validation(toy_ledger):
    with pytest.raises(ValueError):
        plan_recursion(toy_ledger, d=4, levels=1)
    with pytest.raises(ValueError):
        plan_recursion(toy_ledger, d=1, levels=0)


def test_plan_budget_overflow(toy_ledger):
    with pytest.raises(EpsGrowthError):
        plan_recursion(toy_ledger, d=1, levels=2, eps_rule="linear",
                       max_bits=20)


def test_plan_with_proven_ledger_needs_fast_rule():
    led = make_proven_ledger(3, 4, s_norms=(1, 2, 4))
    with pytest.raises(EpsGrowthError):
        plan_recursion(led, d=1, levels=1, eps_rule="log")
    plan = plan_recursion(led, d=1, levels=2, eps_rule="geometric:2")
    assert plan.all_satisfied()
    assert plan.verify()[0]["cond_93"] is None
    assert plan.verify()[1]["cond_93"] is True


def test_proven_plan_verifies_at_depth():
    # eps at the third level's degree would be 2^(2^138); verify() must
    # decide it by inverting the threshold, without materialising it
    led = make_proven_ledger(3, 4, s_norms=(1, 2, 4))
    plan = plan_recursion(led, d=2, levels=3, eps_rule="geometric:2")
    assert plan.n[3].bit_length() == 139
    assert plan.all_satisfied()


def test_plan_verify_handles_immaterial_eps(toy_ledger):
    # at this level the tower value would need tens of millions of digits;
    # verify() decides the condition by the inverted comparison instead
    plan = plan_recursion(toy_ledger, d=1, levels=2, eps_rule="tower:2:3")
    assert plan.n[2] ** 3 > 40_000_000
    assert plan.all_satisfied()


def test_partial_sum_single_level(toy_ledger):
    plan = toy_plan(toy_ledger)
    f = build_partial_sum(plan, 1)
    assert f.levels == 1
    assert f.tail_bound == Fraction(1, 2 ** 229)
    assert f.sign_set.points == (-1.0, 0.0)
    assert f.window_polynomial_residual() == 0.0
    xs = np.linspace(-0.5, 2.0, 7)
    expect = f.summands[0](xs)
    assert np.allclose(f(xs), expect)
    assert isinstance(f(0.25), float)
    ok, margin = f.membership_margin()
    assert ok
    assert margin >= -1e-15


def test_partial_sum_rejects_plan_only_levels(toy_ledger):
    plan = toy_plan(toy_ledger)
    with pytest.raises(RealizabilityError, match="level 2"):
        build_partial_sum(plan, 2)
    with pytest.raises(ValueError):
        build_partial_sum(plan, 0)
    with pytest.raises(ValueError):
        build_partial_sum(plan, 3)


def test_partial_sum_two_levels(toy_ledger):
    # the tower rule keeps the planned degrees small enough that both
    # smoothing widths stay above the realization floor
    plan = plan_recursion(toy_ledger, d=1, levels=2, eps_rule="tower:2:3")
    assert plan.n == (3, 6, 372)
    assert plan.b == (Fraction(1, 4), Fraction(1, 96), Fraction(1, 3428352))
    assert float(plan.b[2]) >= MIN_REALIZED_WIDTH
    f = build_partial_sum(plan, 2)
    assert f.levels == 2
    xs = np.linspace(-0.9, 2.0, 11)
    assert np.allclose(f(xs), f.summands[0](xs) + f.summands[1](xs))
    dj = f.jet(xs, 1, 1)[0]
    expect = sum(s.jet(xs, 1, 1)[0] for s in f.summands)
    assert np.allclose(dj, expect)
    ok, _ = f.membership_margin()
    assert ok
    # the head of the sum is polynomial-flat on the final cut window
    assert f.window_polynomial_residual() <= 1e-12


def test_partial_sum_jet_rows_are_exact(toy_ledger, monkeypatch):
    # above the spline degree the three jet rows of sup_derivative come from
    # one bump recursion per zone; they must equal the one-row derivatives
    plan = plan_recursion(toy_ledger, d=1, levels=2, eps_rule="tower:2:3")
    f = build_partial_sum(plan, 2)
    p = toy_ledger.p
    assert p > toy_ledger.r
    seen = {}

    def capture(jet, window, **kwargs):
        seen["jet"] = jet
        return 0.0

    monkeypatch.setattr("cotrig.counterexample.sup_norm", capture)
    f.sup_derivative(p)
    plateau = np.linspace(-0.9, 5.0, 17)
    for xs, zoned in ((f.seed_points(), True), (plateau, False)):
        rows = seen["jet"](xs)
        expect = np.array([f.jet(xs, 1, p + i)[0] for i in range(3)])
        assert np.array_equal(rows, expect)
        assert rows.any() == zoned
    xs = np.concatenate([f.seed_points(), plateau])
    for s in f.summands:
        rows = s.spline.jet(xs, 3, p)
        assert rows.shape == (3, xs.size)
        assert np.array_equal(s.spline.jet(xs, 1, p)[0], rows[0])
        assert np.any(rows != 0.0)


def test_partial_sum_seed_points_cover_all_zones(toy_ledger):
    plan = plan_recursion(toy_ledger, d=1, levels=2, eps_rule="tower:2:3")
    f = build_partial_sum(plan, 2)
    seeds = f.seed_points()
    for s in f.summands:
        for lo, hi in s.spline.zones():
            assert np.any((seeds >= lo) & (seeds <= hi))
