"""Tests for exact integer helpers, growth rules, and the constants ledger."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cotrig.ledger import (ConstantsLedger, EpsGrowthError, LogEps,
                           PowerEps, TowerEps, ilog_threshold, iroot_ceil,
                           iroot_floor, make_empirical_ledger,
                           make_proven_ledger, parse_eps_rule)


def test_iroot_floor_exact_and_big():
    assert iroot_floor(0, 3) == 0
    assert iroot_floor(26, 3) == 2
    assert iroot_floor(27, 3) == 3
    assert iroot_floor(28, 3) == 3
    big = (10 ** 50 + 3) ** 4
    assert iroot_floor(big, 4) == 10 ** 50 + 3
    assert iroot_floor(big - 1, 4) == 10 ** 50 + 2
    with pytest.raises(ValueError):
        iroot_floor(-1, 2)


def test_iroot_ceil():
    assert iroot_ceil(0, 2) == 0
    assert iroot_ceil(27, 3) == 3
    assert iroot_ceil(28, 3) == 4
    assert iroot_ceil((7 ** 5) + 1, 5) == 8


def test_ilog_threshold():
    assert ilog_threshold(2, Fraction(1)) == 0
    assert ilog_threshold(2, Fraction(1025)) == 11
    assert ilog_threshold(2, Fraction(1024)) == 10
    assert ilog_threshold(3, Fraction(82)) == 5
    assert ilog_threshold(10, Fraction(1, 7)) == 0


def test_power_rule():
    lin = PowerEps(1)
    assert lin.name == "linear"
    assert lin.min_degree(Fraction(5)) == 5
    sq = PowerEps(2)
    assert sq.name == "power:2"
    assert sq.min_degree(Fraction(10)) == 4
    assert sq.min_degree(Fraction(9)) == 3
    with pytest.raises(ValueError):
        PowerEps(0)


def test_geometric_rule():
    # the geometric rule B**n is the tower rule with exponent 1
    geo = parse_eps_rule("geometric:2")
    assert geo.name == "geometric:2"
    assert (geo.base, geo.expo) == (2, 1)
    assert geo.min_degree(Fraction(9)) == 4
    assert geo.min_degree(Fraction(8)) == 3
    assert geo.min_degree(Fraction(1, 2)) == 1
    with pytest.raises(ValueError, match="base >= 2"):
        parse_eps_rule("geometric:1")


def test_tower_rule():
    tow = TowerEps(2, 2)
    assert tow.name == "tower:2:2"
    assert tow.min_degree(Fraction(513)) == 4
    assert tow.min_degree(Fraction(512)) == 3
    with pytest.raises(ValueError):
        TowerEps(1, 1)


def test_log_rule():
    log = LogEps()
    # eps_1 = ln 3 ~ 1.0986: the certified inversion brackets it tightly
    assert log.min_degree(Fraction(10985, 10000)) == 1
    assert log.min_degree(Fraction(10987, 10000)) == 2
    assert log.min_degree(Fraction(2)) == 6
    assert log.min_degree(Fraction(1, 10)) == 1
    with pytest.raises(EpsGrowthError):
        log.min_degree(Fraction(800))


_RULES = st.one_of(
    st.builds(PowerEps, st.integers(1, 3)),
    st.builds(TowerEps, st.integers(2, 5), st.just(1)),
    st.builds(TowerEps, st.integers(2, 3), st.integers(1, 3)),
)


def _exact_eps(rule, n: int) -> int:
    if isinstance(rule, PowerEps):
        return n ** rule.a
    return rule.base ** (n ** rule.expo)


@given(rule=_RULES, n=st.integers(1, 12), m=st.integers(1, 12),
       shift=st.sampled_from([Fraction(-1, 7), Fraction(0), Fraction(1, 7)]))
def test_min_degree_inverts_rule_exactly(rule, n, m, shift):
    # n >= min_degree(t) must hold exactly when eps_n >= t; thresholds sit
    # on and just beside the exact value eps_m
    t = _exact_eps(rule, m) + shift
    assert (n >= rule.min_degree(t)) == (_exact_eps(rule, n) >= t)


def test_degree_budget():
    with pytest.raises(EpsGrowthError):
        PowerEps(1).min_degree(Fraction(2 ** 100), max_bits=50)
    assert PowerEps(1).min_degree(Fraction(2 ** 100), max_bits=200) == 2 ** 100


def test_parse_eps_rule():
    assert parse_eps_rule("log").name == "log"
    assert parse_eps_rule("linear").name == "linear"
    assert parse_eps_rule("power:3").name == "power:3"
    assert parse_eps_rule("geometric:5").name == "geometric:5"
    assert parse_eps_rule(" tower:2:3 ").name == "tower:2:3"
    for bad in ("cubic", "power", "power:x", "tower:2", "log:3"):
        with pytest.raises(ValueError):
            parse_eps_rule(bad)


def test_proven_ledger_values():
    led = make_proven_ledger(3, 4, s_norms=(1, 2, 4))
    assert led.mode == "proven"
    assert led.r == 2 and led.m == 2
    assert led["c0"] == 10
    assert led["c1"] == Fraction(1, 800)
    assert led["c_star"] == Fraction(1, 400)
    # c3 = 2^-2 * c1 / c2 with c2 = 10
    assert led["c3"] == Fraction(1, 32000)
    # c5 = 8 * (355/113)
    assert led["c5"] == Fraction(8 * 355, 113)
    assert led["c6"] == led["c3"] / (2 * led["c5"])
    assert led["c7"] == led["c6"] ** 2 / led.s_norms[2]
    assert led["c10"] == led["c7"] * led["c3"] / 2
    assert led.chain_consistent()


def test_empirical_ledger_round_numbers(toy_ledger):
    led = toy_ledger
    assert led["c6"] == 1
    assert led["c7"] == Fraction(1, 4)
    assert led["c8"] == 1
    assert led["c9"] == Fraction(1, 256)
    assert led["c10"] == Fraction(1, 4)
    assert led["c_star"] == Fraction(1, 80)
    assert led.chain_consistent()
    assert led.provenance["reference_b"] == "1/4"


def test_ledger_validation_modes():
    base = dict(q=3, p=4, s_norms=(1, 2, 4),
                measured={"c0": 2, "c1": 1, "c2": 1, "c3": 1, "c4": 1, "c5": 1},
                gap=1, reference_b=1)
    ok = make_empirical_ledger(**base, provenance={"src": "test"})
    assert ok.mode == "empirical"
    # the factory records calibration defaults even when none are given
    filled = make_empirical_ledger(**base, provenance={})
    assert filled.provenance["reference_b"] == "1"
    with pytest.raises(ValueError, match="record provenance"):
        ConstantsLedger(q=3, p=4, mode="empirical", constants=ok.constants,
                        s_norms=ok.s_norms, provenance={})
    with pytest.raises(ValueError):
        make_empirical_ledger(q=2, p=4, s_norms=(1, 2, 4),
                              measured=base["measured"], gap=1, reference_b=1,
                              provenance={"src": "t"})
    with pytest.raises(ValueError):
        make_empirical_ledger(q=4, p=3, s_norms=(1, 2, 4),
                              measured=base["measured"], gap=1, reference_b=1,
                              provenance={"src": "t"})
    with pytest.raises(ValueError):
        make_empirical_ledger(q=3, p=4, s_norms=(1, 2),
                              measured=base["measured"], gap=1, reference_b=1,
                              provenance={"src": "t"})
    with pytest.raises(ValueError):
        make_empirical_ledger(q=3, p=4, s_norms=(2, 2, 4),
                              measured=base["measured"], gap=1, reference_b=1,
                              provenance={"src": "t"})
    bad = dict(base["measured"])
    bad["c3"] = 0
    with pytest.raises(ValueError):
        make_empirical_ledger(q=3, p=4, s_norms=(1, 2, 4), measured=bad,
                              gap=1, reference_b=1, provenance={"src": "t"})
    missing = {k: v for k, v in base["measured"].items() if k != "c5"}
    with pytest.raises(ValueError):
        make_empirical_ledger(q=3, p=4, s_norms=(1, 2, 4), measured=missing,
                              gap=1, reference_b=1, provenance={"src": "t"})


def test_proven_mode_guards():
    led = make_proven_ledger(3, 4, s_norms=(1, 2, 4))
    broken = dict(led.constants)
    broken["c0"] = Fraction(11)
    with pytest.raises(ValueError):
        ConstantsLedger(q=3, p=4, mode="proven", constants=broken,
                        s_norms=led.s_norms)
    broken = dict(led.constants)
    broken["c_star"] = Fraction(1, 399)
    with pytest.raises(ValueError):
        ConstantsLedger(q=3, p=4, mode="proven", constants=broken,
                        s_norms=led.s_norms)
    with pytest.raises(ValueError):
        ConstantsLedger(q=3, p=4, mode="frozen", constants=dict(led.constants),
                        s_norms=led.s_norms)


def test_ledger_round_trip_and_hash(toy_ledger):
    d = toy_ledger.to_dict()
    clone = ConstantsLedger.from_dict(d)
    assert clone["c10"] == toy_ledger["c10"]
    assert clone.content_hash() == toy_ledger.content_hash()
    assert len(toy_ledger.content_hash()) == 16
    # constants serialize as exact strings
    assert d["constants"]["c9"] == "1/256"


def test_ledger_hashes_are_pinned(toy_ledger):
    # every derived constant, provenance entry and s_norm feeds the hash
    proven = make_proven_ledger(3, 4, s_norms=(1, 2, 4))
    assert proven.content_hash() == "c76b5625b8431917"
    assert toy_ledger.content_hash() == "5af09a6848b183b2"


def test_getitem_and_as_float(toy_ledger):
    assert toy_ledger["c6"] == Fraction(1)


def test_gap_is_the_calibrated_sign_change_gap(toy_ledger):
    # the default d of summands, partial sums and lemma-aux
    assert toy_ledger.gap == Fraction(1)
    proven = make_proven_ledger(3, 4, s_norms=(1, 2, 4))
    edited = ConstantsLedger.from_dict(
        dict(toy_ledger.to_dict(),
             provenance=dict(toy_ledger.provenance, gap="0")))
    for ledger in (proven, edited):
        with pytest.raises(ValueError,
                           match="^no gap in the ledger provenance; pass d$"):
            ledger.gap
