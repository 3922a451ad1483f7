"""Seeded inputs for the benchmark workloads.

Every workload is a list of cases drawn from ``--seed``; the same seed
gives the same cases.  A case is plain data: the argument vector of one
``cotrig`` command (or the arguments of one ``window_floor_solve`` call)
plus what the answer checker needs to know about it.  Nothing here
imports ``cotrig``.

Each workload has two lists.  ``cases`` is its full grid, one draw: the
census (``run.py --census``) runs it once and reports every verdict,
failures included.  ``timed_cases`` is one pass of a timed run, which
repeats it: operations of the grid that complete with a checked answer
on every draw, some of them over several draws.  ``windows`` has no
timed list: on the commit the benchmark was defined on, every one of its
operations fails or returns a rejected answer.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

WORKLOADS = ("theorems", "windows", "growth", "counterexample")

WHY = {
    "theorems": "thm-12/13 ideal-spline solves at q=3 on the full period; "
                "a constrained solve spends nearly all its time in the "
                "minimax LP (L3)",
    "windows": "narrow-window LPs of calibrate and lemma-aux, where trig and "
               "monomial columns are nearly dependent (L3 robustness)",
    "growth": "bernstein and lemma-3111 experiments: sup norms and TrigPoly "
              "evaluation (L2) with no LP call, so an LP change must not "
              "move it",
    "counterexample": "exact recursion plans, their verification and spline "
                      "builds (L0, L1, L4) with no LP call",
}

# Constants of the test-suite ledgers (tests/conftest.py).
TOY_MEASURED = {"c0": "2", "c1": "1/10", "c2": "10", "c3": "2", "c4": "4",
                "c5": "1"}
TOY_S_NORMS = ["1", "2", "4", "8", "16"]
TABLE_MEASURED = {"c0": "4", "c1": "2/5", "c2": "4", "c3": "1/100",
                  "c4": "4", "c5": "60"}
PROVEN_S_NORMS = ["1", "2", "4"]

# ---------------------------------------------------------------------------
# stated jitter ranges

THEOREM_Y = (0.45, 0.75)          # sign changes at -y, y; b = 2y
THEOREM_TIMED_Y = 0.6
# (r, n, constrained) that return checked answers on every draw; the
# unconstrained full-period solves miss the kinks at -b and 0 and
# under-report their error, and n = 32 hits the iteration limit.  The
# ideal:2, n = 16 constrained solve also passes but takes 2 s, which
# leaves a run too few repeats of it to see past outside load.
THEOREM_TIMED = ((1, 8, True), (1, 16, True), (2, 8, True), (2, 8, False))
WINDOW_JITTER = 0.05              # b = b0 * (1 + u), |u| <= 5 %
# bernstein's hill climb runs for as long as its start draw makes it (0.45
# to 0.85 s at n = 4), so the timed bernstein operation keeps a fixed
# experiment seed; lemma-3111 costs the same on every draw
GROWTH_BERNSTEIN_SEEDS = (1,)
GROWTH_LEMMA_DRAWS = 2
COUNTER_D = ("1", "3/4", "5/4")   # gap of the cheap builds
COUNTER_FNB_B = ("1/4", "1/5", "1/6")
COUNTER_LAMBDA = ("1/12", "1/10", "1/14")


def _rng(workload: str, seed) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _num(x: float) -> str:
    return repr(float(x))


def _case(key, kind, check, argv=None, call=None):
    return {"key": key, "kind": kind, "argv": argv, "call": call,
            "check": check}


def _theorem_case(r, n, constrained, b, tag=""):
    argv = ["solve", "--target", f"ideal:{r}:{_num(b)}", "--degree", str(n)]
    cons = None
    if constrained:
        # the sign set thm-12/13 solve with: canonical points -b and 0
        argv += ["--q", "3", "--Y", _num(-b), "0.0"]
        cons = {"q": 3, "points": [-b, 0.0]}
    check = {"type": "solve", "n": n,
             "target": {"kind": "ideal", "r": r, "b": b},
             "domain": [-math.pi, math.pi], "constraint": cons,
             "kinks": [-b, 0.0]}
    mode = "con" if constrained else "unc"
    return _case(f"{tag}ideal:{r}/n{n}/{mode}", "cli", check, argv=argv)


def theorem_cases(seed: int) -> list:
    """thm-12 (ideal:1:b) and thm-13 (ideal:2:b) targets at q = 3, with
    sign changes -y, y; b = 2y is their minimal gap."""
    y = _rng("theorems", seed).uniform(*THEOREM_Y)
    return [_theorem_case(r, n, constrained, 2.0 * y)
            for r in (1, 2) for n in (8, 16, 32) for constrained in (True, False)]


def theorem_timed(seed: int) -> list:
    """The constrained and unconstrained solves that return checked
    answers, at the fixed y = THEOREM_TIMED_Y; the seed orders them.
    A solve's time is chaotic in y (the LP's pivot path is): moving y by
    5e-4 moves the ideal:2, n = 16 constrained solve between 1.4 and
    2.4 s, so a seeded y would make the run's time a draw, not a
    measurement."""
    out = [_theorem_case(r, n, con, 2.0 * THEOREM_TIMED_Y)
           for r, n, con in THEOREM_TIMED]
    _rng("theorems", seed).shuffle(out)
    return out


def window_cases(seed: int) -> list:
    """(a) window_floor_solve on F_r with a free degree-r polynomial part;
    (b) lemma-mod kink cells, unconstrained F1 on [-b, b]."""
    rng = _rng("windows", seed)
    cases = []
    for q in (3, 4):
        r = q - 1
        for b0 in (Fraction(1, 4), Fraction(1, 8), Fraction(1, 16),
                   Fraction(1, 32)):
            b = float(b0) * (1.0 + rng.uniform(-WINDOW_JITTER, WINDOW_JITTER))
            for n in (4, 8, 16, 32):
                call = {"n": n, "q": q, "b": b, "r": r}
                check = {"type": "window_floor", "n": n, "q": q, "b": b,
                         "r": r}
                cases.append(_case(f"floor/q{q}/b{b0}/n{n}", "window_floor",
                                   check, call=call))
    for b0 in (Fraction(1, 4), Fraction(1, 2), Fraction(1)):
        b = float(b0) * (1.0 + rng.uniform(-WINDOW_JITTER, WINDOW_JITTER))
        for n in (8, 16, 32):
            argv = ["solve", "--target", "F1", "--domain", _num(-b), _num(b),
                    "--degree", str(n)]
            check = {"type": "solve", "n": n,
                     "target": {"kind": "abs_power", "r": 1},
                     "domain": [-b, b], "constraint": None, "kinks": [0.0]}
            cases.append(_case(f"kink/b{b0}/n{n}", "cli", check, argv=argv))
    return cases


def _bernstein(n_list, seed, tag=""):
    argv = ["experiment", "bernstein", "--b", "1", "--n", *map(str, n_list),
            "--trials", "40", "--seed", str(seed)]
    key = f"{tag}bernstein/n{','.join(map(str, n_list))}"
    return _case(key, "cli", {"type": "experiment"}, argv=argv)


def _lemma_3111(seed, tag=""):
    argv = ["experiment", "lemma-3111", "--q", "3", "--b", "0.5",
            "--trials", "40", "--seed", str(seed)]
    return _case(f"{tag}lemma-3111", "cli", {"type": "experiment"}, argv=argv)


def growth_cases(seed: int) -> list:
    """bernstein (b = 1, n = 4, 8, 16) and lemma-3111 (q = 3, b = 1/2),
    40 trials each, with seeds drawn from the workload seed."""
    rng = _rng("growth", seed)
    return [_bernstein((4, 8, 16), rng.randrange(1, 10 ** 6)),
            _lemma_3111(rng.randrange(1, 10 ** 6))]


def growth_timed(seed: int) -> list:
    """bernstein at n = 4 only: the hill climb at n = 8 and 16 takes 1.5
    to 11 s depending on the draw, too uneven to average in one run.
    The bernstein operation keeps a fixed experiment seed, so that a run's
    time does not depend on how long a drawn hill climb happens to be;
    lemma-3111 takes its experiment seeds from the workload seed, which
    also orders the operations.  A pass is kept short (about 0.7 s), so
    that a run repeats each operation often enough for its best latency
    to see past bursts of outside load.  Every pass repeats the same
    operations, so the reports can be compared."""
    rng = _rng("growth", seed)
    out = [_bernstein((4,), s, f"seed{s}/") for s in GROWTH_BERNSTEIN_SEEDS]
    out += [_lemma_3111(rng.randrange(1, 10 ** 6), f"draw{i}/")
            for i in range(GROWTH_LEMMA_DRAWS)]
    rng.shuffle(out)
    return out


def _build(key, argv):
    return _case(key, "cli", {"type": "build", "kind": argv[1]}, argv=argv)


def _proven_partial_sum(d):
    # d is fixed: the plan's degrees, and so the verify time, grow fast
    # as d shrinks (0.55 s at d = 2, 1.5 s at 3/2, 2.9 s at 5/4, 6.7 s at
    # 1, 81 s at 1/2)
    return _build(f"partial-sum/proven/d{d}",
                  ["build", "partial-sum", "--ledger", "{ledger:proven}",
                   "--K", "1", "--eps-rule", "geometric:2", "--d", d])


def _cheap_builds(rng, tag="", table_rule="linear"):
    d = rng.choice(COUNTER_D)
    return [
        _build(f"{tag}partial-sum/toy",
               ["build", "partial-sum", "--ledger", "{ledger:toy}", "--K", "2",
                "--eps-rule", "tower:2:3", "--d", d]),
        _build(f"{tag}partial-sum/table/{table_rule}",
               ["build", "partial-sum", "--ledger", "{ledger:table}", "--K",
                "1", "--eps-rule", table_rule, "--d", d]),
        _build(f"{tag}fnb",
               ["build", "fnb", "--ledger", "{ledger:table}", "--n", "16",
                "--b", rng.choice(COUNTER_FNB_B), "--d", d]),
        _build(f"{tag}smooth",
               ["build", "smooth", "--r", "2", "--d", "1", "--lam",
                rng.choice(COUNTER_LAMBDA)]),
    ]


def counterexample_cases(seed: int) -> list:
    """Partial sums over three ledgers, one scaled summand, one smooth
    spline.  Ledger paths are placeholders the worker fills in."""
    return [_proven_partial_sum("1")] + _cheap_builds(
        _rng("counterexample", seed))


def counterexample_timed(seed: int) -> list:
    """The table ledger's linear rule plans a level too thin to realise
    (a typed RealizabilityError), so the timed builds use tower:2:3.  The
    proven-ledger plan runs at d = 2 and the cheap builds are drawn once,
    so that a pass stays short (about 0.8 s) and a run repeats every
    operation often enough to see past bursts of outside load."""
    rng = _rng("counterexample", seed)
    return [_proven_partial_sum("2")] + _cheap_builds(
        rng, "d0/", table_rule="tower:2:3")


CASES = {
    "theorems": theorem_cases,
    "windows": window_cases,
    "growth": growth_cases,
    "counterexample": counterexample_cases,
}

TIMED = {
    "theorems": theorem_timed,
    "growth": growth_timed,
    "counterexample": counterexample_timed,
}


def cases(workload: str, seed: int) -> list:
    """The census cases of a workload: its full grid, one draw."""
    if workload not in CASES:
        raise ValueError(f"unknown workload {workload!r}; choose one of "
                         f"{', '.join(WORKLOADS)}")
    return CASES[workload](seed)


def timed_cases(workload: str, seed: int) -> list:
    """The operations of one pass of a timed run."""
    if workload not in TIMED:
        raise ValueError(f"workload {workload!r} has no timed cases; "
                         f"timed workloads: {', '.join(TIMED)}")
    return TIMED[workload](seed)
