"""Nested construction: scaled summands, recursion plans, partial sums.

The construction picks a shrinking sequence of cut parameters b_k and a
superexponentially growing sequence of degrees n_k.  Each level
contributes a scaled smooth spline whose high derivatives live on tiny
disjoint zones; the partial sums stay uniformly smooth while their
constrained approximation errors are forced above a floor that beats any
admissible growth rule.

Plans are exact big-rational objects and remain computable even when the
degrees are far too large to evaluate a function at (mode "proven").  They
are both computed and verified by the growth rule's exact threshold
inversion, never by materialising eps_n at a planned degree.
Realizing a summand additionally needs its smoothing width to stay above
a hard floor, otherwise a typed error reports the level as plan-only.

Summands and partial sums read every derivative through jet(x, rows,
order); a partial sum adds its summands' jets in level order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .grids import Interval, sup_norm
from .ledger import (DEFAULT_MAX_BITS, ConstantsLedger, EpsGrowthError,
                     ceil_fraction, iroot_ceil, parse_eps_rule)
from .signsets import SignChangeSet, delta_q_membership
from .smooth import MIN_REALIZED_WIDTH, SmoothSpline, build_smooth_spline


class RealizabilityError(ValueError):
    """A planned level is too extreme to realize as a function."""


def transition_width(ledger: ConstantsLedger, n: int, b) -> Fraction:
    """Smoothing width of the level summand, c6 * b^r / n, exact."""
    if n < 1:
        raise ValueError("degree n must be a positive integer")
    return ledger["c6"] * Fraction(b) ** ledger.r / n


def canonical_sign_set(d: float) -> SignChangeSet:
    """The two sign changes -d and 0: the minimal gap d sits below zero."""
    return SignChangeSet((-d, 0.0))


@dataclass
class Summand:
    """One level of the construction: amplitude * smooth spline."""

    b: Fraction
    width: Fraction
    amplitude: Fraction
    spline: SmoothSpline

    def __call__(self, x):
        return float(self.amplitude) * self.spline(x)

    def jet(self, x, rows: int = 3, order: int = 0) -> np.ndarray:
        return float(self.amplitude) * self.spline.jet(x, rows, order)

    def sup_derivative(self, j: int) -> float:
        return float(self.amplitude) * self.spline.sup_derivative(j)

    def seed_points(self) -> np.ndarray:
        return self.spline.seed_points()

    @property
    def window(self) -> Interval:
        return self.spline.window


def build_summand(ledger: ConstantsLedger, n: int, b, d) -> Summand:
    """Scaled smooth spline c7 (b^rm / n^m) * spline(r, d, lambda_{n,b})."""
    b = Fraction(b)
    d_frac = Fraction(d)
    if not 0 < b <= d_frac:
        raise ValueError("need 0 < b <= d")
    if Fraction(n) < 3 * ledger["c6"] * b ** ledger.r:
        raise ValueError("degree too small: need n >= 3 c6 b^r")
    lam = transition_width(ledger, n, b)
    if lam > d_frac / 3:
        raise ValueError("smoothing width exceeds d/3")
    if float(lam) < MIN_REALIZED_WIDTH:
        raise RealizabilityError(
            f"plan-only level: smoothing width {float(lam):.3e} is below "
            f"the realization floor {MIN_REALIZED_WIDTH:.0e}")
    amplitude = ledger["c7"] * b ** (ledger.r * ledger.m) / Fraction(n) ** ledger.m
    spline = build_smooth_spline(ledger.r, float(d_frac), float(lam))
    return Summand(b=b, width=lam, amplitude=amplitude, spline=spline)


def rows_satisfied(rows) -> bool:
    """Whether every condition in rows from RecursionPlan.verify() holds
    (cond_93 is None on the first level, where it does not apply)."""
    return all(row["doubling_ok"] and row["cond_91"] and row["cond_92"]
               and row["width_ok"] and row["cond_93"] is not False
               for row in rows)


@dataclass(frozen=True)
class RecursionPlan:
    """Exact plan (n_1..n_{K+1}, b_1..b_{K+1}) for K levels.

    Level k's summand uses degree n_{k+1} and cut b_k; its smoothing
    width equals b_{k+1} by construction.
    """

    ledger: ConstantsLedger
    d: Fraction
    eps_rule_name: str
    n: tuple
    b: tuple

    def __post_init__(self):
        if len(self.n) != len(self.b) or len(self.n) < 2:
            raise ValueError("plan needs matching n and b sequences, >= 2 entries")

    @property
    def levels(self) -> int:
        return len(self.n) - 1

    def summand_parameters(self, k: int):
        """(degree, cut, width) of level k, 1-based."""
        if not 1 <= k <= self.levels:
            raise ValueError(f"level {k} outside 1..{self.levels}")
        return self.n[k], self.b[k - 1], self.b[k]

    def verify(self) -> list:
        """Re-check every planned level against the exact conditions."""
        led = self.ledger
        r, m = led.r, led.m
        c6, c9, c10 = led["c6"], led["c9"], led["c10"]
        rule = parse_eps_rule(self.eps_rule_name)
        rows = []
        for k in range(1, self.levels + 1):
            n_cur, n_next = self.n[k - 1], self.n[k]
            b_k = self.b[k - 1]
            threshold = Fraction(k) / (c10 * b_k ** (r * (m + 1)))
            try:
                # with a budget that holds n_next, a growth error means
                # the rule needs a degree above n_next
                ok_92 = n_next >= rule.min_degree(
                    threshold, max(DEFAULT_MAX_BITS, n_next.bit_length()))
            except EpsGrowthError:
                ok_92 = False
            row = {
                "level": k,
                "n": n_cur,
                "n_next": n_next,
                "b": str(b_k),
                "doubling_ok": n_next >= 2 * n_cur,
                "cond_91": 3 * c6 * b_k ** r < b_k * n_next,
                "cond_92": ok_92,
                "cond_93": None,
                "width_ok": self.b[k] == c6 * b_k ** r / n_next,
            }
            if k >= 2:
                lhs = 10 * c9 * Fraction(n_cur) ** (m + 1)
                rhs = c10 * self.b[k - 2] ** (r * (m + 1)) * Fraction(n_next) ** m
                row["cond_93"] = lhs <= rhs
            rows.append(row)
        return rows

    def all_satisfied(self) -> bool:
        return rows_satisfied(self.verify())

    def tail_bound(self, K: int) -> Fraction:
        """Upper bound on the norm sum of all levels beyond K.

        Uses the geometric-sum form 2 c9 / n_{K+2}^m when the plan holds
        one level beyond K, otherwise the equivalent floor-relative form
        c10 b_K^{r(m+1)} / (5 n_{K+1}^{m+1}).
        """
        if not 1 <= K <= self.levels:
            raise ValueError(f"K={K} outside 1..{self.levels}")
        led = self.ledger
        if K + 1 <= self.levels:
            return 2 * led["c9"] / Fraction(self.n[K + 1]) ** led.m
        return (led["c10"] * self.b[K - 1] ** (led.r * (led.m + 1))
                / (5 * Fraction(self.n[K]) ** (led.m + 1)))


def plan_recursion(ledger: ConstantsLedger, d, levels: int,
                   eps_rule: str = "log",
                   max_bits: int = DEFAULT_MAX_BITS) -> RecursionPlan:
    """Choose each n_{k+1} as the smallest admissible integer, exactly.

    Every condition is monotone in n_{k+1}, so the minimum over the exact
    per-condition thresholds is the smallest integer satisfying all of
    them; the growth-rule threshold is inverted by the rule itself.
    eps_rule is a name parse_eps_rule reads, as verify() re-reads it.
    """
    rule = parse_eps_rule(eps_rule)
    d = Fraction(d)
    if not 0 < d <= Fraction(355, 113):
        raise ValueError("need 0 < d <= pi for a minimal gap")
    if levels < 1:
        raise ValueError("levels must be >= 1")
    r, m = ledger.r, ledger.m
    c6, c9, c10 = ledger["c6"], ledger["c9"], ledger["c10"]
    n = [max(1, ceil_fraction(3 * c6 * d ** r))]
    b = [d / 4]
    for k in range(1, levels + 1):
        b_k = b[k - 1]
        x91 = 3 * c6 * b_k ** (r - 1)
        candidate = max(
            2 * n[k - 1],
            x91.numerator // x91.denominator + 1,
            rule.min_degree(Fraction(k) / (c10 * b_k ** (r * (m + 1))), max_bits),
        )
        if k >= 2:
            x93 = (10 * c9 * Fraction(n[k - 1]) ** (m + 1)
                   / (c10 * b[k - 2] ** (r * (m + 1))))
            candidate = max(candidate, iroot_ceil(ceil_fraction(x93), m))
        if candidate.bit_length() > max_bits:
            raise EpsGrowthError(
                f"planned degree at level {k} needs {candidate.bit_length()} "
                f"bits (budget {max_bits})")
        n.append(candidate)
        b.append(c6 * b_k ** r / candidate)
    return RecursionPlan(ledger=ledger, d=d, eps_rule_name=rule.name,
                         n=tuple(n), b=tuple(b))


@dataclass
class PartialSum:
    """Sum of the first K realized summands, plus the exact tail bound."""

    summands: tuple
    ledger: ConstantsLedger
    tail_bound: Fraction
    sign_set: SignChangeSet
    plan: RecursionPlan = field(repr=False)

    @property
    def levels(self) -> int:
        return len(self.summands)

    @property
    def window(self) -> Interval:
        return self.summands[0].window

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        values = self.jet(x, 1)[0]
        return float(values[0]) if x.ndim == 0 else values.reshape(x.shape)

    def jet(self, x, rows: int = 3, order: int = 0) -> np.ndarray:
        """Rows f^(order), ..., f^(order+rows-1) at the flat points x, the
        summands' jets added in level order."""
        total = np.zeros((rows, np.size(x)))
        for s in self.summands:
            total = total + s.jet(x, rows, order)
        return total

    def seed_points(self) -> np.ndarray:
        return np.unique(np.concatenate([s.seed_points() for s in self.summands]))

    def sup_derivative(self, j: int) -> float:
        """Sup of |f^(j)|, Newton-polished by the rows f^(j), f^(j+1) and
        f^(j+2) of the jet (above r, one bump recursion per zone)."""
        return sup_norm(lambda x, rows=3: self.jet(x, rows, j), self.window,
                        seeds=self.seed_points(), floor=4096)

    def membership_margin(self):
        """(is member, worst signed margin) of the q-th derivative test."""
        q = self.ledger.q
        return delta_q_membership(lambda x: self.jet(x, 1, q)[0],
                                  self.sign_set, extra_points=self.seed_points())

    def window_polynomial_residual(self) -> float:
        """Max deviation of the sum without its last level from a degree-r
        polynomial on the final window [-b_K, b_K]."""
        if self.levels == 1:
            return 0.0
        r = self.ledger.r
        b_last = float(self.summands[-1].b)
        head = replace(self, summands=self.summands[:-1])
        us = np.cos(np.linspace(0.0, np.pi, 8 * r + 64))
        coef = np.polynomial.polynomial.polyfit(us, head(b_last * us), r)
        uu = np.cos(np.linspace(0.0, np.pi, 2049))
        resid = head(b_last * uu) - np.polynomial.polynomial.polyval(uu, coef)
        return float(np.max(np.abs(resid)))


def build_partial_sum(plan: RecursionPlan, K: int) -> PartialSum:
    """Realize the first K levels of a plan as an actual function."""
    if not 1 <= K <= plan.levels:
        raise ValueError(f"K={K} outside 1..{plan.levels}")
    summands = []
    for k in range(1, K + 1):
        n_k, b_k, width = plan.summand_parameters(k)
        try:
            s = build_summand(plan.ledger, n_k, b_k, plan.d)
        except RealizabilityError as exc:
            raise RealizabilityError(f"level {k}: {exc}") from exc
        if s.width != width:
            raise AssertionError("planned and realized widths disagree")
        summands.append(s)
    return PartialSum(summands=tuple(summands), ledger=plan.ledger,
                      tail_bound=plan.tail_bound(K),
                      sign_set=canonical_sign_set(float(plan.d)), plan=plan)
