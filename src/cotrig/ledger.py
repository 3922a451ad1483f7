"""Exact-rational constants ledger and admissible growth rules.

The nested construction keeps every chained constant as an exact rational:
either conservative values carried by the underlying proofs (mode
"proven") or calibrated measurements (mode "empirical", provenance
recorded).  Growth rules map a required exact threshold to the smallest
admissible integer degree, and recursion plans are both computed and
verified by that exact threshold inversion, so no rule value eps_n is
ever materialised.  The default logarithmic rule produces degrees far
beyond any representable integer for proven constants, so integer-valued
rules are provided and a representability budget turns silent explosions
into a typed error.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

CONSTANT_KEYS = ("c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8", "c9",
                 "c10", "c_star")

# a generous cap on the bit length of any planned degree
DEFAULT_MAX_BITS = 4_000_000


class EpsGrowthError(ValueError):
    """The growth rule grows too slowly: the required degree is unrepresentable."""


def ceil_fraction(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def iroot_floor(x: int, k: int) -> int:
    """Largest n >= 0 with n**k <= x (x >= 0, k >= 1), exact Newton steps."""
    if x < 0:
        raise ValueError("iroot_floor needs a nonnegative argument")
    if x == 0 or k == 1:
        return x
    n = 1 << -(-x.bit_length() // k)
    while True:
        t = ((k - 1) * n + x // n ** (k - 1)) // k
        if t >= n:
            return n
        n = t


def iroot_ceil(x: int, k: int) -> int:
    """Smallest n >= 0 with n**k >= x (x >= 0, k >= 1), exact."""
    if x <= 0:
        return 0
    f = iroot_floor(x, k)
    return f if f ** k == x else f + 1


def ilog_threshold(base: int, x: Fraction) -> int:
    """Smallest e >= 0 with base**e >= x, exact."""
    if x <= 1:
        return 0
    num, den = x.numerator, x.denominator
    est = max(0, int((num.bit_length() - den.bit_length()) / math.log2(base)) - 2)
    e = est
    while base ** e * den < num:
        e += 1
    while e > 0 and base ** (e - 1) * den >= num:
        e -= 1
    return e


class EpsRule:
    """Monotone growth rule n -> eps_n with exact threshold inversion.

    Because eps_n is monotone in n, eps_n >= t holds exactly when
    n >= min_degree(t); the log rule inverts a certified lower bound on
    eps_n instead.  Recursion plans are both computed and verified
    by this inversion, so eps_n is never materialised: at planned
    degrees the geometric and tower values have millions of digits.
    """

    name = "abstract"

    def min_degree(self, threshold: Fraction, max_bits: int = DEFAULT_MAX_BITS) -> int:
        """Smallest n >= 1 with eps_n >= threshold.

        Raises EpsGrowthError when that degree needs more than max_bits
        bits.
        """
        raise NotImplementedError

    def _budget(self, n: int, max_bits: int) -> int:
        if n.bit_length() > max_bits:
            raise EpsGrowthError(
                f"rule '{self.name}' grows too slowly: required degree needs "
                f"{n.bit_length()} bits (budget {max_bits})")
        return n


class LogEps(EpsRule):
    """eps_n = ln(n + 2)."""

    name = "log"

    # past this threshold the required degree exceeds 1e304 and can serve
    # no computation; treat it as unrepresentable rather than grind out
    # million-digit exponentials (plans and their verification alike)
    _THRESHOLD_CAP = 700

    def _lower(self, n: int) -> Fraction:
        """Certified rational lower bound on ln(n + 2), monotone in n."""
        import mpmath

        with mpmath.workdps(80):
            v = mpmath.log(mpmath.mpf(n) + 2)
            s = mpmath.nstr(v, 45)
        val = Fraction(s)
        return val - abs(val) / 10 ** 38 - Fraction(1, 10 ** 38)

    def min_degree(self, threshold: Fraction, max_bits: int = DEFAULT_MAX_BITS) -> int:
        if threshold > self._THRESHOLD_CAP:
            raise EpsGrowthError(
                f"rule 'log' grows too slowly: the required degree is about "
                f"exp({float(threshold):.4g}), beyond any representable plan")
        if threshold <= self._lower(1):
            return 1
        t = float(threshold)
        hi = max(2, int(math.exp(min(t, 709.0))))
        while self._lower(hi) < threshold:
            hi *= 2
        lo = 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self._lower(mid) >= threshold:
                hi = mid
            else:
                lo = mid
        return self._budget(hi, max_bits)


class PowerEps(EpsRule):
    """eps_n = n**a for a fixed positive integer exponent."""

    def __init__(self, a: int):
        if a < 1:
            raise ValueError("power rule needs a positive integer exponent")
        self.a = a
        self.name = "linear" if a == 1 else f"power:{a}"

    def min_degree(self, threshold: Fraction, max_bits: int = DEFAULT_MAX_BITS) -> int:
        n = max(1, iroot_ceil(max(ceil_fraction(threshold), 1), self.a))
        return self._budget(n, max_bits)


class TowerEps(EpsRule):
    """eps_n = B**(n**e): fast enough to keep planned degrees tiny.

    e = 1 is the geometric rule eps_n = B**n, named geometric:B.
    """

    def __init__(self, base: int, expo: int):
        if base < 2 or expo < 1:
            raise ValueError("tower rule needs base >= 2 and exponent >= 1")
        self.base = base
        self.expo = expo
        self.name = f"geometric:{base}" if expo == 1 else f"tower:{base}:{expo}"

    def min_degree(self, threshold: Fraction, max_bits: int = DEFAULT_MAX_BITS) -> int:
        e_min = ilog_threshold(self.base, threshold)
        return self._budget(max(1, iroot_ceil(e_min, self.expo)), max_bits)


def parse_eps_rule(spec: str) -> EpsRule:
    """Parse 'log', 'linear', 'power:a', 'geometric:B', or 'tower:B:e'."""
    parts = spec.strip().split(":")
    head = parts[0]
    try:
        if head == "log" and len(parts) == 1:
            return LogEps()
        if head == "linear" and len(parts) == 1:
            return PowerEps(1)
        if head == "power" and len(parts) == 2:
            return PowerEps(int(parts[1]))
        if head == "geometric" and len(parts) == 2:
            return TowerEps(int(parts[1]), 1)
        if head == "tower" and len(parts) == 3:
            return TowerEps(int(parts[1]), int(parts[2]))
    except ValueError as exc:
        raise ValueError(f"bad growth rule {spec!r}: {exc}") from exc
    raise ValueError(f"unknown growth rule {spec!r}")


@dataclass(frozen=True)
class ConstantsLedger:
    """Chained constants of the nested construction, all exact rationals.

    r = q - 1 is the spline degree, m = p - r the extra smoothness margin.
    s_norms[j] is the sup norm of the j-th derivative of the smooth step.
    A ledger of either mode must hold the chain identities (_check_chain),
    so one read from an edited file raises the identity it breaks.
    """

    q: int
    p: int
    mode: str
    constants: dict
    s_norms: tuple
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.q < 3:
            raise ValueError("q must be at least 3")
        if self.p < self.q:
            raise ValueError("p must be at least q")
        if self.mode not in ("proven", "empirical"):
            raise ValueError("mode must be 'proven' or 'empirical'")
        object.__setattr__(self, "constants",
                           {k: Fraction(v) for k, v in self.constants.items()})
        object.__setattr__(self, "s_norms", tuple(Fraction(v) for v in self.s_norms))
        missing = [k for k in CONSTANT_KEYS if k not in self.constants]
        if missing:
            raise ValueError(f"ledger misses constants: {missing}")
        for k, v in self.constants.items():
            if v <= 0:
                raise ValueError(f"constant {k} must be positive, got {v}")
        if len(self.s_norms) <= self.m:
            raise ValueError("s_norms too short for the smoothness margin m")
        if self.s_norms[0] != 1:
            raise ValueError("s_norms[0] must be exactly 1")
        if self.mode == "proven":
            self._check_proven()
        elif not self.provenance:
            raise ValueError("empirical ledgers must record provenance")
        self._check_chain()

    @property
    def r(self) -> int:
        return self.q - 1

    @property
    def m(self) -> int:
        return self.p - self.r

    def __getitem__(self, key: str) -> Fraction:
        return self.constants[key]

    @property
    def gap(self) -> Fraction:
        """The calibrated sign-change gap: the default d of a summand."""
        gap = Fraction(self.provenance.get("gap", 0))
        if gap <= 0:
            raise ValueError("no gap in the ledger provenance; pass d")
        return gap

    def _check_proven(self):
        c = self.constants
        if c["c0"] > 10:
            raise ValueError("proven mode requires c0 <= 10")
        if c["c1"] < 1 / (80 * c["c0"]):
            raise ValueError("proven mode requires c1 >= 1/(80 c0)")
        if c["c_star"] != 1 / (40 * c["c0"]):
            raise ValueError("proven mode requires c_star = 1/(40 c0)")
        if c["c3"] < Fraction(1, 2 ** self.r) * c["c1"] / c["c2"]:
            raise ValueError("proven mode requires c3 >= 2^-r c1 / c2")

    def _check_chain(self):
        c = self.constants
        if c["c6"] != c["c3"] / (2 * c["c5"]):
            raise ValueError("chain identity c6 = c3/(2 c5) violated")
        if c["c7"] != c["c6"] ** self.m / self.s_norms[self.m]:
            raise ValueError("chain identity c7 = c6^m / s_m violated")
        if c["c10"] != c["c7"] * c["c3"] / 2:
            raise ValueError("chain identity c10 = c7 c3 / 2 violated")

    def chain_consistent(self) -> bool:
        try:
            self._check_chain()
            return True
        except ValueError:
            return False

    def to_dict(self) -> dict:
        return {
            "kind": "constants_ledger",
            "q": self.q,
            "p": self.p,
            "mode": self.mode,
            "constants": {k: str(v) for k, v in sorted(self.constants.items())},
            "s_norms": [str(v) for v in self.s_norms],
            "provenance": dict(sorted(self.provenance.items())),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ConstantsLedger":
        return cls(q=d["q"], p=d["p"], mode=d["mode"],
                   constants={k: Fraction(v) for k, v in d["constants"].items()},
                   s_norms=tuple(Fraction(v) for v in d["s_norms"]),
                   provenance=dict(d.get("provenance", {})))

    def content_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


# rational upper bound on pi, used where a proven constant involves pi
_PI_UPPER = Fraction(355, 113)


def _derive_chain(c: dict, s, r: int, m: int, ref: Fraction) -> dict:
    """c with c_star and c6..c10 derived exactly from c0, c3, c4 and c5,
    the step norms s and the reference cut ref of c8 and c9."""
    c6 = c["c3"] / (2 * c["c5"])
    c7 = c6 ** m / s[m]
    return {**c, "c_star": 1 / (40 * c["c0"]), "c6": c6, "c7": c7,
            "c8": max(c6 ** (m - j) * ref ** (r * (m - j)) * s[j] / s[m]
                      for j in range(m + 1)),
            "c9": c7 * ref ** (r * m) * c["c4"],
            "c10": c7 * c["c3"] / 2}


def make_proven_ledger(q: int, p: int, s_norms) -> ConstantsLedger:
    """Conservative ledger carried by the proofs.

    c2 and c4 have no pinned values in the underlying arguments (one is
    quoted from the literature, the other only asserted finite), so the
    safe values c2 = 10 and c4 = 4 are taken and recorded; the reference
    sign-change gap 31/10 freezes the b-dependent constants c8 and c9.
    """
    s = [Fraction(v) for v in s_norms]
    r, m = q - 1, p - q + 1
    if len(s) <= m:
        raise ValueError("s_norms too short for the smoothness margin m")
    c0 = Fraction(10)
    c1 = 1 / (80 * c0)
    c2 = Fraction(10)
    gap = Fraction(31, 10)
    base = {"c0": c0, "c1": c1, "c2": c2, "c3": Fraction(1, 2 ** r) * c1 / c2,
            "c4": Fraction(4), "c5": 8 * _PI_UPPER ** (r - 1)}
    constants = _derive_chain(base, s, r, m, gap)
    prov = {
        "c2": "assumed conservative bound (no pinned value available)",
        "c4": "assumed conservative bound on low-order derivative sups",
        "c5": "8 * (355/113)^(r-1), a rational upper bound of 8 pi^(r-1)",
        "c8": f"frozen at reference gap {gap}",
        "c9": f"frozen at reference gap {gap}, valid for cut parameters <= {gap}",
        "s_norms": "measured sups of the smooth step derivatives",
    }
    return ConstantsLedger(q=q, p=p, mode="proven", constants=constants,
                           s_norms=tuple(s), provenance=prov)


def make_empirical_ledger(q: int, p: int, s_norms, measured: dict,
                          gap, reference_b, provenance: dict) -> ConstantsLedger:
    """Calibrated ledger.  measured must provide c0..c5 plus c4; the chained
    constants c6, c7, c8, c9, c10 and c_star are derived exactly so every
    structural identity holds by construction.  reference_b is the largest
    cut parameter the b-dependent constants c8, c9 are calibrated for.
    """
    s = [Fraction(v) for v in s_norms]
    r, m = q - 1, p - q + 1
    if len(s) <= m:
        raise ValueError("s_norms too short for the smoothness margin m")
    c = {k: Fraction(v) for k, v in measured.items()}
    for key in ("c0", "c1", "c2", "c3", "c4", "c5"):
        if key not in c:
            raise ValueError(f"measured constants must include {key}")
    gap = Fraction(gap)
    reference_b = Fraction(reference_b)
    c = _derive_chain(c, s, r, m, reference_b)
    prov = dict(provenance)
    prov.setdefault("reference_b", str(reference_b))
    prov.setdefault("gap", str(gap))
    prov.setdefault("c9", f"valid for cut parameters b <= {reference_b}")
    return ConstantsLedger(q=q, p=p, mode="empirical", constants=c,
                           s_norms=tuple(s), provenance=prov)
