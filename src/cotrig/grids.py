"""Intervals, Chebyshev sampling grids, and the one sup-norm routine.

Every sup norm in this package goes through sup_norm, and every function
it measures is given as one callable, its jet: jet(x, rows=3) returns the
first `rows` of f, f', f'' at the flat points x, shape (rows, x.size).
Trigonometric polynomials, ideal and mollified splines, summands and
partial sums read their derivatives through one accessor,
obj.jet(x, rows=3, order=0), the rows f^(order), ..., f^(order+rows-1);
the jet of f^(j) handed to sup_norm is
lambda x, rows=3: obj.jet(x, rows, j).  The mollifier table's jet is the
same accessor starting at the step's first derivative (order=1).  A
piecewise Chebyshev series, PowerKink and lemma-3111's hinge sums take
rows only: jet(x, rows=3) is their order-0 jet.  All of them know these
rows in closed form.

sup_norm samples |f| (the jet's row 0) on Chebyshev-distributed points of
the interval (clustered at the endpoints, where the kinks of the target
functions sit), merges in any seed points the caller knows about
(breakpoints, per-piece or per-zone Chebyshev points), and polishes every
local maximum of the samples and both endpoints inside the bracket of
their neighbouring samples.  A flat run of equal samples counts as one
maximum, polished at its two ends.  The polish takes safeguarded Newton
steps on f' = 0 with the full jet (Boyd, "Computing the zeros, maxima and
inflection points of Chebyshev, Legendre and Fourier series", J. Eng.
Math. 56, 2006), with bisection wherever a Newton step leaves its
sub-bracket, so a jump of f' at a breakpoint or knot is bisected down to
a few ulps.  The result is the largest |f| seen, so polishing never
lowers the sampled maximum.  golden_refine_max, golden-section search on
the same brackets of a plain f, is kept as an independent reference for
the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

# Samples per unit of the degree hint: a trig polynomial of degree n has
# at most 2n extrema a period, so 20 samples a degree put several samples
# on every lobe and each maximum inside the bracket of its sample.
SUP_POINTS_PER_DEGREE = 20

_INV_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
_EPS = np.finfo(float).eps
# Newton steps per bracket: bisection alone takes a bracket 2 pi wide
# below 4 ulps of 1 in 53 steps
_MAX_STEPS = 64


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi], at most one full period wide."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ValueError("interval endpoints must be finite")
        if not self.lo < self.hi:
            raise ValueError(f"empty interval [{self.lo!r}, {self.hi!r}]")
        if self.hi - self.lo > TWO_PI * (1.0 + 1e-12):
            raise ValueError("interval may not exceed one period (2*pi)")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def clip(self, x):
        return np.clip(x, self.lo, self.hi)


FULL_PERIOD = Interval(-np.pi, np.pi)


def chebyshev_points(interval: Interval, count: int, open_ends: bool = False) -> np.ndarray:
    """Chebyshev-distributed points on the interval, ascending.

    Closed variant includes the endpoints (extrema nodes); the open variant
    uses first-kind nodes, which stay strictly inside the interval.
    """
    if count < 2:
        raise ValueError("need at least two points")
    mid, half = interval.midpoint, 0.5 * interval.width
    if open_ends:
        theta = np.pi * (2.0 * np.arange(count) + 1.0) / (2.0 * count)
    else:
        theta = np.pi * np.arange(count) / (count - 1.0)
    return mid + half * np.cos(theta[::-1])


def golden_refine_max(f, lo: np.ndarray, hi: np.ndarray, rounds: int) -> np.ndarray:
    """Vectorised golden-section maximisation of |f| on bracket arrays.

    Returns the best |f| value found in each bracket.  The brackets are
    treated independently; f must accept an ndarray.
    """
    lo = np.asarray(lo, dtype=float).copy()
    hi = np.asarray(hi, dtype=float).copy()
    x1 = hi - _INV_GOLDEN * (hi - lo)
    x2 = lo + _INV_GOLDEN * (hi - lo)
    f1 = np.abs(f(x1))
    f2 = np.abs(f(x2))
    for _ in range(rounds):
        move_right = f1 < f2
        lo = np.where(move_right, x1, lo)
        hi = np.where(move_right, hi, x2)
        x1_old, x2_old = x1, x2
        width = hi - lo
        x1 = np.where(move_right, x2_old, hi - _INV_GOLDEN * width)
        x2 = np.where(move_right, lo + _INV_GOLDEN * width, x1_old)
        # one fresh evaluation per bracket per round
        fresh = np.where(move_right, x2, x1)
        fval = np.abs(f(fresh))
        f1, f2 = np.where(move_right, f2, fval), np.where(move_right, fval, f1)
    return np.maximum(f1, f2)


def _newton_refine_max(jet, x0: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                       s: np.ndarray | None = None):
    """Safeguarded Newton maximisation of s f on bracket arrays.

    jet(x) returns the rows f, f' and f'' at the points x, shape (3, m).
    Each bracket [lo, hi] holds a sampled maximum x0 of s f, where s is
    sign f(x0) (so s f = |f|) unless the signs s are given, and s f is
    maximised there: Newton on (s f)' = 0 from x0, inside
    a sub-bracket [a, c] with (s f)' > 0 at a and <= 0 at c, with a
    bisection step wherever the Newton step leaves it or (s f)'' >= 0.  A
    bracket whose ends and x0 show no such sign change keeps its samples.
    A bracket closes when the Newton step or its sub-bracket is at most 4
    ulps; (s f)' = 0 alone moves c, since at a breakpoint the jet is that
    of the piece to the right, which may be flat while the maximum lies to
    the left.  Only open brackets are evaluated, at most _MAX_STEPS times.
    Returns the largest |f| at any iterate, and each bracket's last
    iterate: its polished maximiser of s f, or x0 where it never opened.
    """
    m = x0.size
    t, d1, d2 = jet(np.concatenate([x0, lo, hi])).reshape(3, 3, m)
    best = float(np.abs(t).max())
    s = np.sign(t[0]) if s is None else s
    g, h = s * d1[0], s * d2[0]
    up = g > 0
    open_ = np.where(up, s * d1[2] < 0, s * d1[1] > 0)
    a = np.where(up, x0, lo)[open_]
    c = np.where(up, hi, x0)[open_]
    s, g, h, x = s[open_], g[open_], h[open_], x0[open_]
    last, idx = x0.copy(), np.flatnonzero(open_)
    for _ in range(_MAX_STEPS):
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(h < 0, g / h, np.nan)
        ulps = 4.0 * _EPS * np.maximum(np.abs(x), 1.0)
        open_ = ~(np.abs(step) <= ulps) & (c - a > ulps)
        if not open_.any():
            break
        s, a, c, x, step = s[open_], a[open_], c[open_], x[open_], step[open_]
        idx = idx[open_]
        newton = x - step
        x = np.where((newton > a) & (newton < c), newton, 0.5 * (a + c))
        last[idx] = x
        t, d1, d2 = jet(x)
        best = max(best, float(np.abs(t).max()))
        g, h = s * d1, s * d2
        a = np.where(g > 0, x, a)
        c = np.where(g > 0, c, x)
    return best, last


def sup_norm(jet, interval: Interval, degree_hint: int | None = None,
             seeds=None, floor: int = 256) -> float:
    """Sup norm of f on the interval, Chebyshev sampling plus Newton polish.

    jet(x, rows=3) returns the first `rows` of f, f', f'' at the flat
    points x, shape (rows, x.size): the sample reads jet(xs, 1)[0], the
    polish the full jet.  The sample holds max(floor,
    SUP_POINTS_PER_DEGREE * degree_hint) Chebyshev points, or floor points
    without a hint.
    seeds: optional extra sample abscissae (breakpoints, zone grids) merged
    into the Chebyshev sample before the local maxima are located.
    """
    best, x0, lo, hi = _sampled_maxima(jet, interval, degree_hint, seeds, floor)
    return max(best, _newton_refine_max(jet, x0, lo, hi)[0])


def _sampled_maxima(jet, interval: Interval, degree_hint: int | None, seeds,
                    floor: int):
    """The sample of sup_norm and the brackets it polishes.

    Returns the largest sampled |f| and, for every local maximum of the
    samples and both endpoints, the point x0 and its bracket [lo, hi]
    between the neighbouring samples.
    """
    count = floor if degree_hint is None \
        else max(floor, SUP_POINTS_PER_DEGREE * max(int(degree_hint), 1))
    xs = chebyshev_points(interval, count)
    if seeds is not None and len(seeds) > 0:
        seeds = interval.clip(np.asarray(seeds, dtype=float))
        xs = np.unique(np.concatenate([xs, seeds]))
    ys = np.abs(jet(xs, 1)[0])

    mid = ys[1:-1]
    inner = (mid >= ys[:-2]) & (mid >= ys[2:])
    # a flat run is one maximum: only its two end samples are polished
    inner &= (mid != ys[:-2]) | (mid != ys[2:])
    idx = np.flatnonzero(inner) + 1
    # endpoints always get polished: kinks and window cuts live there; idx
    # is sorted, unique and inside [1, size - 2], so no sort is needed
    idx = np.concatenate([[0], idx, [ys.size - 1]])
    lo = xs[np.maximum(idx - 1, 0)]
    hi = xs[np.minimum(idx + 1, ys.size - 1)]
    return float(ys.max()), xs[idx], lo, hi
