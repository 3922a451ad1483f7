"""Intervals, Chebyshev sampling grids, and the one sup-norm routine.

Every sup norm in this package goes through sup_norm.  It samples |f| on
Chebyshev-distributed points of the interval (clustered at the endpoints,
where the kinks of the target functions sit), merges in any seed points
the caller knows about (breakpoints, per-piece or per-zone Chebyshev
points), and polishes every local maximum of the samples and both
endpoints inside the bracket of their neighbouring samples.  A flat run of
equal samples counts as one maximum, polished at its two ends.

The polish depends on what is known about f.  Where its first two
derivatives are known in closed form, a jet (f, f', f'' at given points)
drives safeguarded Newton steps on f' = 0 (Boyd, "Computing the zeros,
maxima and inflection points of Chebyshev, Legendre and Fourier series",
J. Eng. Math. 56, 2006): trigonometric polynomials, piecewise Chebyshev
series and the splines built from them, closed-form step derivatives and
hinge sums.  A bracket Newton cannot settle in a few steps, such as one
holding a jump of f' at a breakpoint or knot, falls back to golden-section
search, and so does every bracket of a callable without a jet.  The
result is the largest |f| seen, so polishing never lowers the sampled
maximum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

# Samples per unit of the degree hint: a trig polynomial of degree n has
# at most 2n extrema a period, so 20 samples a degree put several samples
# on every lobe and each maximum inside the bracket of its sample.
SUP_POINTS_PER_DEGREE = 20
# Golden-section rounds per bracket: each shrinks it by 0.618, so 60
# rounds take any bracket below 1e-12 of its width.  They are the whole
# polish for a callable without a jet and the budget for every bracket
# Newton steps leave unresolved.
GOLDEN_ROUNDS = 60

_INV_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
_EPS = np.finfo(float).eps
# Newton steps per bracket before it falls back to golden-section search
_NEWTON_ITERATIONS = 10


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


def _newton_refine_max(jet, x0: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Safeguarded Newton maximisation of |f| on bracket arrays.

    jet(x) returns the rows f, f' and f'' at the points x, shape (3, m).
    Each bracket [lo, hi] holds a sampled maximum x0 of |f|, and s f with
    s = sign f(x0) is maximised there: Newton on (s f)' = 0 from x0, inside
    a sub-bracket on which (s f)' falls from positive to negative, with a
    bisection step wherever the Newton step leaves it or (s f)'' >= 0.
    A bracket without such a sub-bracket keeps its samples when x0 is one
    of its ends (s f rises to that end or falls away from it) or (s f)'
    vanishes there, and is unresolved otherwise.  Only a step below 4 ulps
    ends the steps: (s f)' = 0 alone does not, since at a breakpoint the
    jet is that of the piece to the right, which may be flat while the
    maximum lies to the left.  A jump of f' inside the sub-bracket never
    lets the steps settle, so such a bracket ends unresolved too.  Returns
    the largest |f| at any iterate and the mask of brackets still
    unresolved after _NEWTON_ITERATIONS steps.
    """
    m = x0.size
    t, d1, d2 = jet(np.concatenate([x0, lo, hi])).reshape(3, 3, m)
    best = float(np.abs(t).max())
    s = np.sign(t[0])
    g, h = s * d1[0], s * d2[0]
    up = g > 0
    # sub-bracket [a, c] on which (s f)' falls from positive to negative
    has_root = np.where(up, s * d1[2] < 0, s * d1[1] > 0)
    a = np.where(up, x0, lo)
    c = np.where(up, hi, x0)
    unresolved = (g != 0) & ~has_root & (x0 > lo) & (x0 < hi)
    todo = has_root
    x = x0
    for _ in range(_NEWTON_ITERATIONS):
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(h < 0, g / h, np.nan)
        todo &= ~(np.abs(step) <= 4.0 * _EPS * np.maximum(np.abs(x), 1.0))
        if not todo.any():
            break
        newton = x - step
        inside = (newton > a) & (newton < c)
        x = np.where(todo, np.where(inside, newton, 0.5 * (a + c)), x)
        t, d1, d2 = jet(x)
        best = max(best, float(np.abs(t).max()))
        g, h = s * d1, s * d2
        a = np.where(todo & (g > 0), x, a)
        c = np.where(todo & (g < 0), x, c)
    return best, unresolved | todo


def sup_norm(f, interval: Interval, degree_hint: int | None = None,
             seeds=None, floor: int = 256, jet=None) -> float:
    """Sup norm of f on the interval, Chebyshev sampling plus refinement.

    The sample holds max(floor, SUP_POINTS_PER_DEGREE * degree_hint)
    Chebyshev points, or floor points without a hint.
    seeds: optional extra sample abscissae (breakpoints, zone grids) merged
    into the Chebyshev sample before the local maxima are located.
    jet: optional callable returning the rows f, f' and f'' at an array of
    points, shape (3, m); it defaults to f.jet when f has one.  With a jet
    the maxima are polished by Newton steps, without one by golden-section
    search.
    """
    if jet is None:
        jet = getattr(f, "jet", None)
    count = floor if degree_hint is None \
        else max(floor, SUP_POINTS_PER_DEGREE * max(int(degree_hint), 1))
    xs = chebyshev_points(interval, count)
    if seeds is not None and len(seeds) > 0:
        seeds = interval.clip(np.asarray(seeds, dtype=float))
        xs = np.unique(np.concatenate([xs, seeds]))
    ys = np.abs(np.asarray(f(xs), dtype=float))
    if ys.size < 3:
        return float(ys.max())

    mid = ys[1:-1]
    inner = (mid >= ys[:-2]) & (mid >= ys[2:])
    # a flat run is one maximum: only its two end samples are polished
    inner &= (mid != ys[:-2]) | (mid != ys[2:])
    idx = np.flatnonzero(inner) + 1
    # endpoints always get polished: kinks and window cuts live there
    idx = np.unique(np.concatenate([[0, ys.size - 1], idx]))
    lo = xs[np.maximum(idx - 1, 0)]
    hi = xs[np.minimum(idx + 1, ys.size - 1)]
    keep = hi > lo
    best = float(ys.max())
    if jet is not None:
        polished, unresolved = _newton_refine_max(jet, xs[idx], lo, hi)
        best = max(best, polished)
        keep &= unresolved
    if keep.any():
        refined = golden_refine_max(f, lo[keep], hi[keep], GOLDEN_ROUNDS)
        best = max(best, float(refined.max()))
    return best
