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

A family jet measures K functions in one pass.  jet(x, rows=3) returns
(rows, K, x.size), every member at every point, and
jet(x, rows=3, owner=o), with o an integer array of x's size, returns
(rows, x.size), member o[i] at x[i].  A stack of TrigPolys (coefficients
with a leading axis) and lemma-3111's hinge sums over a stack of weight
vectors are families: bernstein's random starts and the moves its hill
climb scores at once are TrigPoly stacks, and lemma-3111's trials are
one hinge-sum family.  sup_norm samples every member on the one sample,
finds each member's brackets, and polishes all of them in one Newton
loop, each bracket tagged with its member; it returns the K sups.  A
single function is the K = 1 case, and its sup is a float.  The polish
evaluates each member only at its own points, in the order its own
polish would: a hinge sum's rows are OpenBLAS gemv products, whose last
bit depends on the array gemv is given, so evaluating every member at
every point (one gemm) would move sups in the last place.  A member's
sup is therefore its own sup_norm's, bit for bit.
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

    jet(x, i) returns the rows f, f' and f'' at the points x, shape
    (3, x.size), where i holds the index of each point's bracket: a
    family's polish reads from it which member to evaluate at each
    point, and a single function ignores it.  The points of one bracket
    come in the same order, whatever other brackets run beside it.
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
    Returns f at every point evaluated (x0, lo, hi and the iterates), the
    bracket of each, and each bracket's last iterate: its polished
    maximiser of s f, or x0 where it never opened.
    """
    m = x0.size
    every = np.arange(m)
    ends = np.concatenate([every, every, every])
    t, d1, d2 = jet(np.concatenate([x0, lo, hi]), ends).reshape(3, 3, m)
    s = np.sign(t[0]) if s is None else s
    g, h = s * d1[0], s * d2[0]
    up = g > 0
    open_ = np.where(up, s * d1[2] < 0, s * d1[1] > 0)
    a = np.where(up, x0, lo)[open_]
    c = np.where(up, hi, x0)[open_]
    s, g, h, x = s[open_], g[open_], h[open_], x0[open_]
    last, idx = x0.copy(), every[open_]
    seen, where = [t.ravel()], [ends]
    for _ in range(_MAX_STEPS):
        step = np.divide(g, h, out=np.full_like(g, np.nan), where=h < 0)
        ulps = 4.0 * _EPS * np.maximum(np.abs(x), 1.0)
        open_ = ~(np.abs(step) <= ulps) & (c - a > ulps)
        if not open_.any():
            break
        s, a, c, x, step = s[open_], a[open_], c[open_], x[open_], step[open_]
        idx = idx[open_]
        newton = x - step
        x = np.where((newton > a) & (newton < c), newton, 0.5 * (a + c))
        last[idx] = x
        t, d1, d2 = jet(x, idx)
        seen.append(t)
        where.append(idx)
        g, h = s * d1, s * d2
        up = g > 0
        a = np.where(up, x, a)
        c = np.where(up, c, x)
    return np.concatenate(seen), np.concatenate(where), last


def sup_norm(jet, interval: Interval, degree_hint: int | None = None,
             seeds=None, floor: int = 256):
    """Sup norm of f on the interval, Chebyshev sampling plus Newton polish.

    jet(x, rows=3) returns the first `rows` of f, f', f'' at the flat
    points x, shape (rows, x.size): the sample reads jet(xs, 1)[0], the
    polish the full jet, and the result is a float.  The sample's rows are
    overwritten by their absolute values, so a jet returns arrays of its
    own, never a view of stored values.  A family jet returns
    (rows, K, x.size) and gets the K members' sups back, as an array; its
    polish reads jet(x, owner=o), member o[i] at x[i] (see the module
    docstring).  The sample holds max(floor, SUP_POINTS_PER_DEGREE *
    degree_hint) Chebyshev points, or floor points without a hint.
    seeds: optional extra sample abscissae (breakpoints, zone grids) merged
    into the Chebyshev sample before the local maxima are located.
    """
    best, x0, lo, hi, owner = _sampled_maxima(jet, interval, degree_hint,
                                              seeds, floor)
    polish = (lambda x, i: jet(x)) if best.ndim == 0 \
        else (lambda x, i: jet(x, owner=owner[i]))
    values, brackets, _ = _newton_refine_max(polish, x0, lo, hi)
    sups = np.atleast_1d(best)
    np.maximum.at(sups, owner[brackets], np.abs(values))
    return float(sups[0]) if best.ndim == 0 else sups


def _sampled_maxima(jet, interval: Interval, degree_hint: int | None, seeds,
                    floor: int):
    """The sample of sup_norm and the brackets it polishes.

    Returns the largest sampled |f| (a scalar, or one per member of a
    family) and, for every local maximum of a member's samples and both
    endpoints, the point x0, its bracket [lo, hi] between the
    neighbouring samples, and the member it belongs to: member by member,
    ascending within each.
    """
    count = floor if degree_hint is None \
        else max(floor, SUP_POINTS_PER_DEGREE * max(int(degree_hint), 1))
    xs = chebyshev_points(interval, count)
    if seeds is not None and len(seeds) > 0:
        seeds = interval.clip(np.asarray(seeds, dtype=float))
        xs = np.unique(np.concatenate([xs, seeds]))
    # |f| in place: a family's sample is K rows of the whole sample
    ys = jet(xs, 1)[0]
    ys = np.abs(ys, out=ys)

    # endpoints always get polished: kinks and window cuts live there
    peak = np.ones(ys.shape, dtype=bool)
    mid, left, right = ys[..., 1:-1], ys[..., :-2], ys[..., 2:]
    inner = np.greater_equal(mid, left, out=peak[..., 1:-1])
    inner &= mid >= right
    # a flat run is one maximum: only its two end samples are polished
    inner &= (mid != left) | (mid != right)
    owner, idx = np.nonzero(peak.reshape(-1, xs.size))
    lo = xs[np.maximum(idx - 1, 0)]
    hi = xs[np.minimum(idx + 1, xs.size - 1)]
    return ys.max(axis=-1), xs[idx], lo, hi, owner
