"""Sign-change sets for shape-constrained approximation.

A sign-change set collects 2s points of one period.  A function f is
co-q-monotone with respect to the set when f^(q)(t) * prod_i (t - y_i) >= 0
on one period: the q-th derivative changes sign exactly at the prescribed
points, alternating between the gaps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import TWO_PI, Interval, chebyshev_points


@dataclass(frozen=True)
class SignChangeSet:
    """2s sign-change points inside one period, strictly increasing."""

    points: tuple = field(default_factory=tuple)

    def __init__(self, points):
        pts = tuple(float(p) for p in points)
        if len(pts) == 0 or len(pts) % 2 != 0:
            raise ValueError("a sign-change set needs an even, positive number of points")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValueError("sign-change points must be strictly increasing")
        if pts[-1] - pts[0] >= TWO_PI:
            raise ValueError("sign-change points must fit inside one open period")
        object.__setattr__(self, "points", pts)

    @property
    def pairs(self) -> int:
        """s, the number of sign-change pairs."""
        return len(self.points) // 2

    @property
    def wrap_point(self) -> float:
        """First point repeated one period up: closes the cyclic gap list."""
        return self.points[0] + TWO_PI

    def gaps(self) -> np.ndarray:
        """All 2s adjacent gaps, the wrap-around gap last."""
        pts = np.asarray(self.points)
        inner = np.diff(pts)
        return np.append(inner, self.wrap_point - pts[-1])

    def min_gap(self) -> float:
        return float(self.gaps().min())

    def interval_sign(self, index: int) -> int:
        """Required sign of f^(q) on the index-th gap (ascending order).

        Gap index l covers (points[l], points[l+1]), with l = 2s-1 the wrap
        gap (points[-1], points[0] + 2pi).  Signs alternate and the gap just
        above the lowest point carries -1.
        """
        if not 0 <= index < 2 * self.pairs:
            raise IndexError("gap index out of range")
        return -1 if index % 2 == 0 else 1

    def intervals(self):
        """The 2s gaps as (lo, hi, sign) triples covering one period."""
        pts = list(self.points) + [self.wrap_point]
        return [(pts[l], pts[l + 1], self.interval_sign(l)) for l in range(len(pts) - 1)]

    def shift_to_canonical(self):
        """Rotate so a minimal gap lands just below zero.

        Returns (shifted_set, shift): the shifted points are the originals
        plus shift (modulo full turns for those rotated past the wrap), the
        two lowest being -g and 0 where g is the minimal adjacent gap.  Ties
        pick the lowest qualifying gap index.
        """
        gaps = self.gaps()
        l = int(np.argmin(gaps))
        pts = list(self.points)
        ext = pts + [self.wrap_point]
        shift = -ext[l + 1]
        cyclic = pts[l:] + [p + TWO_PI for p in pts[:l]]
        return SignChangeSet([p + shift for p in cyclic]), shift

    def product(self, t):
        """prod_i (t - y_i) for t in the one-period window above the lowest point."""
        t = np.asarray(t, dtype=float)
        out = np.ones_like(t)
        for y in self.points:
            out = out * (t - y)
        return out


def delta_q_membership_by_convexity(fq2, ys: SignChangeSet) -> bool:
    """Membership check through the defining convexity pattern.

    fq2 evaluates the (q-2)-nd derivative.  On each gap, sign * fq2 must be
    convex: its symmetric second differences, taken strictly inside the
    open gap, must be nonnegative up to 1e-12 of max(1, max|fq2|) over the
    samples.  They are taken at 256 points a gap with step 1e-3 of its
    width.  This form also covers splines whose q-th derivative only
    exists piecewise, since the definition constrains each open gap
    separately.
    """
    worst = np.inf
    scale = 1.0
    for glo, ghi, sign in ys.intervals():
        width = ghi - glo
        h = 1e-3 * width
        xs = np.linspace(glo + 1.5 * h, ghi - 1.5 * h, 256)
        lo_v = np.asarray(fq2(xs - h), dtype=float)
        mid_v = np.asarray(fq2(xs), dtype=float)
        hi_v = np.asarray(fq2(xs + h), dtype=float)
        second = lo_v - 2.0 * mid_v + hi_v
        scale = max(scale, float(np.abs(mid_v).max(initial=0.0)))
        worst = min(worst, float((sign * second).min()))
    return worst >= -1e-12 * scale


def delta_q_membership(dq, ys: SignChangeSet, extra_points=None):
    """Grid check of the sign pattern dq(t) * prod(t - y_i) >= -tol;
    returns (holds, worst signed value).

    dq evaluates the q-th derivative of the candidate function on arrays.
    The grid covers one period from the lowest sign-change point, densely
    inside every gap (512 Chebyshev points each) and excluding the
    sign-change points themselves.
    extra_points lets callers add abscissae (e.g. mollification zones whose
    width is far below the default grid resolution).  tol is 1e-9 of
    max(1, max|dq|) over the samples.
    """
    lo = ys.points[0]
    samples = []
    for glo, ghi, _ in ys.intervals():
        samples.append(chebyshev_points(Interval(glo, ghi), 512, open_ends=True))
    if extra_points is not None and len(extra_points):
        pts = np.asarray(extra_points, dtype=float)
        pts = lo + np.mod(pts - lo, TWO_PI)
        samples.append(pts)
    ts = np.concatenate(samples)
    vals = np.asarray(dq(ts), dtype=float)
    prods = ys.product(ts)
    signed = vals * prods
    scale = float(np.abs(vals).max()) if vals.size else 0.0
    tol = 1e-9 * max(scale, 1.0)
    margin = float(signed.min()) if signed.size else 0.0
    return margin >= -tol, margin
