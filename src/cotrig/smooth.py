"""Mollified periodic splines: smooth analogues of the ideal splines.

The r-th derivative is a smoothed two-plateau step: instead of jumping at
the cut points it rides the C^infinity step S through two transition zones
of width 2*lam, placed at [lam, 3*lam] (upward) and [-d+lam, -d+3*lam]
(downward) inside the window [-d, 2pi-d].  All lower levels are exact
antiderivatives; all higher derivatives are supported on the zones alone
and inherit closed forms from S.  SmoothSpline.jet(x, rows, order) is the
one accessor for all of them.

Every level is a piecewise Chebyshev series whose zone pieces keep the
zone's exact centre 2*lam (or -d + 2*lam) and half-width lam, so
antiderivatives are exact coefficient operations at any zone width.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import TWO_PI, Interval, chebyshev_points, sup_norm
from .mollifier import build_mollifier_table
from .piecewise import PiecewiseCheb, zero_mean_levels
from .splines import step_offset

# smallest zone half-width a spline can be built at: the breakpoints
# -d + lam and -d must stay hundreds of float spacings apart near
# |x| = pi, and zone arithmetic must stay in the normal range
MIN_REALIZED_WIDTH = 1e-13


@dataclass
class SmoothSpline:
    """Mollified degree-r spline on [-d, 2pi-d] with zone half-width lam.

    jet(x, rows, order) reads every derivative.  Orders j <= r are the
    stored levels (piecewise Chebyshev series, whose jet is one Clenshaw
    pass per series length).  Above r they are closed forms on the zones,
    from the jet of the process's step table, build_mollifier_table(), the
    table the levels are built from: one bump recursion per zone.
    """

    r: int
    d: float
    lam: float
    levels: list

    @property
    def window(self) -> Interval:
        return self.levels[-1].window

    def zones(self):
        d, lam = self.d, self.lam
        return [(-d + lam, -d + 3 * lam), (lam, 3 * lam)]

    def __call__(self, x):
        return self.levels[self.r](x)

    def jet(self, x, rows: int = 3, order: int = 0) -> np.ndarray:
        """Rows f^(order), ..., f^(order+rows-1) at the flat points x: up
        to order r the jet of level r - order; above r, with k = order - r,
        the step table's jet of order k at (x - centre) / lam over lam^k,
        ..., lam^(k+rows-1), up in one zone and down in the other."""
        if order < 0:
            raise ValueError("derivative order must be nonnegative")
        if order <= self.r:
            return self.levels[self.r - order].jet(x, rows)
        k = order - self.r
        lam, d = self.lam, self.d
        table = build_mollifier_table()
        xs = -d + np.mod(np.asarray(x, dtype=float).ravel() + d, TWO_PI)
        out = np.zeros((rows, xs.size))
        for sign, u in ((1.0, (xs - 2.0 * lam) / lam),
                        (-1.0, (xs + d - 2.0 * lam) / lam)):
            m = np.abs(u) < 1.0
            if m.any():
                for i, row in enumerate(table.jet(u[m], rows, k)):
                    out[i, m] = sign * row / lam ** (k + i)
        return out

    def sup_derivative(self, j: int) -> float:
        if j <= self.r:
            return self.levels[self.r - j].sup_norm()
        k = j - self.r
        return build_mollifier_table().s_norm(k) / self.lam ** k

    def seed_points(self) -> np.ndarray:
        """Top-level breakpoints and 65 Chebyshev points in every zone."""
        seeds = [self.levels[-1].breakpoints]
        for lo, hi in self.zones():
            seeds.append(chebyshev_points(Interval(lo, hi), 65))
        return np.unique(np.concatenate(seeds))


def build_smooth_spline(r: int, d: float, lam: float) -> SmoothSpline:
    """Construct the mollified degree-r spline with gap d and half-width lam,
    on the process's cached step table (build_mollifier_table())."""
    if r < 1:
        raise ValueError("r must be a positive integer")
    if not 0.0 < d <= np.pi:
        raise ValueError("the gap d must satisfy 0 < d <= pi")
    if not 0.0 < lam <= d / 3.0:
        raise ValueError("the zone half-width must satisfy 0 < lam <= d/3")
    if lam < MIN_REALIZED_WIDTH:
        raise ValueError(f"lam: {lam!r} is below the realization floor "
                         f"{MIN_REALIZED_WIDTH:.0e}")
    table = build_mollifier_table()
    gamma = step_offset(d)

    up = table.cheb_coeffs.copy()
    up[0] -= gamma
    down = -table.cheb_coeffs
    down[0] -= gamma

    base = PiecewiseCheb(
        [-d, -d + lam, -d + 3 * lam, lam, 3 * lam, TWO_PI - d],
        centres=[0.5 * (-2 * d + lam), -d + 2 * lam, 0.5 * (-d + 4 * lam),
                 2 * lam, 0.5 * (TWO_PI - d + 3 * lam)],
        halves=[0.5 * lam, lam, 0.5 * (d - 2 * lam), lam,
                0.5 * (TWO_PI - d - 3 * lam)],
        coefficients=[[1.0 - gamma], down, [-1.0 - gamma], up, [1.0 - gamma]],
        periodic=True)
    return SmoothSpline(r=r, d=d, lam=lam, levels=zero_mean_levels(base, r))


def spline_distance(f, g: SmoothSpline) -> float:
    """Refined sup of |f - g| over g's window, seeded with g's kink and
    zone points and Newton-polished by the difference of the two jets."""
    return sup_norm(lambda x, rows=3: f.jet(x, rows) - g.jet(x, rows),
                    g.window, seeds=g.seed_points(), floor=4096)
