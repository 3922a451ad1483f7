"""Mollified periodic splines: smooth analogues of the ideal splines.

The r-th derivative is a smoothed two-plateau step: instead of jumping at
the cut points it rides the C^infinity step S through two transition zones
of width 2*lam, placed at [lam, 3*lam] (upward) and [-d+lam, -d+3*lam]
(downward) inside the window [-d, 2pi-d].  All lower levels are exact
antiderivatives; all higher derivatives are supported on the zones alone
and inherit closed forms from S.

Every level is a piecewise Chebyshev series whose zone pieces keep the
zone's exact centre 2*lam (or -d + 2*lam) and half-width lam, so
antiderivatives are exact coefficient operations at any zone width.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import TWO_PI, Interval, chebyshev_points, sup_norm
from .mollifier import MollifierTable, build_mollifier_table, bump_derivatives
from .piecewise import PiecewiseCheb, zero_mean_levels
from .splines import step_offset


@dataclass
class SmoothSpline:
    """Mollified degree-r spline on [-d, 2pi-d] with zone half-width lam.

    Derivatives of order j <= r are the stored levels (piecewise Chebyshev
    series, whose jet is one Clenshaw pass per series length).  Above r
    they are closed forms on the zones: step_derivative_values gives rows
    k, ..., k + count - 1 of the step level from one bump_derivatives
    recursion per zone.
    """

    r: int
    d: float
    lam: float
    offset: float
    table: MollifierTable
    levels: list

    @property
    def window(self) -> Interval:
        return self.levels[-1].window

    def zones(self):
        d, lam = self.d, self.lam
        return [(-d + lam, -d + 3 * lam), (lam, 3 * lam)]

    def __call__(self, x):
        return self.levels[self.r](x)

    def jet(self, x, rows: int = 3):
        """The first `rows` of f, f', f'' of the spline at the points x."""
        return self.levels[self.r].jet(x, rows)

    def _wrap(self, x):
        return -self.d + np.mod(np.asarray(x, dtype=float) + self.d, TWO_PI)

    def step_derivative_values(self, k: int, x, count: int = 1) -> np.ndarray:
        """Rows k, ..., k + count - 1 (k >= 1) of the closed-form derivatives
        of the smoothed step level, shape (count, points).

        In each zone the rows are 2/Z psi^(k-1), ..., psi^(k+count-2) of one
        bump_derivatives recursion, over lam^k, ..., lam^(k+count-1).
        """
        if k < 1:
            raise ValueError("the step level's derivatives start at order 1")
        xs = self._wrap(np.atleast_1d(np.asarray(x, dtype=float)))
        out = np.zeros((count,) + xs.shape)
        lam, d = self.lam, self.d
        scale = 2.0 / self.table.mass
        for sign, u in ((1.0, (xs - 2.0 * lam) / lam),
                        (-1.0, (xs + d - 2.0 * lam) / lam)):
            m = np.abs(u) < 1.0
            if m.any():
                rows = bump_derivatives(k + count - 2, u[m])[k - 1:]
                for i, row in enumerate(rows):
                    out[i, m] = sign * (scale * row) / lam ** (k + i)
        return out

    def derivative_values(self, j: int, x):
        """j-th derivative anywhere: stored level for j <= r, closed form above."""
        if j < 0:
            raise ValueError("derivative order must be nonnegative")
        if j <= self.r:
            return self.levels[self.r - j](x)
        return self.step_derivative_values(j - self.r, x)[0]

    def sup_derivative(self, j: int) -> float:
        if j <= self.r:
            return self.levels[self.r - j].sup_norm()
        k = j - self.r
        return self.table.sup_step_derivative(k) / self.lam ** k

    def seed_points(self) -> np.ndarray:
        """Top-level breakpoints and 65 Chebyshev points in every zone."""
        seeds = [self.levels[-1].breakpoints]
        for lo, hi in self.zones():
            seeds.append(chebyshev_points(Interval(lo, hi), 65))
        return np.unique(np.concatenate(seeds))

    def to_dict(self) -> dict:
        return {
            "kind": "smooth_spline",
            "r": self.r,
            "d": self.d,
            "lam": self.lam,
            "offset": self.offset,
            "table": self.table.to_dict(),
            "levels": [lv.to_dict() for lv in self.levels],
        }


def build_smooth_spline(r: int, d: float, lam: float) -> SmoothSpline:
    """Construct the mollified degree-r spline with gap d and half-width lam,
    on the process's cached step table (build_mollifier_table())."""
    if r < 1:
        raise ValueError("r must be a positive integer")
    if not 0.0 < d <= np.pi:
        raise ValueError("the gap d must satisfy 0 < d <= pi")
    if not 0.0 < lam <= d / 3.0:
        raise ValueError("the zone half-width must satisfy 0 < lam <= d/3")
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
    return SmoothSpline(r=r, d=d, lam=lam, offset=gamma, table=table,
                        levels=zero_mean_levels(base, r))


def spline_distance(f, g, window: Interval, seeds=None) -> float:
    """Refined sup of |f - g| over the window, seeding kink and zone points
    and Newton-polished by the difference of the two jets."""
    return sup_norm(lambda x, rows=3: f.jet(x, rows) - g.jet(x, rows), window,
                    seeds=seeds, floor=4096)
