"""Periodic ideal splines: the Euler-type extremals with one interior kink.

The degree-r ideal spline here is the 2pi-periodic function with zero mean
whose r-th derivative equals sign(x) - offset on the cut window
(-b, 2pi - b), with the constant offset chosen so the derivative has zero
mean over the period.  On [-b, 2pi - b] it differs from the power kink
|x| x^(r-1) / r! by a polynomial of degree at most r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import TWO_PI, Interval
from .piecewise import PiecewiseCheb, zero_mean_levels


def abs_power(r: int, x):
    """|x| x^(r-1) / r!, the one-kink power function (x itself for r = 1)."""
    if r < 1:
        raise ValueError("r must be a positive integer")
    x = np.asarray(x, dtype=float)
    return np.abs(x) * x ** (r - 1) / float(math.factorial(r))


@dataclass(frozen=True)
class PowerKink:
    """F_r(x / scale), F_r = abs_power(r, .), whose r-th derivative jumps at 0."""

    r: int
    scale: float = 1.0
    breakpoints = (0.0,)

    def __call__(self, x):
        return abs_power(self.r, np.asarray(x, dtype=float) / self.scale)

    def jet(self, x, rows: int = 3):
        """The first `rows` of f, f', f'' at the points x, by F_r' =
        F_{r-1}, F_0 = sign and F_0' = 0 off the kink."""
        u = np.asarray(x, dtype=float) / self.scale
        out = [abs_power(k, u) if k > 0 else np.sign(u) if k == 0 else 0.0 * u
               for k in range(self.r, self.r - rows, -1)]
        return np.array(out) / self.scale ** np.arange(float(rows))[:, None]


def step_offset(b: float) -> float:
    """Constant making the cut step sign(x) - offset mean-zero on the period.

    The step is -1 on (-b, 0) and +1 on (0, 2pi - b); the balancing constant
    is 1 - b/pi, which lies in [0, 1) for 0 < b <= pi.
    """
    if not 0.0 < b <= np.pi:
        raise ValueError("the cut parameter b must satisfy 0 < b <= pi")
    return 1.0 - b / np.pi


@dataclass
class IdealSpline:
    """Degree-r periodic ideal spline with cut parameter b.

    levels[j] is the j-th antiderivative of the mean-zero step: levels[0] is
    the r-th derivative, levels[r] the spline itself.  Every level has zero
    period mean, so each antiderivative is again periodic.
    """

    r: int
    b: float
    levels: list

    @property
    def window(self) -> Interval:
        return self.levels[self.r].window

    @property
    def breakpoints(self) -> tuple:
        """The kinks -b and 0, where the r-th derivative jumps."""
        return (-self.b, 0.0)

    def __call__(self, x):
        return self.levels[self.r](x)

    def _level(self, j: int):
        if not 0 <= j <= self.r:
            raise ValueError("derivative order must lie in [0, r]")
        return self.levels[self.r - j]

    def jet(self, x, rows: int = 3, order: int = 0):
        """Rows f^(order), ..., f^(order+rows-1) at the flat points x, the
        jet of level r - order, 0 <= order <= r."""
        return self._level(order).jet(x, rows)

    def sup_derivative(self, j: int) -> float:
        """Refined sup of |f^(j)|, 0 <= j <= r.  At j = r the pieces are
        the constants -1 - offset and 1 - offset, offset = step_offset(b),
        so it is 1 + offset."""
        return self._level(j).sup_norm()

    def residual_poly(self):
        """Coefficients of the degree <= r polynomial (spline minus power kink).

        Computed independently from both window pieces; returns the
        coefficient vector and the cross-piece defect (max abs coefficient
        difference), which is a construction self-check.
        """
        rfact = float(math.factorial(self.r))
        plus = self.levels[self.r].global_piece_coefficients(1)
        minus = self.levels[self.r].global_piece_coefficients(0)
        p_plus = plus.copy()
        p_plus[self.r] -= 1.0 / rfact
        p_minus = minus.copy()
        p_minus[self.r] += 1.0 / rfact
        defect = float(np.abs(p_plus - p_minus).max())
        return p_plus, defect


def build_ideal_spline(r: int, b: float) -> IdealSpline:
    """Construct the degree-r ideal spline on the window [-b, 2pi - b]."""
    if r < 1:
        raise ValueError("r must be a positive integer")
    offset = step_offset(b)
    step = PiecewiseCheb([-b, 0.0, TWO_PI - b],
                         centres=[-0.5 * b, 0.5 * (TWO_PI - b)],
                         halves=[0.5 * b, 0.5 * (TWO_PI - b)],
                         coefficients=[[-1.0 - offset], [1.0 - offset]],
                         periodic=True)
    return IdealSpline(r=r, b=b, levels=zero_mean_levels(step, r))
