"""Piecewise Chebyshev series on a breakpoint partition, optionally periodic.

Both spline families of this package are stored this way: the ideal
splines, whose top derivative jumps at its joins, and the mollified
splines, whose transition zones can be ten orders of magnitude narrower
than the plateaus beside them.  Each piece is a Chebyshev series in its own
coordinate u = (x - centre) / half.  The centre and half-width of every
piece are stored as the spline constructors give them, never re-derived
from the breakpoints: a zone centre recomputed from its end points is off
by a rounding error of the window, which is large in units of a narrow
zone.
Integrals, antiderivatives and derivatives are exact coefficient
operations.  The jet (values, first and second derivatives) comes from the
differentiated series of each piece, so the sup norm, grids.sup_norm seeded
with Chebyshev points of every piece, is polished by Newton steps.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .grids import TWO_PI, Interval, chebyshev_points, sup_norm


class PiecewiseCheb:
    """Chebyshev series pieces between consecutive breakpoints."""

    def __init__(self, breakpoints, centres, halves, coefficients,
                 periodic: bool = False):
        bp = np.asarray(breakpoints, dtype=float)
        if bp.ndim != 1 or bp.size < 2:
            raise ValueError("need at least two breakpoints")
        if np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if not len(centres) == len(halves) == len(coefficients) == bp.size - 1:
            raise ValueError("exactly one centre, half-width and coefficient "
                             "array per piece required")
        if periodic and abs((bp[-1] - bp[0]) - TWO_PI) > 1e-9:
            raise ValueError("a periodic piecewise function must span one period")
        self.breakpoints = bp
        self.centres = np.asarray(centres, dtype=float)
        self.halves = np.asarray(halves, dtype=float)
        if np.any(self.halves <= 0):
            raise ValueError("half-widths must be positive")
        self.coefficients = [np.atleast_1d(np.asarray(c, dtype=float)) for c in coefficients]
        self.periodic = bool(periodic)

    @property
    def window(self) -> Interval:
        return Interval(float(self.breakpoints[0]), float(self.breakpoints[-1]))

    def _wrap(self, x: np.ndarray) -> np.ndarray:
        if not self.periodic:
            return x
        lo = self.breakpoints[0]
        return lo + np.mod(x - lo, TWO_PI)

    def _locate(self, x: np.ndarray):
        """Wrapped points and the index of the piece holding each."""
        xs = self._wrap(np.atleast_1d(x))
        idx = np.searchsorted(self.breakpoints, xs, side="right") - 1
        return xs, np.clip(idx, 0, len(self.coefficients) - 1)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        xs, idx = self._locate(x)
        out = np.empty_like(xs)
        for i, coef in enumerate(self.coefficients):
            mask = idx == i
            if mask.any():
                out[mask] = _cheb.chebval((xs[mask] - self.centres[i]) / self.halves[i], coef)
        return float(out[0]) if scalar else out

    @cached_property
    def _jet_series(self) -> list:
        """Per piece, the series of f, f' and f'' in its coordinate u."""
        return [(coef, _cheb.chebder(coef, 1, scl=1.0 / half),
                 _cheb.chebder(coef, 2, scl=1.0 / half))
                for coef, half in zip(self.coefficients, self.halves)]

    def jet(self, x) -> np.ndarray:
        """Rows f, f' and f'' at the points x, piece by piece.

        At a breakpoint the piece to its right is used, as in evaluation.
        """
        xs, idx = self._locate(np.asarray(x, dtype=float))
        out = np.empty((3, xs.size))
        for i, series in enumerate(self._jet_series):
            mask = idx == i
            if mask.any():
                u = (xs[mask] - self.centres[i]) / self.halves[i]
                for row, coef in enumerate(series):
                    out[row, mask] = _cheb.chebval(u, coef)
        return out

    def _with(self, coefficients) -> "PiecewiseCheb":
        return PiecewiseCheb(self.breakpoints, self.centres, self.halves,
                             coefficients, self.periodic)

    def integral(self) -> float:
        """Exact integral over the window: half * int_{-1}^{1} of each series."""
        total = 0.0
        for half, coef in zip(self.halves, self.coefficients):
            k = np.arange(0, coef.size, 2, dtype=float)
            # int_{-1}^{1} T_k du = 2 / (1 - k^2) for even k, 0 for odd k
            total += half * float(np.sum(coef[::2] * 2.0 / (1.0 - k ** 2)))
        return total

    def antiderivative(self) -> "PiecewiseCheb":
        """Continuous antiderivative, zero at the left end of the window."""
        new = []
        running = 0.0
        for half, coef in zip(self.halves, self.coefficients):
            ic = _cheb.chebint(coef, scl=half)
            ic[0] += running - _cheb.chebval(-1.0, ic)
            running = float(_cheb.chebval(1.0, ic))
            new.append(ic)
        return self._with(new)

    def plus_constant(self, value: float) -> "PiecewiseCheb":
        coeffs = [c.copy() for c in self.coefficients]
        for c in coeffs:
            c[0] += value
        return self._with(coeffs)

    def with_zero_mean(self) -> "PiecewiseCheb":
        return self.plus_constant(-self.integral() / self.window.width)

    def sup_norm(self) -> float:
        """Refined max of |f| over the window, Newton-polished by the jet."""
        bp = self.breakpoints
        seeds = [chebyshev_points(Interval(lo, hi), max(192, 4 * coef.size))
                 for lo, hi, coef in zip(bp[:-1], bp[1:], self.coefficients)]
        return sup_norm(self, self.window, seeds=np.concatenate(seeds))

    def global_piece_coefficients(self, piece: int) -> np.ndarray:
        """Coefficients of one piece in plain powers of x (not recentred)."""
        centre, half = self.centres[piece], self.halves[piece]
        p = np.polynomial.Polynomial(_cheb.cheb2poly(self.coefficients[piece]))
        return p(np.polynomial.Polynomial([-centre / half, 1.0 / half])).coef

    def to_dict(self) -> dict:
        return {
            "kind": "piecewise_cheb",
            "periodic": self.periodic,
            "breakpoints": self.breakpoints.tolist(),
            "centres": self.centres.tolist(),
            "halves": self.halves.tolist(),
            "coefficients": [c.tolist() for c in self.coefficients],
        }


def zero_mean_levels(base: PiecewiseCheb, r: int) -> list:
    """[base, then r successive zero-mean antiderivatives].

    Every level of a periodic spline: each has zero period mean, so each
    antiderivative is again periodic.
    """
    levels = [base]
    for _ in range(r):
        levels.append(levels[-1].antiderivative().with_zero_mean())
    return levels
