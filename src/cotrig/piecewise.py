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
operations.  The jet, the first `rows` of values, first and second
derivatives, comes from one Clenshaw pass per distinct series length,
over every point of the pieces of that length and every row at once (a
spline whose pieces all have one length takes the same loop, as one
group), and evaluation is its row 0; the derivative series are
zero-padded at the top to that length, and zero padding leaves every
Clenshaw step's result unchanged, so each row is bit-identical to
numpy's chebval of its own piece.  The sup norm, grids.sup_norm of the jet seeded with Chebyshev
points of every piece, is polished by Newton steps on the jet.
"""

from __future__ import annotations

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
        self._stack_cache = {}

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

    def _stacks(self, rows: int):
        """Each piece's series length n (at least 2), and per length the
        indices of its pieces and their series in u of the first `rows` of
        f, f', f'', zero-padded at the top to n and stacked (n, rows,
        pieces).  Built on first use for each row count."""
        if rows not in self._stack_cache:
            lengths = np.maximum([c.size for c in self.coefficients], 2)
            groups = []
            for n in np.unique(lengths):
                pieces = np.flatnonzero(lengths == n)
                stack = np.zeros((n, rows, pieces.size))
                for slot, i in enumerate(pieces):
                    for k in range(rows):
                        der = _cheb.chebder(self.coefficients[i], k,
                                            scl=1.0 / self.halves[i])
                        stack[:der.size, k, slot] = der
                groups.append((pieces, stack))
            self._stack_cache[rows] = lengths, groups
        return self._stack_cache[rows]

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        values = self.jet(x, 1)[0]
        return float(values[0]) if x.ndim == 0 else values.reshape(x.shape)

    def jet(self, x, rows: int = 3) -> np.ndarray:
        """The first `rows` of f, f', f'' at the points x, shape (rows,
        x.size), one Clenshaw pass per series length.

        At a breakpoint the piece to its right is used.
        """
        xs, idx = self._locate(np.asarray(x, dtype=float).ravel())
        lengths, groups = self._stacks(rows)
        out = np.empty((rows, xs.size))
        for pieces, stack in groups:
            sel = np.flatnonzero(lengths[idx] == stack.shape[0])
            held = idx[sel]
            slots = np.searchsorted(pieces, held)
            if held.size:
                u = (xs[sel] - self.centres[held]) / self.halves[held]
                out[:, sel] = _clenshaw(stack, slots, u)
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
        return sup_norm(self.jet, self.window, seeds=np.concatenate(seeds))

    def global_piece_coefficients(self, piece: int) -> np.ndarray:
        """Coefficients of one piece in plain powers of x (not recentred)."""
        centre, half = self.centres[piece], self.halves[piece]
        p = np.polynomial.Polynomial(_cheb.cheb2poly(self.coefficients[piece]))
        return p(np.polynomial.Polynomial([-centre / half, 1.0 / half])).coef


def _clenshaw(stack: np.ndarray, slots: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Clenshaw sums at the points u, each point with its own series.

    stack has shape (n, rows, pieces), n >= 2, and slots[i] is the piece of
    point i.  The steps are chebval's (Clenshaw, MTAC 9, 1955), in its
    order; the coefficients of each step are gathered for the points as the
    step runs, so no (n, rows, points) array is built.
    """
    x2 = 2 * u
    c0, c1 = stack[-2].take(slots, 1), stack[-1].take(slots, 1)
    for coef in stack[-3::-1]:
        c0, c1 = coef.take(slots, 1) - c1, c0 + c1 * x2
    return c0 + c1 * u


def zero_mean_levels(base: PiecewiseCheb, r: int) -> list:
    """[base, then r successive zero-mean antiderivatives].

    Every level of a periodic spline: each has zero period mean, so each
    antiderivative is again periodic.
    """
    levels = [base]
    for _ in range(r):
        levels.append(levels[-1].antiderivative().with_zero_mean())
    return levels
