"""A smooth odd step and its derivative calculus.

The step S is built from the standard bump psi(t) = exp(-1/(1 - t^2)):
S(x) = -1 + 2/Z * int_{-1}^{x} psi, with Z the total bump mass.  S is odd,
increasing, equals sign(x) for |x| >= 1, and all its derivatives vanish at
+-1, so pieces of S can be welded onto constant plateaus with C^infinity
joins.  The derivatives psi, psi', ..., psi^(k) come together from one
Leibniz recursion on psi = exp(g), whose exponent g = -1/(1 - t^2) splits
into two simple poles with closed-form derivatives of every order.
MollifierTable.jet(u, rows, order) reads S^(order), ... (order >= 1) from
that recursion, for the splines' zones and for the step's sup norms,
which s_norm takes the first time an order is read: none is stored.

Z and the values of S at the interpolation nodes come from one fixed
Gauss-Legendre rule on the panels between those nodes, in numpy alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import chebyshev as _cheb
from numpy.polynomial import legendre as _leg

from .grids import Interval, sup_norm

# below 1 - t^2 = 2e-3 the bump is ~ exp(-500) ~ 1e-218: call it zero and
# keep the powers of 1/(1 -+ t) from overflowing
_EDGE = 2e-3

# highest bump derivative the recursion gives: the jet of S^(j) reaches
# S^(j+2), a bump derivative of order j + 1, so sup norms of S^(j) can be
# taken up to j = 12
_MAX_BUMP_ORDER = 13

# degree of the Chebyshev interpolant of S
_CHEB_DEGREE = 96

# most points one bump_derivatives recursion holds its k + 1 rows and k
# pole terms for; longer inputs are split into equal blocks
_BLOCK = 1024

# Gauss-Legendre points on each panel between interpolation nodes; 8
# already give the same sums to the last bit
_PANEL_POINTS = 16


def bump_derivatives(k: int, t, first: int = 0) -> np.ndarray:
    """Rows psi^(first), ..., psi^(k) of the bump at the points t, shape
    (k + 1 - first,) + t.shape.

    psi = exp(g) with g = -1/(1-t^2) = -(1/(1-t) + 1/(1+t))/2, so
    g^(i) = -i!/2 [(1-t)^-(i+1) + (-1)^i (1+t)^-(i+1)], and the Leibniz
    rule on psi' = g' psi gives psi^(m+1) = sum_{i<=m} C(m,i) g^(i+1)
    psi^(m-i).  Every row is zero outside the support.  The recursion
    runs on at most _BLOCK points at a time, so only the rows from first
    on are ever held for every point; each row is elementwise in t, so
    the blocks change no value.
    """
    if not 0 <= k <= _MAX_BUMP_ORDER:
        raise ValueError(f"bump derivatives supported up to order {_MAX_BUMP_ORDER}")
    t = np.atleast_1d(np.asarray(t, dtype=float))
    flat = t.ravel()
    out, start = np.empty((k + 1 - first,) + flat.shape), 0
    for block in np.array_split(flat, max(1, -(-flat.size // _BLOCK))):
        out[:, start:start + block.size] = _leibniz_rows(k, block)[first:]
        start += block.size
    return out.reshape(out.shape[:1] + t.shape)


def bump(t):
    """exp(-1/(1-t^2)) inside (-1, 1), zero outside."""
    return bump_derivatives(0, t)[0]


def _leibniz_rows(k: int, t: np.ndarray) -> np.ndarray:
    """Rows psi, ..., psi^(k) at the flat points t (see bump_derivatives)."""
    inside = 1.0 - t * t > _EDGE
    # rows are built at every point, with the outside ones moved to 0 and
    # zeroed at the end, so no row is copied out of a compressed array
    t = np.where(inside, t, 0.0)
    left, right = 1.0 / (1.0 - t), 1.0 / (1.0 + t)
    g = [-0.5 * math.factorial(i) * (left ** (i + 1) + (-1) ** i * right ** (i + 1))
         for i in range(1, k + 1)]
    out = np.empty((k + 1,) + t.shape)
    out[0] = np.exp(-1.0 / (1.0 - t * t))
    for m in range(k):
        out[m + 1] = sum(math.comb(m, i) * g[i] * out[m - i] for i in range(m + 1))
    out[:, ~inside] = 0.0
    return out


@dataclass
class MollifierTable:
    """The smooth step S, its derivatives and their sup norms.

    S itself is the Chebyshev interpolant cheb_coeffs (degree _CHEB_DEGREE)
    on [-1, 1], which transition zones integrate exactly; S^(j) for j >= 1
    is 2/Z psi^(j-1), a row of bump_derivatives, and every derivative is
    read through jet(u, rows, order).  mass is the bump mass Z.
    s_norm(j) is the one route to the sup of |S^(j)|; no norm is stored
    ahead of time.  max_order is the highest order whose norm every
    ledger lists, not a cap on s_norm.
    """

    max_order: int
    mass: float
    cheb_coeffs: np.ndarray = field(repr=False)
    # sup of |S^(j)| by order j, for each order s_norm has read
    _norms: dict = field(default_factory=dict, init=False, repr=False)

    def jet(self, u, rows: int = 3, order: int = 1) -> np.ndarray:
        """Rows S^(order), ..., S^(order+rows-1) at the points u, order >= 1:
        2/Z times rows order-1, ... of one bump_derivatives recursion."""
        if order < 1:
            raise ValueError("the step's jet starts at order 1")
        return 2.0 / self.mass * bump_derivatives(order + rows - 2, u,
                                                  order - 1)

    def sup_step_derivative(self, j: int) -> float:
        """Sup of |S^(j)| on [-1, 1] for j >= 1, Newton-polished by the
        rows S^(j), S^(j+1) and S^(j+2) of the jet."""
        return sup_norm(lambda u, rows=3: self.jet(u, rows, j),
                        Interval(-1.0, 1.0), floor=8193)

    def s_norm(self, j: int) -> float:
        """Sup of |S^(j)|: exactly 1 for j = 0, else sup_step_derivative,
        computed the first time order j is read."""
        if j == 0:
            return 1.0
        if j not in self._norms:
            self._norms[j] = self.sup_step_derivative(j)
        return self._norms[j]


def _cumulative_bump(nodes: np.ndarray) -> tuple[np.ndarray, float]:
    """int_{-1}^{u} psi at each ascending node u in (-1, 1), and the mass Z.

    The nodes cut [-1, 1] into panels, each integrated by a fixed
    _PANEL_POINTS-point Gauss-Legendre rule, and the running sum of the
    panels gives the node values; its last entry, through u = 1, is Z.
    psi is analytic inside (-1, 1) and flat to all orders at +-1, so the
    rule is exact to rounding on every panel: at first-kind Chebyshev
    nodes the panels shrink like (1 - u^2)^(1/2) toward +-1, where the
    derivatives of psi grow.
    """
    edges = np.concatenate(([-1.0], nodes, [1.0]))
    x, w = _leg.leggauss(_PANEL_POINTS)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    panels = half * (bump(mid[:, None] + half[:, None] * x) @ w)
    cumulative = np.cumsum(panels)
    return cumulative[:-1], float(cumulative[-1])


@functools.cache
def build_mollifier_table() -> MollifierTable:
    """Build the step table, once a process.

    The Chebyshev interpolant of degree _CHEB_DEGREE is fitted to S at
    its first-kind nodes; since S is C^infinity its coefficients decay
    fast enough for zone construction.  Z and the node values of S come
    from one running sum over Gauss-Legendre panels between those nodes
    (see _cumulative_bump), so the node values climb to exactly 1 at
    u = 1 with no second quadrature for Z to disagree with; the test
    suite checks both against adaptive quadrature.
    """
    # interpolation at first-kind nodes: chebfit with full degree is exact there
    nodes = _cheb.chebpts1(_CHEB_DEGREE + 1)
    below, mass = _cumulative_bump(nodes)
    s_nodes = -1.0 + 2.0 / mass * below
    cheb_coeffs = _cheb.chebfit(nodes, s_nodes, _CHEB_DEGREE)

    # every ledger lists the step norms of orders 0..8
    return MollifierTable(max_order=8, mass=mass, cheb_coeffs=cheb_coeffs)
