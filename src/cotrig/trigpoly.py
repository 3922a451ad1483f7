"""Trigonometric polynomials with exact coefficient calculus.

A degree-n trigonometric polynomial is stored as its mean a0 together with
cosine and sine coefficient arrays.  Every derivative is read through one
accessor, jet(t, rows, order), which returns T^(order), ...,
T^(order+rows-1) at the points.  Differentiation acts exactly on the
coefficients (each derivative multiplies c_k by ik, turning the k-th pair a
quarter turn and scaling it by k), so derivatives of any order carry no
numerical error beyond the final evaluation.

Evaluation writes T(t) = a0 + Re sum_k c_k z^k with c_k = a_k - i b_k and
z = e^{it}, and sums the power series by Horner's rule in z: n complex
multiply-adds over the points, O(M) memory for M points, and a rounding
error of O(n eps sum_k |c_k|) (Higham, Accuracy and Stability of Numerical
Algorithms, 5.1).  The jet runs the same loop over the rows c_k (ik)^j,
j = order, ..., order + rows - 1, whose real parts are the derivatives;
evaluation is row 0 of the order-0 jet.
Coefficients with a leading axis of length K store K polynomials of one
degree, a family for grids.sup_norm; each point runs the same Horner
steps on its own member's coefficients, so a member's values are those it
has on its own.
The basis matrices that feed the minimax LP keep their cos/sin table: the
LP needs every column, not their sum.
"""

from __future__ import annotations

import numpy as np


class TrigPoly:
    """a0 + sum_k (cos_coeffs[k-1] cos(kt) + sin_coeffs[k-1] sin(kt)).

    Coefficients with a leading axis make a stack of K polynomials of one
    degree, a family in the sense of grids.sup_norm: cos_coeffs and
    sin_coeffs of shape (K, n), and a0 a float or K of them.
    """

    __slots__ = ("a0", "cos_coeffs", "sin_coeffs")

    def __init__(self, a0: float = 0.0, cos_coeffs=None, sin_coeffs=None):
        ac = np.atleast_1d(np.asarray(cos_coeffs if cos_coeffs is not None else [], dtype=float))
        bs = np.atleast_1d(np.asarray(sin_coeffs if sin_coeffs is not None else [], dtype=float))
        lead = ac.shape[:-1] or bs.shape[:-1] or getattr(a0, "shape", ())
        n = max(ac.shape[-1], bs.shape[-1])
        self.a0 = np.array(np.broadcast_to(a0, lead), dtype=float) if lead \
            else float(a0)
        self.cos_coeffs = np.zeros(lead + (n,))
        self.sin_coeffs = np.zeros(lead + (n,))
        self.cos_coeffs[..., : ac.shape[-1]] = ac
        self.sin_coeffs[..., : bs.shape[-1]] = bs

    @property
    def degree(self) -> int:
        return self.cos_coeffs.shape[-1]

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = self.jet(t, 1)[0].reshape(t.shape)
        return float(out) if t.ndim == 0 else out

    def jet(self, t, rows: int = 3, order: int = 0,
            owner=None) -> np.ndarray:
        """Rows T^(order), ..., T^(order+rows-1) at the points t, shape
        (rows, t.size), by Horner in e^{it}.

        Row j sums Re c_k (ik)^(order+j); its coefficients are built by
        order + j multiplications by ik.  a0 joins row 0 at order 0 only.
        A stack of K gives (rows, K, t.size), every member at every
        point, or with owner, an integer array of t's size, (rows,
        t.size), member owner[i] at t[i].  Each point takes the same
        Horner steps on its own member's coefficients either way, so a
        member's values do not depend on what else is evaluated with it.
        """
        if order < 0:
            raise ValueError("derivative order must be nonnegative")
        t = np.asarray(t, dtype=float).ravel()
        n = self.degree
        a0 = self.a0 if order == 0 else 0.0
        if isinstance(a0, np.ndarray):
            a0 = a0[:, None] if owner is None else a0[owner]
        if not n:
            lead = self.cos_coeffs.shape[:-1] if owner is None else ()
            out = np.zeros((rows,) + lead + t.shape)
            out[0] = a0
            return out
        coeffs = np.empty((order + rows,) + self.cos_coeffs.shape,
                          dtype=complex)
        coeffs[0] = self.cos_coeffs - 1j * self.sin_coeffs
        ik = 1j * np.arange(1, n + 1)
        for j in range(1, order + rows):
            np.multiply(coeffs[j - 1], ik, out=coeffs[j])
        coeffs = coeffs[order:]
        z = np.exp(1j * t)
        if owner is not None:
            # each point's own member: (rows, points, n) against a column
            coeffs, z = coeffs[:, owner], z[:, None]
        acc = coeffs[..., -1:] * z
        for k in range(n - 2, -1, -1):
            acc += coeffs[..., k:k + 1]
            acc *= z
        if owner is not None:
            acc = acc[..., 0]
        out = acc.real.copy()
        out[0] += a0
        return out

    def to_dict(self) -> dict:
        return {
            "kind": "trigpoly",
            "a0": self.a0,
            "cos": self.cos_coeffs.tolist(),
            "sin": self.sin_coeffs.tolist(),
        }

    def __repr__(self):
        return f"TrigPoly(degree={self.degree}, a0={self.a0:.6g})"


def trig_basis(ts: np.ndarray, degree: int) -> np.ndarray:
    """Point-evaluation matrix of the basis [1, cos kt, sin kt], k=1..degree."""
    ts = np.asarray(ts, dtype=float)
    cols = [np.ones_like(ts)]
    if degree:
        kt = np.outer(ts, np.arange(1, degree + 1))
        cols.append(np.cos(kt))
        cols.append(np.sin(kt))
        return np.column_stack(cols)
    return cols[0][:, None]


def trig_derivative_basis(ts: np.ndarray, degree: int, order: int) -> np.ndarray:
    """Point evaluations of the order-th derivative of each basis element.

    Column layout matches trig_basis: constant, cosines, sines.  Uses the
    phase-shift identity d^q/dt^q cos(kt) = k^q cos(kt + q pi/2).
    """
    ts = np.asarray(ts, dtype=float)
    if order == 0:
        return trig_basis(ts, degree)
    out = np.zeros((ts.size, 2 * degree + 1))
    if degree:
        k = np.arange(1, degree + 1)
        kt = np.outer(ts, k)
        phase = order * np.pi / 2.0
        scale = k.astype(float) ** order
        out[:, 1 : degree + 1] = np.cos(kt + phase) * scale
        out[:, degree + 1 :] = np.sin(kt + phase) * scale
    return out


def coeffs_from_vector(theta: np.ndarray, degree: int) -> TrigPoly:
    """Build a TrigPoly from a stacked coefficient vector [a0, cos..., sin...]."""
    theta = np.asarray(theta, dtype=float)
    return TrigPoly(theta[0], theta[1 : degree + 1], theta[degree + 1 : 2 * degree + 1])
