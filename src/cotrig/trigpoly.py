"""Trigonometric polynomials with exact coefficient calculus.

A degree-n trigonometric polynomial is stored as its mean a0 together with
cosine and sine coefficient arrays.  Differentiation acts exactly on the
coefficients (each derivative multiplies the k-th pair by k and rotates it a
quarter turn), so derivatives of any order carry no numerical error beyond
the final evaluation.
"""

from __future__ import annotations

import numpy as np


class TrigPoly:
    """a0 + sum_k (cos_coeffs[k-1] cos(kt) + sin_coeffs[k-1] sin(kt))."""

    __slots__ = ("a0", "cos_coeffs", "sin_coeffs")

    def __init__(self, a0: float = 0.0, cos_coeffs=None, sin_coeffs=None):
        ac = np.atleast_1d(np.asarray(cos_coeffs if cos_coeffs is not None else [], dtype=float))
        bs = np.atleast_1d(np.asarray(sin_coeffs if sin_coeffs is not None else [], dtype=float))
        n = max(ac.size, bs.size)
        self.a0 = float(a0)
        self.cos_coeffs = np.zeros(n)
        self.sin_coeffs = np.zeros(n)
        self.cos_coeffs[: ac.size] = ac
        self.sin_coeffs[: bs.size] = bs

    @property
    def degree(self) -> int:
        return self.cos_coeffs.size

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        tt = np.atleast_1d(t)
        n = self.degree
        out = np.full(tt.shape, self.a0)
        if n:
            kt = np.outer(tt, np.arange(1, n + 1))
            out = out + np.cos(kt) @ self.cos_coeffs + np.sin(kt) @ self.sin_coeffs
        return float(out[0]) if scalar else out

    def jet(self, t) -> np.ndarray:
        """Rows T, T' and T'' at the points t, from one cos/sin table."""
        tt = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.zeros((3, tt.size))
        out[0] = self.a0
        if self.degree:
            k = np.arange(1, self.degree + 1, dtype=float)
            kt = np.outer(tt, k)
            c, s = np.cos(kt), np.sin(kt)
            a, b = self.cos_coeffs, self.sin_coeffs
            out[0] += c @ a + s @ b
            out[1] = c @ (k * b) - s @ (k * a)
            out[2] = -(c @ (k * k * a) + s @ (k * k * b))
        return out

    def derivative(self, order: int = 1) -> "TrigPoly":
        """Exact derivative of the given order (order >= 0)."""
        if order < 0:
            raise ValueError("derivative order must be nonnegative")
        ac = self.cos_coeffs.copy()
        bs = self.sin_coeffs.copy()
        a0 = self.a0
        k = np.arange(1, self.degree + 1, dtype=float)
        for _ in range(order):
            # (a cos kt + b sin kt)' = kb cos kt - ka sin kt
            ac, bs = k * bs, -k * ac
            a0 = 0.0
        return TrigPoly(a0, ac, bs)

    def __add__(self, other):
        if isinstance(other, TrigPoly):
            n = max(self.degree, other.degree)
            a = np.zeros(n)
            b = np.zeros(n)
            a[: self.degree] += self.cos_coeffs
            a[: other.degree] += other.cos_coeffs
            b[: self.degree] += self.sin_coeffs
            b[: other.degree] += other.sin_coeffs
            return TrigPoly(self.a0 + other.a0, a, b)
        return TrigPoly(self.a0 + float(other), self.cos_coeffs, self.sin_coeffs)

    def __sub__(self, other):
        return self + (other * -1.0 if isinstance(other, TrigPoly) else -float(other))

    def __mul__(self, scalar):
        s = float(scalar)
        return TrigPoly(self.a0 * s, self.cos_coeffs * s, self.sin_coeffs * s)

    __rmul__ = __mul__

    def to_dict(self) -> dict:
        return {
            "kind": "trigpoly",
            "a0": self.a0,
            "cos": self.cos_coeffs.tolist(),
            "sin": self.sin_coeffs.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TrigPoly":
        return cls(d["a0"], d["cos"], d["sin"])

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
