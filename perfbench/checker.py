"""Independent answer checker: own evaluation, own reference optima.

Nothing here calls cotrig.  Approximants are evaluated from their
coefficients with this module's cos/sin code; targets (the periodic
ideal spline through Bernoulli polynomials, the power kink F_r) are
written out again.  Reference optima solve the same discretised minimax
LP on a denser grid with ``scipy.optimize.linprog(method="highs")`` in
an SVD-orthonormalised basis with normalised values.

Tolerances are fixed here, before any answer is seen:

* TOL_OPT: an answer whose dense sup error exceeds the reference optimum
  by more than this share is suboptimal.  The reference grid has
  REF_PER_DEGREE Chebyshev points per degree on each kink-free piece,
  which underestimates a sup by at most about (pi n h)^2 / 8 < 2e-4
  relative, so 1e-3 leaves a five-fold margin.
* TOL_REPORT: the reported error may sit below the recomputed sup by at
  most this share; the program's own post-check grid (160 points per
  degree) can miss a peak by about 5e-4 relative.
* TOL_SIGN: sigma * T^(q) may dip below zero on the gaps by at most this
  share of max |T^(q)| (or by its rounding error, when T^(q) is ~0).  A
  solution of the discretised LP dips between its constraint points by
  about (n h)^2 / 8 of max |T^(q)|; the reference solution at
  REF_PER_DEGREE dips by about 1e-4 (8e-5 for the thm-13 target at
  n = 6), so a dip ten times that means the sign pattern was not
  enforced.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog

TOL_OPT = 1e-3
TOL_REPORT = 1e-3
TOL_SIGN = 1e-3
REF_PER_DEGREE = 256
CHECK_PER_DEGREE = 1024
TWO_PI = 2.0 * math.pi

# ---------------------------------------------------------------------------
# evaluation


def trig_eval(a0, cos_c, sin_c, x, order: int = 0):
    """order-th derivative of a0 + sum_k cos_c[k-1] cos kx + sin_c[k-1] sin kx."""
    x = np.asarray(x, dtype=float)
    a = np.asarray(cos_c, dtype=float)
    b = np.asarray(sin_c, dtype=float)
    k = np.arange(1, a.size + 1, dtype=float)
    # each derivative maps (a, b) -> (k b, -k a)
    for _ in range(order % 4):
        a, b = b, -a
    scale = k ** order
    kx = np.outer(x, k)
    out = np.cos(kx) @ (a * scale) + np.sin(kx) @ (b * scale)
    return out + (float(a0) if order == 0 else 0.0)


def trig_columns(x, n: int) -> np.ndarray:
    """[1, cos x, ..., cos nx, sin x, ..., sin nx] at each x."""
    kx = np.outer(np.asarray(x, dtype=float), np.arange(1, n + 1))
    return np.hstack([np.ones((kx.shape[0], 1)), np.cos(kx), np.sin(kx)])


def trig_derivative_columns(x, n: int, order: int) -> np.ndarray:
    """order-th derivatives of the trig_columns basis (constant column 0)."""
    x = np.asarray(x, dtype=float)
    cols = np.zeros((x.size, 2 * n + 1))
    eye = np.eye(n)
    for j in range(n):
        cols[:, 1 + j] = trig_eval(0.0, eye[j], np.zeros(n), x, order)
        cols[:, 1 + n + j] = trig_eval(0.0, np.zeros(n), eye[j], x, order)
    return cols


def _bernoulli(n: int, t):
    """Bernoulli polynomial B_n(t), n = 2, 3 (ideal splines r = 1, 2)."""
    t = np.asarray(t, dtype=float)
    if n == 2:
        return t * t - t + 1.0 / 6.0
    if n == 3:
        return t ** 3 - 1.5 * t * t + 0.5 * t
    raise ValueError("Bernoulli polynomials implemented for n = 2, 3")


def ideal_spline(r: int, b: float, x):
    """Zero-mean 2pi-periodic f with f^(r) = sign step minus its mean on
    the window (-b, 2pi - b): jumps +2 at 0 and -2 at -b.  A jump J at p
    contributes -J (2pi)^r B~_{r+1}((x - p) / 2pi) / (r + 1)!."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for jump, at in ((2.0, 0.0), (-2.0, -b)):
        u = (x - at) / TWO_PI
        out -= jump * TWO_PI ** r * _bernoulli(r + 1, u - np.floor(u))
    return out / math.factorial(r + 1)


def abs_power(r: int, x):
    """F_r(x) = |x| x^(r-1) / r!."""
    x = np.asarray(x, dtype=float)
    return np.abs(x) * x ** (r - 1) / math.factorial(r)


def target_values(target: dict, x):
    if target["kind"] == "ideal":
        return ideal_spline(target["r"], target["b"], x)
    if target["kind"] == "abs_power":
        return abs_power(target["r"], x)
    raise ValueError(f"unknown target kind {target['kind']!r}")


# ---------------------------------------------------------------------------
# grids


def _cheb(lo: float, hi: float, count: int) -> np.ndarray:
    theta = np.pi * np.arange(count) / (count - 1.0)
    return 0.5 * (lo + hi) - 0.5 * (hi - lo) * np.cos(theta)


def dense_grid(lo: float, hi: float, kinks, per_degree: int, n: int):
    """Chebyshev points on every kink-free piece of [lo, hi]; the kinks
    (taken modulo 2pi into the interval) are grid points."""
    cuts = {lo, hi}
    for k in kinks:
        k = lo + (k - lo) % TWO_PI if hi - lo >= TWO_PI - 1e-12 else k
        if lo < k < hi:
            cuts.add(float(k))
    cuts = sorted(cuts)
    total = per_degree * (n + 1)
    width = hi - lo
    parts = [_cheb(a, c, max(65, int(math.ceil(total * (c - a) / width))))
             for a, c in zip(cuts, cuts[1:])]
    return np.unique(np.concatenate(parts))


def gap_grid(points, per_degree: int, n: int):
    """Points strictly inside each sign-change gap of one period, and the
    sign sigma required there.  Gap l runs from the l-th point to the next
    (the last wraps around); sigma alternates and is -1 on the gap above
    the lowest point."""
    pts = sorted(float(p) for p in points)
    ext = pts + [pts[0] + TWO_PI]
    xs, sig = [], []
    for l in range(len(pts)):
        lo, hi = ext[l], ext[l + 1]
        count = max(65, int(per_degree * (n + 1) * (hi - lo) / TWO_PI))
        g = _cheb(lo, hi, count + 2)[1:-1]
        xs.append(g)
        sig.append(np.full(g.size, -1.0 if l % 2 == 0 else 1.0))
    return np.concatenate(xs), np.concatenate(sig)


def window_gap_grid(b: float, per_degree: int, n: int):
    """Points of (-b, 0) and (0, b) with sigma = sign(t)."""
    count = max(65, per_degree * (n + 1) // 2)
    left = _cheb(-b, 0.0, count + 2)[1:-1]
    right = _cheb(0.0, b, count + 2)[1:-1]
    xs = np.concatenate([left, right])
    return xs, np.sign(xs)


# ---------------------------------------------------------------------------
# reference optimum


def minimax_lp(values, columns, cons_rows=None):
    """min_theta max_i |values_i - (columns theta)_i| subject to
    cons_rows theta >= 0.  Returns (optimum, theta, status); optimum is
    None when HiGHS does not report an optimal solution."""
    values = np.asarray(values, dtype=float)
    vmax = float(np.abs(values).max()) or 1.0
    v = values / vmax
    u, s, vt = np.linalg.svd(columns, full_matrices=False)
    keep = s > 1e-12 * s[0]
    uk = u[:, keep]
    to_theta = vt[keep].T / s[keep]
    k = uk.shape[1]
    ones = np.ones((v.size, 1))
    blocks = [np.hstack([uk, -ones]), np.hstack([-uk, -ones])]
    rhs = [v, -v]
    if cons_rows is not None and len(cons_rows):
        c = np.asarray(cons_rows, dtype=float) @ to_theta
        norms = np.linalg.norm(c, axis=1)
        c = c / np.where(norms > 0, norms, 1.0)[:, None]
        blocks.append(np.hstack([-c, np.zeros((c.shape[0], 1))]))
        rhs.append(np.zeros(c.shape[0]))
    cost = np.zeros(k + 1)
    cost[-1] = 1.0
    bounds = [(None, None)] * k + [(0.0, None)]
    res = linprog(cost, A_ub=np.vstack(blocks), b_ub=np.concatenate(rhs),
                  bounds=bounds, method="highs")
    if res.status != 0:
        return None, None, int(res.status)
    theta = to_theta @ res.x[:k] * vmax
    return float(res.x[-1]) * vmax, theta, 0


def _window_columns(x, n: int, r: int) -> np.ndarray:
    mono = np.column_stack([x ** j for j in range(r + 1)])
    return np.hstack([trig_columns(x, n), -mono])


def reference(check: dict) -> dict:
    """Reference optimum of one case: {"optimum": float} or
    {"optimum": None, "status": highs status}."""
    n = check["n"]
    if check["type"] == "window_floor":
        b, q, r = check["b"], check["q"], check["r"]
        x = dense_grid(-b, b, [0.0], REF_PER_DEGREE, n)
        cx, sig = window_gap_grid(b, REF_PER_DEGREE, n)
        rows = trig_derivative_columns(cx, n, q) * sig[:, None]
        rows = np.hstack([rows, np.zeros((rows.shape[0], r + 1))])
        opt, _, status = minimax_lp(abs_power(r, x), _window_columns(x, n, r),
                                    rows)
    else:
        lo, hi = check["domain"]
        x = dense_grid(lo, hi, check["kinks"], REF_PER_DEGREE, n)
        rows = None
        cons = check["constraint"]
        if cons is not None:
            cx, sig = gap_grid(cons["points"], REF_PER_DEGREE, n)
            rows = trig_derivative_columns(cx, n, cons["q"]) * sig[:, None]
        opt, _, status = minimax_lp(target_values(check["target"], x),
                                    trig_columns(x, n), rows)
    return {"optimum": opt, "status": status}


# ---------------------------------------------------------------------------
# sup norms of returned answers


def dense_sup(f, x) -> float:
    """max |f| over x, with the 16 largest local maxima re-sampled finely
    between their neighbours."""
    x = np.asarray(x, dtype=float)
    y = np.abs(f(x))
    peak = np.ones(y.size, dtype=bool)
    peak[1:] &= y[1:] >= y[:-1]
    peak[:-1] &= y[:-1] >= y[1:]
    idx = np.flatnonzero(peak)
    idx = idx[np.argsort(y[idx])[::-1][:16]]
    best = float(y.max())
    for i in idx:
        lo, hi = x[max(i - 1, 0)], x[min(i + 1, x.size - 1)]
        if hi > lo:
            best = max(best, float(np.abs(f(np.linspace(lo, hi, 257))).max()))
    return best


def _verdict(problems: list, ref: dict | None = None) -> dict:
    """wrong if any check failed; unverified if all passed but the
    reference LP gave no optimum to check optimality against."""
    if problems:
        return {"status": "wrong", "problems": problems}
    if ref is not None and ref["optimum"] is None:
        return {"status": "unverified",
                "problems": [f"reference LP status {ref['status']}"]}
    return {"status": "ok", "problems": []}


def check_solve(check: dict, answer: dict, ref: dict) -> dict:
    """Checks (i) optimality, (ii) honest reported error, (iii) sign
    pattern, for one returned trig approximant."""
    coef = answer["coefficients"]
    a0, ca, sa = coef["a0"], coef["cos"], coef["sin"]
    n = check["n"]
    lo, hi = check["domain"]
    x = dense_grid(lo, hi, check["kinks"], CHECK_PER_DEGREE, n)
    sup = dense_sup(lambda t: target_values(check["target"], t)
                    - trig_eval(a0, ca, sa, t), x)
    problems = _error_problems(sup, answer["post_check_error"], ref)
    cons = check["constraint"]
    if cons is not None:
        cx, sig = gap_grid(cons["points"], CHECK_PER_DEGREE, n)
        problems += _sign_problems(ca, sa, cx, sig, cons["q"])
    return _verdict(problems, ref)


def check_window_floor(check: dict, answer: dict, ref: dict) -> dict:
    n, q, b, r = check["n"], check["q"], check["b"], check["r"]
    theta = np.asarray(answer["theta"], dtype=float)
    x = dense_grid(-b, b, [0.0], CHECK_PER_DEGREE, n)
    sup = dense_sup(lambda t: abs_power(r, t)
                    - _window_columns(np.atleast_1d(t), n, r) @ theta, x)
    problems = _error_problems(sup, answer["post"], ref)
    cx, sig = window_gap_grid(b, CHECK_PER_DEGREE, n)
    problems += _sign_problems(theta[1:n + 1], theta[n + 1:2 * n + 1], cx,
                               sig, q)
    return _verdict(problems, ref)


def _error_problems(sup: float, reported: float, ref: dict) -> list:
    problems = []
    opt = ref["optimum"]
    if opt is not None and sup > opt * (1.0 + TOL_OPT):
        problems.append(f"suboptimal: sup error {sup:.6e} is "
                        f"{100 * (sup / opt - 1):.3g} % above the "
                        f"reference optimum {opt:.6e}")
    if reported < sup * (1.0 - TOL_REPORT):
        problems.append(f"under-reported: error {reported:.6e} is "
                        f"{100 * (1 - reported / sup):.3g} % below the "
                        f"dense sup {sup:.6e}")
    return problems


def _sign_problems(cos_c, sin_c, x, sigma, q: int) -> list:
    """sigma * T^(q) >= -tol on x.  tol is TOL_SIGN of max |T^(q)|, and
    never below the rounding error of evaluating T^(q) from its terms."""
    dq = trig_eval(0.0, cos_c, sin_c, x, q)
    worst = float((sigma * dq).min())
    k = np.arange(1, len(cos_c) + 1, dtype=float)
    terms = float(np.sum(k ** q * (np.abs(cos_c) + np.abs(sin_c))))
    tol = max(TOL_SIGN * float(np.abs(dq).max()), 1e-13 * terms)
    if worst < -tol:
        return [f"sign pattern broken: min sigma T^(q) = {worst:.3e} "
                f"below -{tol:.1e}"]
    return []


def check_build(check: dict, answer: dict) -> dict:
    s = answer["summary"]
    problems = []
    if check["kind"] in ("partial-sum", "fnb"):
        if check["kind"] == "partial-sum" and s["plan_satisfied"] is not True:
            problems.append("plan inequalities not satisfied")
        if s["membership"] is not True:
            problems.append("class membership fails")
        if not s["sup_top_derivative"] <= 1.0 + 1e-9:
            problems.append(f"top derivative sup {s['sup_top_derivative']!r}"
                            f" exceeds the cap 1")
    else:
        r, d = s["r"], s["d"]
        cap = 2.0 - d / math.pi  # sup of the ideal spline's r-th derivative
        top = s["derivative_sups"][str(r)]
        if not top <= cap * (1.0 + 1e-9):
            problems.append(f"sup|f^({r})| = {top!r} exceeds the ideal "
                            f"spline's {cap!r}")
        if not 0.0 < s["distance_to_ideal"] < math.inf:
            problems.append("distance to the ideal spline not finite "
                            "and positive")
    return _verdict(problems)


def check_experiment(answer: dict) -> dict:
    return _verdict([] if answer["passed"] is True
                    else ["a declared assertion failed"])


def check(check_spec: dict, answer: dict, ref: dict | None) -> dict:
    """Verdict {"status": ok | wrong | unverified, "problems": [...]}."""
    kind = check_spec["type"]
    if kind == "solve":
        return check_solve(check_spec, answer, ref)
    if kind == "window_floor":
        return check_window_floor(check_spec, answer, ref)
    if kind == "build":
        return check_build(check_spec, answer)
    if kind == "experiment":
        return check_experiment(answer)
    raise ValueError(f"unknown check type {kind!r}")


def needs_reference(check_spec: dict) -> bool:
    return check_spec["type"] in ("solve", "window_floor")
