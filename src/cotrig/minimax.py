"""Discretised Chebyshev (minimax) approximation by trigonometric polynomials.

The continuous problem min_T max_t |g(t) - T(t)|, optionally subject to the
sign pattern sigma_l * T^(q) >= 0 on prescribed (lo, hi, sigma) gaps, is
sampled on Chebyshev-clustered grids, cut at the gaps' ends and at the
target's kinks, and solved as a linear program by HiGHS.  The LP
is posed in an orthonormal basis phi of the sampled columns and the level
t: min t subject to |v_i - u_i.phi| <= t at the grid points of a working
set and c_l.phi >= 0 at its sign constraints.  An exchange adds the worst
violated points and constraints to the working set until nothing on the
grid violates.  Each grid solve keeps one growing HiGHS model: new rows
are appended to it and it is re-solved from its last optimal basis, so a
round costs a few dual simplex pivots.  Grids are then refined at the
residual maxima (and, for constrained problems, where the sign pattern
fails) until the discrete error and a finer post-check agree.

The constraint grid holds both ends of every gap.  At a sign change y the
rows of the two gaps that meet there have opposite signs, so together
they force T^(q)(y) = 0, which continuity implies anyway.  The sign check
samples sigma T^(q) on a fixed grid ten times denser than the first
constraint grid and polishes its local minima by Newton steps.  Where a
minimum fails the check, the violation sits at one point: a gap end or an
interior point where T^(q) touches zero.  Doubling the whole grid would
only divide that dip by 4.  Instead the minimum joins the constraint grid
with 8 points that fill the bracket of its neighbouring grid points, and
its row joins the next working set, together with every grid row that
fails the check's tolerance: with long rows the exchange's own tolerance
lets such rows pass.

Only a fit's first grid solves cold.  Every later round starts from the
working set and the optimal simplex basis the last round ended on.  Each
grid keeps its own SVD, so the carried rows are the same points in a new
orthonormal basis, and the carried basis is optimal for them before any
pivot.  The refined objective grid contains the old one, and a refined
constraint grid is the old one with points inserted, in the same order,
so the carried rows are mapped by position and keep the basis's layout.
Every carried row is on the new grid exactly, the LP's constraint set
only grows, and a round's LP optimum cannot fall below the last one's:
each round's LP is still a relaxation of the continuous problem.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import (FULL_PERIOD, TWO_PI, Interval, _newton_refine_max,
                    chebyshev_points)
from .signsets import SignChangeSet
from .simplex import LinearProgram, LPNumericalError, solve_lp
from .trigpoly import TrigPoly, coeffs_from_vector, trig_basis, trig_derivative_basis

# Objective and constraint samples per unit of degree (at least 512),
# twice the sup-norm density because the LP sees only the grid points.
POINTS_PER_DEGREE = 40
# Regridding stops once the post-check error on a grid four times finer
# exceeds the grid error by less than this share of it.
REFINEMENT_TOLERANCE = 1e-7
# Regrid rounds after the first solve.
MAX_REFINEMENTS = 4
# The sign check fails where sigma T^(q) dips below -SIGN_TOLERANCE times
# max(max|T^(q)|, 1) on the check grid.
SIGN_TOLERANCE = 1e-8
# Exchange rounds allowed in one grid solve; running out raises instead of
# returning a fit that still violates the grid.
EXCHANGE_ROUNDS = 60


@dataclass
class ApproxResult:
    approximant: TrigPoly
    error: float
    post_check_error: float
    constraint_violation: float | None
    iterations: int
    duality_gap: float
    alternation_count: int
    converged: bool
    rounds: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "approximant": self.approximant.to_dict(),
            "error": self.error,
            "post_check_error": self.post_check_error,
            "constraint_violation": self.constraint_violation,
            "iterations": self.iterations,
            "duality_gap": self.duality_gap,
            "alternation_count": self.alternation_count,
            "converged": self.converged,
            "rounds": self.rounds,
        }


def _violation_peaks(scores, tol, cap):
    """Isolated local maxima of a violation profile, capped at the worst few.

    Adjacent grid points carry nearly the same row, so one index per
    violation cluster (rather than a block of neighbours) adds as much to
    the working set as the whole block would, at a fraction of its size.
    """
    n = scores.size
    if n == 0:
        return np.zeros(0, dtype=int)
    peak = np.ones(n, dtype=bool)
    if n > 1:
        peak[1:] &= scores[1:] >= scores[:-1]
        peak[:-1] &= scores[:-1] >= scores[1:]
    idx = np.flatnonzero(peak & (scores > tol))
    if idx.size > cap:
        idx = idx[np.argsort(scores[idx])[::-1][:cap]]
    return idx


def _spread(total, count):
    if total == 0:
        return np.zeros(0, dtype=int)
    return np.unique(np.linspace(0, total - 1, min(total, count))
                     .round().astype(int))


def solve_grid_minimax(values, columns, cons_matrix=None, start=None,
                       add_cons=()):
    """Best linear minimax fit on a fixed grid, solved by exchange.

    Minimises max_i |values_i - (columns theta)_i| over theta, subject to
    (cons_matrix theta)_l >= 0.  Returns (theta, error, info).

    The LP runs in an orthonormal basis: with the truncated SVD
    columns = U_k S_k V_k' (singular values above 1e-12 of the largest),
    theta = V_k S_k^-1 phi, so the objective rows are the orthonormal U_k
    and values are scaled to unit maximum.  On narrow windows the trig and
    monomial columns are nearly dependent, and this is what keeps the LP
    well posed there.  Constraint rows are mapped through the same
    transform and scaled to unit length.

    The LP is solved on a working subset of grid points and constraint
    rows, held in one LinearProgram for the whole call: the worst
    violated points and rows are appended to it and it is re-solved from
    its last basis, until nothing on the whole grid violates.  When the
    optimum does not beat the zero fit beyond the exchange tolerance,
    theta = 0 is returned exactly.  LPNumericalError is
    raised when violations remain but no new point or row can join, or
    after EXCHANGE_ROUNDS solves.

    ``info["working_rows"]`` = (point indices, constraint indices) is the
    final working set, ascending, and ``info["basis"]`` the optimal basis
    over it, its rows laid out as the points' lower sides, their upper
    sides, then the constraints.  ``start`` = (point indices, constraint
    indices, basis or None) seeds the working set and, when the basis has
    as many columns as this grid's SVD keeps, the first solve.  The
    constraint indices ``add_cons`` join the working set after that basis
    is installed, their rows basic: rows the caller knows to be violated,
    which the first solve then holds to the LP's feasibility tolerance.
    Coefficients whose largest contribution on the grid is below 1e-12
    of max|values| come back as exact zeros.
    """
    values = np.asarray(values, dtype=float)
    columns = np.asarray(columns, dtype=float)
    M, p = columns.shape
    cons = np.zeros((0, p)) if cons_matrix is None \
        else np.asarray(cons_matrix, dtype=float)
    L = cons.shape[0]

    # scale-free tolerances: the scaled summands of the nested
    # construction have sups around 1e-13
    vscale = float(np.abs(values).max()) if M else 1.0
    if not vscale > 0.0:
        vscale = 1.0
    vals = values / vscale
    U, s, Vt = np.linalg.svd(columns, full_matrices=False)
    keep = s > 1e-12 * s[0]
    U = U[:, keep]
    to_theta = Vt[keep].T / s[keep]
    k = U.shape[1]
    C = cons @ to_theta
    norms = np.linalg.norm(C, axis=1)
    C /= np.where(norms > 0, norms, 1.0)[:, None]

    if start is None:
        work_pts = _spread(M, max(2 * k + 5, 33))
        work_cons = _spread(L, max(k + 5, 17))
        basis = None
    else:
        work_pts, work_cons, basis = start
        work_pts, work_cons = (np.unique(np.asarray(w, dtype=int))
                               for w in (work_pts, work_cons))
    cap = k + 5

    # min t over (phi, t): u_i.phi - t <= v_i, u_i.phi + t >= v_i and
    # c_l.phi >= 0.  An optimum on the whole grid has t <= 1 (phi = 0
    # fits with error max|vals| <= 1), so |U phi| <= 2 on the grid, where
    # U is orthonormal: |phi_j| <= |phi| = |U phi| <= 2 sqrt(M).  So the
    # box changes no whole-grid optimum, and it leaves HiGHS no free
    # column: with free phi, the warm re-solves on the first grid of
    # constrained ideal:2 at n = 64 stopped 2.3e-6 (relative) above that
    # grid's optimum.
    box = 2.0 * np.sqrt(max(M, 1))
    lp = LinearProgram(np.r_[np.zeros(k), 1.0],
                       col_lower=np.r_[np.full(k, -box), 0.0],
                       col_upper=np.r_[np.full(k, box), np.inf])
    # the key of each LP row: i, M + i and 2M + l for the lower and upper
    # sides of point i and for constraint l, so sorting the keys gives
    # the row layout of info["basis"]
    row_keys = []

    def add_rows(pts, cons):
        Up, m, lc = U[pts], pts.size, cons.size
        lp.add_rows(np.block([[Up, -np.ones((m, 1))], [Up, np.ones((m, 1))],
                              [C[cons], np.zeros((lc, 1))]]),
                    lower=np.r_[np.full(m, -np.inf), vals[pts], np.zeros(lc)],
                    upper=np.r_[vals[pts], np.full(m + lc, np.inf)])
        row_keys.append(np.r_[pts, M + pts, 2 * M + cons])

    add_rows(work_pts, work_cons)
    if basis is not None:
        lp.set_basis(*basis)
    add_c = np.setdiff1d(np.asarray(add_cons, dtype=int), work_cons)
    add_rows(np.zeros(0, dtype=int), add_c)
    work_cons = np.union1d(work_cons, add_c)
    total_iters = 0
    for rounds in range(1, EXCHANGE_ROUNDS + 1):
        sol = solve_lp(lp)
        total_iters += sol.iterations
        phi = sol.x[:k]
        t = sol.objective
        over = np.abs(vals - U @ phi) - t
        under = -(C @ phi)
        tol = max(1e-9, 50.0 * sol.duality_gap)
        worst = max(over.max(initial=0.0), under.max(initial=0.0))
        if worst <= tol:
            break
        add_p = _violation_peaks(over, tol, cap)
        add_c = _violation_peaks(under, tol, cap)
        if over.max(initial=0.0) > tol:
            add_p = np.union1d(add_p, [int(np.argmax(over))])
        if under.max(initial=0.0) > tol:
            add_c = np.union1d(add_c, [int(np.argmax(under))])
        add_p = np.setdiff1d(add_p, work_pts)
        add_c = np.setdiff1d(add_c, work_cons)
        if add_p.size == 0 and add_c.size == 0:
            raise LPNumericalError(
                f"exchange stalled in round {rounds}: a violation of "
                f"{worst:.3e} (tolerance {tol:.3e}) remains on rows already "
                f"in the working set")
        add_rows(add_p, add_c)
        work_pts = np.union1d(work_pts, add_p)
        work_cons = np.union1d(work_cons, add_c)
    else:
        raise LPNumericalError(
            f"exchange did not converge in {EXCHANGE_ROUNDS} rounds: a "
            f"violation of {worst:.3e} (tolerance {tol:.3e}) remains")

    # phi = 0 fits with error max|vals| and meets every constraint row;
    # when the optimum does not beat it beyond the exchange tolerance,
    # return it exactly instead of the pivots' rounding noise around it
    top = float(np.abs(vals).max(initial=0.0))
    if t >= top - tol:
        phi, t = np.zeros(k), top
    theta = to_theta @ phi * vscale
    reach = np.abs(theta) * np.abs(columns).max(axis=0, initial=0.0)
    theta[reach < 1e-12 * vscale] = 0.0
    # certify against the whole grid, not just the final working set
    residual = values - columns @ theta
    error = max(t * vscale, float(np.abs(residual).max(initial=0.0)))
    col_status, row_status = lp.basis()
    info = {
        "iterations": total_iters,
        "duality_gap": sol.duality_gap,
        "outer_rounds": rounds,
        "working_points": int(work_pts.size),
        "working_rows": (work_pts, work_cons),
        "basis": (col_status,
                  row_status[np.argsort(np.concatenate(row_keys))]),
    }
    return theta, float(error), info


def count_alternations(xs, residuals, level: float) -> int:
    """Number of alternating residual points within 1e-6 of the level."""
    if level <= 0:
        return 0
    xs = np.asarray(xs)
    res = np.asarray(residuals)
    order = np.argsort(xs)
    res = res[order]
    big = np.abs(res) >= (1.0 - 1e-6) * level
    signs = np.sign(res[big])
    signs = signs[signs != 0]
    if signs.size == 0:
        return 0
    flips = int(np.count_nonzero(np.diff(signs)))
    return flips + 1


def _split_points(subintervals, total: int, minimum: int = 33):
    widths = np.asarray([iv.width for iv in subintervals])
    counts = np.maximum(minimum, np.ceil(total * widths / widths.sum()).astype(int))
    pts = [chebyshev_points(iv, c) for iv, c in zip(subintervals, counts)]
    return np.unique(np.concatenate(pts))


def _cut_at_breakpoints(subintervals, breakpoints):
    """The subintervals cut at the breakpoints, those outside the domain
    wrapped into it by whole periods."""
    lo = subintervals[0].lo
    x = np.asarray(breakpoints, dtype=float)
    x = np.where((x >= lo) & (x < lo + TWO_PI), x, lo + np.mod(x - lo, TWO_PI))
    out = []
    for iv in subintervals:
        ends = [iv.lo, *np.unique(x[(x > iv.lo) & (x < iv.hi)]), iv.hi]
        out += [Interval(a, b) for a, b in zip(ends, ends[1:])]
    return out


def _local_maxima(xs, vals):
    keep = np.zeros(xs.size, dtype=bool)
    keep[0] = keep[-1] = True
    keep[1:-1] = (vals[1:-1] >= vals[:-2]) & (vals[1:-1] >= vals[2:])
    return xs[keep]


def _gap_points(gaps, per_gap: int, ends: bool = True):
    """per_gap open Chebyshev points on each (lo, hi, sigma) gap, led and
    closed by the gap's ends unless ``ends`` is False, and the index of the
    gap of each point.  The points run gap by gap, ascending, so an end
    two gaps share appears twice, once in each gap."""
    pts = []
    for lo, hi, _ in gaps:
        inner = chebyshev_points(Interval(lo, hi), per_gap, open_ends=True)
        pts.append(np.r_[lo, inner, hi] if ends else inner)
    owner = np.repeat(np.arange(len(gaps)), per_gap + 2 if ends else per_gap)
    return np.concatenate(pts or [np.zeros(0)]), owner


def _signs(gaps, owner):
    """The sign sigma of each point's gap."""
    return np.array([float(sigma) for *_, sigma in gaps])[owner]


def _constraint_rows(gaps, degree: int, q: int, per_gap: int):
    """Open gap points and their rows of sigma T^(q) >= 0 in the trig basis."""
    pts, owner = _gap_points(gaps, per_gap, ends=False)
    return pts, trig_derivative_basis(pts, degree, q) \
        * _signs(gaps, owner)[:, None]


def _sign_check(tp: TrigPoly, q: int, pts, signs, gap_count: int):
    """One pass of the sign check over its dense grid of gap points.

    Every local minimum of sigma T^(q) in a gap is polished by Newton steps
    on the jet of T^(q) between its neighbouring samples, since a narrow
    dip can fall below zero between two positive samples.  Returns the
    worst value of sigma T^(q), sampled or polished, the largest sampled
    |T^(q)|, and the polished minima that fail the check, as (abscissae,
    gap indices).
    """
    dq = tp.derivative(q)
    vals = signs * dq(pts)
    top = float(np.abs(vals).max())
    per_gap = vals.reshape(gap_count, -1)
    count = per_gap.shape[1]
    side = np.pad(per_gap, ((0, 0), (1, 1)), constant_values=np.inf)
    left, right = side[:, :-2], side[:, 2:]
    # a flat run (T^(q) = 0 on a whole gap) is polished at its two ends
    idx = np.flatnonzero((per_gap <= left) & (per_gap <= right)
                         & ((per_gap != left) | (per_gap != right)))
    col = idx % count
    _, minima = _newton_refine_max(dq.jet, pts[idx], pts[idx - (col > 0)],
                                   pts[idx + (col < count - 1)], -signs[idx])
    polished = signs[idx] * dq(minima)
    worst = float(min(vals.min(), polished.min()))
    fail = polished < -SIGN_TOLERANCE * max(top, 1.0)
    return worst, top, (minima[fail], idx[fail] // count)


def _refine_at_minima(pts, owner, minima):
    """The constraint grid with each minimum and 8 points that fill the
    bracket of its neighbouring grid points in its gap added.

    Returns the new grid's points and gap indices, in the old grid's
    order (gap by gap, ascending), the new index of each old point, and
    the indices of the minima on the new grid.
    """
    add_pts, add_owner = [pts], [owner]
    xs, gap_of = minima
    for g in np.unique(gap_of):
        own = pts[owner == g]
        x = xs[gap_of == g]
        j = np.clip(np.searchsorted(own, x), 1, own.size - 1)
        fill = np.linspace(own[j - 1], own[j], 10)[1:-1]
        new = np.setdiff1d(np.r_[x, fill.ravel()], own)
        add_pts.append(new)
        add_owner.append(np.full(new.size, g))
    pts, owner = np.concatenate(add_pts), np.concatenate(add_owner)
    order = np.lexsort((pts, owner))
    moved = np.empty_like(order)
    moved[order] = np.arange(order.size)
    pts = pts[order]
    return pts, owner[order], moved, np.flatnonzero(np.isin(pts, xs))


def _refinement_loop(target, degree: int, subintervals, q: int, gaps):
    """Shared solve-refine loop.

    gaps are the (lo, hi, sigma) triples on which sigma T^(q) >= 0 is
    imposed; an unconstrained fit has none.  The constraint grid holds
    both ends of every gap and, inside it, as many open Chebyshev points
    as the first objective grid has in all.  The objective grid refines at the residual maxima.  When the sign
    check fails, the constraint grid is refined at the check's failing
    minima, up to three times, and those rows and every grid row below
    the check's tolerance join the next working set (module docstring).
    Each round after the first starts from the last one's working set
    and basis, its constraint rows carried by position.  The fit is
    ``converged`` when its last round passed both the gap test and the
    sign check.

    A target's ``breakpoints``, where a derivative jumps, cut the
    subintervals, so that both the objective grid and the post-check grid
    hold every kink; a target without them is kink-free.
    """
    subintervals = _cut_at_breakpoints(subintervals,
                                       getattr(target, "breakpoints", ()))
    total = max(POINTS_PER_DEGREE * max(degree, 1), 512)
    points = _split_points(subintervals, total)
    fine = _split_points(subintervals, 4 * total)
    scale = float(np.abs(np.asarray(target(fine))).max())
    floor = 1e-12 * max(1.0, scale)

    cons_pts, cons_owner = _gap_points(gaps, total)
    check_pts, check_owner = _gap_points(gaps, 10 * total)
    check_signs = _signs(gaps, check_owner)
    cons_rows = None
    rounds = []
    start, failing = None, ()
    sign_refinements = 0
    for _ in range(MAX_REFINEMENTS + 1):
        if cons_rows is None:
            cons_rows = trig_derivative_basis(cons_pts, degree, q) \
                * _signs(gaps, cons_owner)[:, None]
        values = np.asarray(target(points), dtype=float)
        columns = trig_basis(points, degree)
        theta, error, info = solve_grid_minimax(values, columns, cons_rows,
                                                start=start, add_cons=failing)
        work_pts, work_cons = info["working_rows"]
        tp = coeffs_from_vector(theta, degree)

        fine_all = np.unique(np.concatenate([fine, points]))
        residual = np.asarray(target(fine_all)) - tp(fine_all)
        post = float(np.abs(residual).max())
        signs_ok, violation, relative = True, None, None
        if gaps:
            worst, top, minima = _sign_check(tp, q, check_pts, check_signs,
                                             len(gaps))
            check_scale = max(top, 1.0)
            violation = max(0.0, -worst)
            relative = violation / check_scale
            signs_ok = relative <= SIGN_TOLERANCE
        rounds.append({"grid_points": int(points.size), "error": error,
                       "post_check_error": post,
                       "constraint_points": int(cons_pts.size),
                       "constraint_violation": violation,
                       "constraint_violation_relative": relative,
                       "exchange_rounds": info["outer_rounds"],
                       "working_points": info["working_points"],
                       "working_constraints": int(work_cons.size),
                       "lp_iterations": info["iterations"]})
        gap_ok = (post - error) <= REFINEMENT_TOLERANCE * max(error, floor) \
            or post <= floor
        converged = gap_ok and signs_ok
        refine = not signs_ok and sign_refinements < 3
        if gap_ok and not refine:
            break
        kept_pts, failing = points[work_pts], ()
        if refine:
            sign_refinements += 1
            # rows below the check's tolerance that the exchange let pass
            low = np.flatnonzero(cons_rows @ theta
                                 < -SIGN_TOLERANCE * check_scale)
            cons_pts, cons_owner, moved, at_minima = _refine_at_minima(
                cons_pts, cons_owner, minima)
            work_cons = moved[work_cons]
            failing = np.union1d(at_minima, moved[low])
            cons_rows = None
        if not gap_ok:
            add = _local_maxima(fine_all, np.abs(residual))
            points = np.unique(np.concatenate([points, add]))
        # both grids keep the carried rows in their order, so the basis
        # keeps its layout
        start = (np.searchsorted(points, kept_pts), work_cons, info["basis"])
    # post is a sup estimate and error a grid max: clamp 1-ulp inversions
    post = max(post, error)
    level = max(error, post)
    alternations = count_alternations(fine_all, residual, error if error > 0 else level)
    return ApproxResult(approximant=tp, error=error, post_check_error=post,
                        constraint_violation=violation,
                        iterations=info["iterations"],
                        duality_gap=info["duality_gap"],
                        alternation_count=alternations, converged=converged,
                        rounds=rounds)


def best_approx(target, degree: int,
                domain: Interval | None = None) -> ApproxResult:
    """Best unconstrained trig approximation on the domain (default: period)."""
    return _refinement_loop(target, degree, [domain or FULL_PERIOD], 0, ())


def best_co_q_monotone(target, degree: int, q: int,
                       ys: SignChangeSet) -> ApproxResult:
    """Best approximation whose q-th derivative obeys the sign pattern of ys."""
    if q < 1:
        raise ValueError("q must be a positive integer")
    gaps = ys.intervals()
    return _refinement_loop(target, degree,
                            [Interval(lo, hi) for lo, hi, _ in gaps], q, gaps)
