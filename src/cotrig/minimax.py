"""Discretised Chebyshev (minimax) approximation by trigonometric polynomials.

The continuous problem min_T max_t |g(t) - T(t)|, optionally subject to the
sign pattern sigma_l * T^(q) >= 0 on prescribed (lo, hi, sigma) gaps, is
sampled on Chebyshev-clustered grids, cut at the gaps' ends and at the
target's kinks, and solved as a linear program by HiGHS.  The LP
is posed in an orthonormal basis phi of the sampled columns and the level
t: min t subject to |v_i - u_i.phi| <= t at the grid points of a working
set and c_l.phi >= 0 at its sign constraints.  An exchange adds the worst
violated points and constraints to the working set until nothing on the
grid violates.  The working set lives in one growing HiGHS model: new
rows are appended to it and it is re-solved from its last optimal basis,
so an exchange round costs a few dual simplex pivots.  Grids are then
refined at the residual maxima (and, for constrained problems, where the
sign pattern fails) until the discrete error and a finer post-check
agree.

The constraint grid holds both ends of every gap.  At a sign change y the
rows of the two gaps that meet there have opposite signs, so together
they force T^(q)(y) = 0, which continuity implies anyway.  The sign check
reads sigma T^(q) on the constraint grid itself, as the constraint rows
times the coefficients, and polishes its local minima in each gap by
Newton steps.  Where a minimum fails the check, the violation sits at
one point: a gap end or an interior point where T^(q) touches zero.
Doubling the whole grid would only divide that dip by 4.  Instead the
minimum joins the constraint grid with 8 points that fill the bracket of
its neighbouring grid points, and its row joins the next working set,
together with every grid row that fails the check's tolerance: with long
rows the exchange's own tolerance lets such rows pass.

A fit has one LP.  Its first grid's SVD fixes the orthonormal basis phi
and the value scale, and every later round appends the new points and
constraint rows of its grown grids to the same HiGHS model, which
resumes from its own optimal basis.  The refined objective grid contains
the old one and a refined constraint grid is the old one with points
inserted, so every row the LP holds is on the new grid exactly, the LP's
constraint set only grows, and each round's LP is still a relaxation of
the continuous problem.  A round's reported optimum still falls below
the last one's within the exchange's tolerance: the exchange stops once
no row is violated by more than that tolerance, and two rounds can stop
at different points inside it.  Constrained ideal:4:1.2 at q = 5,
n = 64 falls by 3.1e-6 relative between rounds 3 and 4 (ROADMAP item 2).
A round whose LP gains no row and keeps its box starts its exchange
from the LP's last solution instead of solving it again.

Values and rows are built once per fit.  The objective grid refines at
maxima of the residual on the post-check grid, so every refinement point
is a post-check point: the target is evaluated once, on the post-check
grid, and each round reads its values from there.  A grown grid copies
the basis and constraint rows of the points it held and builds only
those of its new points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import (FULL_PERIOD, TWO_PI, Interval, _newton_refine_max,
                    chebyshev_points)
from .signsets import SignChangeSet
from .simplex import LinearProgram, LPNumericalError, LPSolution, solve_lp
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
    converged: bool
    rounds: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "coefficients": self.approximant.to_dict(),
            "error": self.error,
            "post_check_error": self.post_check_error,
            "constraint_violation": self.constraint_violation,
            "iterations": self.iterations,
            "duality_gap": self.duality_gap,
            "converged": self.converged,
            "rounds": self.rounds,
        }


def _peaks(vals):
    """Mask of the samples of vals at least as large as their neighbours."""
    peak = np.ones(vals.size, dtype=bool)
    peak[1:] &= vals[1:] >= vals[:-1]
    peak[:-1] &= vals[:-1] >= vals[1:]
    return peak


def _violation_peaks(scores, tol, cap):
    """Isolated local maxima of a violation profile, capped at the worst few.

    Adjacent grid points carry nearly the same row, so one index per
    violation cluster (rather than a block of neighbours) adds as much to
    the working set as the whole block would, at a fraction of its size.
    """
    idx = np.flatnonzero(_peaks(scores) & (scores > tol))
    if idx.size > cap:
        idx = idx[np.argsort(scores[idx])[::-1][:cap]]
    return idx


def _unheld(held, *picks):
    """The indices in picks that the mask held does not mark, ascending."""
    join = np.zeros(held.size, dtype=bool)
    for idx in picks:
        join[idx] = True
    return np.flatnonzero(join & ~held)


def _joining(held, scores, tol, cap):
    """The violation peaks of scores and its worst index, if it violates,
    that the working set held does not hold yet."""
    worst = [np.argmax(scores)] if scores.max(initial=0.0) > tol else []
    return _unheld(held, _violation_peaks(scores, tol, cap), worst)


def _spread(total, count):
    if total == 0:
        return np.zeros(0, dtype=int)
    return np.unique(np.linspace(0, total - 1, min(total, count))
                     .round().astype(int))


@dataclass
class GridModel:
    """The LP of a grid solve and the transform it is posed in.

    ``to_theta`` maps phi to the coefficients theta, ``vscale`` is the
    value scale, and ``root_m`` the square root of the first grid's size;
    all three are fixed by the first grid and kept on every grid the
    model is resumed on.  ``last`` is the LP's last solution: a resumed
    solve that changes the LP neither by a row nor by its box starts
    from it instead of re-solving.
    """
    lp: LinearProgram
    to_theta: np.ndarray
    vscale: float
    root_m: float
    last: LPSolution | None = None


def solve_grid_minimax(values, columns, cons_matrix=None, model=None,
                       add_cons=()):
    """Best linear minimax fit on a fixed grid, solved by exchange.

    Minimises max_i |values_i - (columns theta)_i| over theta, subject to
    (cons_matrix theta)_l >= 0.  Returns (theta, error, info).

    The LP runs in an orthonormal basis: with the truncated SVD
    columns = U_k S_k V_k' (singular values above 1e-12 of the largest),
    theta = V_k S_k^-1 phi, so the objective rows columns V_k S_k^-1 are
    the orthonormal U_k up to rounding, and values are scaled to unit
    maximum.  On narrow windows the trig and monomial columns are nearly
    dependent, and this is what keeps the LP well posed there.
    Constraint rows are mapped through the same transform and scaled to
    unit length.

    The LP is solved on a working subset of grid points and constraint
    rows, held in one LinearProgram: the worst violated points and rows
    are appended to it and it is re-solved from its last basis, until
    nothing on the whole grid violates.  When the optimum does not beat
    the zero fit beyond the exchange tolerance, theta = 0 is returned
    exactly.  LPNumericalError is raised when violations remain but no
    new point or row can join, or after EXCHANGE_ROUNDS solves.

    ``info["model"]`` is the call's GridModel and ``info["working_rows"]``
    = (point indices, constraint indices) the working set its LP holds,
    ascending.  ``model`` = (an earlier call's GridModel, point indices,
    constraint indices) resumes that LP on a grid that holds the earlier
    one's points and constraint rows: the indices are where the rows the
    LP holds sit on this grid.  The grid's rows are then mapped by the
    model's transform, its SVD is not taken, and the first solve starts
    from the LP's last basis; with no row to add and the box kept, the
    exchange starts from the LP's last solution and does not solve it
    again.  The constraint indices ``add_cons`` join
    the working set before the first solve: rows the caller knows to be
    violated.  Coefficients whose largest contribution on the grid is
    below 1e-12 of max|values| come back as exact zeros.
    """
    values = np.asarray(values, dtype=float)
    columns = np.asarray(columns, dtype=float)
    M, p = columns.shape
    cons = np.zeros((0, p)) if cons_matrix is None \
        else np.asarray(cons_matrix, dtype=float)
    L = cons.shape[0]

    if model is None:
        # scale-free tolerances: the scaled summands of the nested
        # construction have sups around 1e-13
        vscale = float(np.abs(values).max()) if M else 1.0
        if not vscale > 0.0:
            vscale = 1.0
        _, s, Vt = np.linalg.svd(columns, full_matrices=False)
        keep = s > 1e-12 * s[0]
        to_theta = Vt[keep].T / s[keep]
        k = to_theta.shape[1]
        grid = GridModel(LinearProgram(np.r_[np.zeros(k), 1.0]), to_theta,
                         vscale, float(np.sqrt(max(M, 1))))
        work_pts = work_cons = np.zeros(0, dtype=int)
        add_p = _spread(M, max(2 * k + 5, 33))
        add_c = _spread(L, max(k + 5, 17))
    else:
        grid, work_pts, work_cons = model
        add_p = add_c = np.zeros(0, dtype=int)
    # the working set, as masks over the grid's points and rows
    held_pts = np.zeros(M, dtype=bool)
    held_cons = np.zeros(L, dtype=bool)
    held_pts[work_pts] = True
    held_cons[work_cons] = True
    lp, k = grid.lp, grid.to_theta.shape[1]
    vals = values / grid.vscale
    # every row, held or new, from the one formula columns @ to_theta:
    # a held row recomputed another way differs from the LP's copy by
    # rounding, which on narrow windows the exchange reads as a violation
    # it cannot add
    U = columns @ grid.to_theta
    C = cons @ grid.to_theta
    norms = np.linalg.norm(C, axis=1)
    C /= np.where(norms > 0, norms, 1.0)[:, None]
    cap = k + 5

    # min t over (phi, t): u_i.phi - t <= v_i, u_i.phi + t >= v_i and
    # c_l.phi >= 0.  phi = 0 fits with error top = max|vals|, so an
    # optimum on the whole grid has t <= top, and |u_i.phi| <= 1 + top on
    # the first grid's M points, where |v_i| <= 1 and the rows are
    # orthonormal: |phi_j| <= |phi| = |U phi| <= sqrt(M) (1 + top).  A
    # grown grid holds those points, so the bound holds there too.  top
    # is 1 on the first grid, and above 1 on a grown one only where a new
    # point's value exceeds the first grid's largest; the box then widens.
    # So the box changes no whole-grid optimum, and it leaves HiGHS no
    # free column: with free phi, the warm re-solves on the first grid of
    # constrained ideal:2 at n = 64 stopped 2.3e-6 (relative) above that
    # grid's optimum.
    box = grid.root_m * (1.0 + max(float(np.abs(vals).max(initial=0.0)), 1.0))
    stale = grid.last is None
    if box != lp.col_upper[0]:
        lp.set_col_bounds(np.r_[np.full(k, -box), 0.0],
                          np.r_[np.full(k, box), np.inf])
        stale = True

    def add_rows(pts, cons):
        m, lc = pts.size, cons.size
        rows = np.zeros((2 * m + lc, k + 1))
        rows[:m, :k] = rows[m:2 * m, :k] = U[pts]
        rows[:m, k], rows[m:2 * m, k] = -1.0, 1.0
        rows[2 * m:, :k] = C[cons]
        lp.add_rows(rows,
                    lower=np.r_[np.full(m, -np.inf), vals[pts], np.zeros(lc)],
                    upper=np.r_[vals[pts], np.full(m + lc, np.inf)])
        held_pts[pts] = True
        held_cons[cons] = True

    add_c = _unheld(held_cons, add_c, np.asarray(add_cons, dtype=int))
    total_iters = 0
    for rounds in range(1, EXCHANGE_ROUNDS + 1):
        # a resumed LP that gained no row and kept its box is at its
        # optimum already
        if stale or add_p.size or add_c.size:
            add_rows(add_p, add_c)
            grid.last = solve_lp(lp)
            total_iters += grid.last.iterations
        sol = grid.last
        phi = sol.x[:k]
        t = sol.objective
        over = np.abs(vals - U @ phi) - t
        under = -(C @ phi)
        tol = max(1e-9, 50.0 * sol.duality_gap)
        worst = max(over.max(initial=0.0), under.max(initial=0.0))
        if worst <= tol:
            break
        add_p = _joining(held_pts, over, tol, cap)
        add_c = _joining(held_cons, under, tol, cap)
        if add_p.size == 0 and add_c.size == 0:
            raise LPNumericalError(
                f"exchange stalled in round {rounds}: a violation of "
                f"{worst:.3e} (tolerance {tol:.3e}) remains on rows already "
                f"in the working set")
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
    theta = grid.to_theta @ phi * grid.vscale
    reach = np.abs(theta) * np.abs(columns).max(axis=0, initial=0.0)
    theta[reach < 1e-12 * grid.vscale] = 0.0
    # certify against the whole grid, not just the final working set
    residual = values - columns @ theta
    error = max(t * grid.vscale, float(np.abs(residual).max(initial=0.0)))
    info = {
        "iterations": total_iters,
        "duality_gap": sol.duality_gap,
        "outer_rounds": rounds,
        "working_points": int(np.count_nonzero(held_pts)),
        "working_rows": (np.flatnonzero(held_pts), np.flatnonzero(held_cons)),
        "model": grid,
    }
    return theta, float(error), info


def _split_points(subintervals, total: int):
    widths = np.asarray([iv.width for iv in subintervals])
    counts = np.maximum(33, np.ceil(total * widths / widths.sum()).astype(int))
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


def _grown(rows, moved, size, build):
    """The rows of a grid of size points that holds the old one's points
    at the indices moved: the old rows are copied there, and build(idx)
    gives the rows of the new points idx."""
    out = np.empty((size, rows.shape[1]))
    out[moved] = rows
    new = np.ones(size, dtype=bool)
    new[moved] = False
    new = np.flatnonzero(new)
    out[new] = build(new)
    return out


def _gap_points(gaps, per_gap: int):
    """per_gap open Chebyshev points on each (lo, hi, sigma) gap, led and
    closed by the gap's ends, and the index of the gap of each point.
    The points run gap by gap, ascending, so an end two gaps share
    appears twice, once in each gap."""
    pts = []
    for lo, hi, _ in gaps:
        inner = chebyshev_points(Interval(lo, hi), per_gap, open_ends=True)
        pts.append(np.r_[lo, inner, hi])
    owner = np.repeat(np.arange(len(gaps)), per_gap + 2)
    return np.concatenate(pts or [np.zeros(0)]), owner


def _signs(gaps, owner):
    """The sign sigma of each point's gap."""
    return np.array([float(sigma) for *_, sigma in gaps])[owner]


def _constraint_rows(gaps, pts, owner, degree: int, q: int):
    """Rows of sigma T^(q) >= 0 in the trig basis at the gap points pts,
    where owner holds the index of each point's gap."""
    return trig_derivative_basis(pts, degree, q) \
        * _signs(gaps, owner)[:, None]


def _sign_check(tp: TrigPoly, q: int, gaps, pts, owner, vals):
    """The sign check over the constraint grid.

    vals are sigma T^(q) at the grid points pts of the gaps owner, the
    constraint rows times theta.  Every local minimum of vals within a gap
    (a gap end has no neighbour beyond it) is polished by Newton steps on
    the jet of T^(q) between its neighbouring points, since a narrow dip
    can fall below zero between two positive samples.  Returns the worst
    value of sigma T^(q), sampled or polished, the largest sampled
    |T^(q)|, the polished minima that fail the check, as (abscissae, gap
    indices), and the indices of the grid points that fail it.
    """
    signs = _signs(gaps, owner)
    top = float(np.abs(vals).max())
    tol = SIGN_TOLERANCE * max(top, 1.0)
    inner = owner[1:] == owner[:-1]
    left = np.r_[np.inf, np.where(inner, vals[:-1], np.inf)]
    right = np.r_[np.where(inner, vals[1:], np.inf), np.inf]
    # a flat run (T^(q) = 0 on a whole gap) is polished at its two ends
    idx = np.flatnonzero((vals <= left) & (vals <= right)
                         & ((vals != left) | (vals != right)))
    *_, minima = _newton_refine_max(lambda x, _: tp.jet(x, 3, q), pts[idx],
                                    pts[idx - np.isfinite(left[idx])],
                                    pts[idx + np.isfinite(right[idx])],
                                    -signs[idx])
    polished = signs[idx] * tp.jet(minima, 1, q)[0]
    worst = float(min(vals.min(), polished.min()))
    fail = polished < -tol
    return (worst, top, (minima[fail], owner[idx[fail]]),
            np.flatnonzero(vals < -tol))


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
    old = pts.size
    pts, owner = np.concatenate(add_pts), np.concatenate(add_owner)
    order = np.lexsort((pts, owner))
    moved = np.empty_like(order)
    moved[order] = np.arange(order.size)
    pts = pts[order]
    return pts, owner[order], moved[:old], np.flatnonzero(np.isin(pts, xs))


def _refinement_loop(target, degree: int, subintervals, q: int, gaps):
    """Shared solve-refine loop.

    gaps are the (lo, hi, sigma) triples on which sigma T^(q) >= 0 is
    imposed; an unconstrained fit has none.  The constraint grid holds
    both ends of every gap and, inside it, as many open Chebyshev points
    as the first objective grid has in all.  The objective grid refines
    at the residual maxima.  When the sign check fails, the constraint
    grid is refined at the check's failing minima, up to three times, and
    those rows and every grid row below the check's tolerance join the
    next working set (module docstring).  Every round resumes the first
    round's LP on the grown grids.  The fit is ``converged`` when its
    last round passed both the gap test and the sign check.

    A target's ``breakpoints``, where a derivative jumps, cut the
    subintervals, so that both the objective grid and the post-check grid
    hold every kink; a target without them is kink-free.
    """
    subintervals = _cut_at_breakpoints(subintervals,
                                       getattr(target, "breakpoints", ()))
    total = max(POINTS_PER_DEGREE * max(degree, 1), 512)
    points = _split_points(subintervals, total)
    fine = _split_points(subintervals, 4 * total)
    # the post-check grid; every refinement point is taken from it, so
    # the objective grid stays a subset of it and the target is
    # evaluated once per fit
    fine_all = np.unique(np.concatenate([fine, points]))
    f_all = np.asarray(target(fine_all), dtype=float)
    scale = float(np.abs(f_all[np.searchsorted(fine_all, fine)]).max())
    floor = 1e-12 * max(1.0, scale)
    at = np.searchsorted(fine_all, points)
    columns = trig_basis(points, degree)

    cons_pts, cons_owner = _gap_points(gaps, total)
    cons_rows = _constraint_rows(gaps, cons_pts, cons_owner, degree, q)
    rounds = []
    model, failing = None, ()
    sign_refinements = 0
    for _ in range(MAX_REFINEMENTS + 1):
        theta, error, info = solve_grid_minimax(f_all[at], columns, cons_rows,
                                                model=model, add_cons=failing)
        work_pts, work_cons = info["working_rows"]
        tp = coeffs_from_vector(theta, degree)

        residual = f_all - tp(fine_all)
        post = float(np.abs(residual).max())
        signs_ok, violation, relative = True, None, None
        if gaps:
            worst, top, minima, low = _sign_check(
                tp, q, gaps, cons_pts, cons_owner, cons_rows @ theta)
            violation = max(0.0, -worst)
            relative = violation / max(top, 1.0)
            signs_ok = relative <= SIGN_TOLERANCE
        rounds.append({"grid_points": int(at.size), "error": error,
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
        failing = ()
        if refine:
            sign_refinements += 1
            cons_pts, cons_owner, moved, at_minima = _refine_at_minima(
                cons_pts, cons_owner, minima)
            cons_rows = _grown(
                cons_rows, moved, cons_pts.size,
                lambda i: _constraint_rows(gaps, cons_pts[i], cons_owner[i],
                                           degree, q))
            work_cons = moved[work_cons]
            failing = np.union1d(at_minima, moved[low])
        if not gap_ok:
            # at already holds both ends of fine_all
            grown = np.union1d(at, np.flatnonzero(_peaks(np.abs(residual))))
            moved = np.searchsorted(grown, at)
            at = grown
            columns = _grown(columns, moved, at.size,
                             lambda i: trig_basis(fine_all[at[i]], degree))
            work_pts = moved[work_pts]
        model = (info["model"], work_pts, work_cons)
    # post is a sup estimate and error a grid max: clamp 1-ulp inversions
    post = max(post, error)
    return ApproxResult(approximant=tp, error=error, post_check_error=post,
                        constraint_violation=violation,
                        iterations=sum(row["lp_iterations"]
                                       for row in rounds),
                        duality_gap=info["duality_gap"],
                        converged=converged, rounds=rounds)


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
