"""Tests for grid minimax solves and the refinement drivers."""

import numpy as np
import pytest
from scipy.optimize import linprog

from cotrig.grids import FULL_PERIOD, Interval, chebyshev_points
from cotrig import minimax
from cotrig.minimax import best_approx, best_co_q_monotone, solve_grid_minimax
from cotrig.signsets import SignChangeSet
from cotrig.simplex import LinearProgram, LPNumericalError, solve_lp
from cotrig.splines import build_ideal_spline
from cotrig.trigpoly import TrigPoly, trig_basis, trig_derivative_basis


def test_constant_fit():
    values = np.array([0.0, 1.0, 2.0])
    columns = np.ones((3, 1))
    theta, error, info = solve_grid_minimax(values, columns)
    assert error == pytest.approx(1.0, abs=1e-10)
    assert theta[0] == pytest.approx(1.0, abs=1e-10)
    assert info["outer_rounds"] >= 1


def test_line_fit_equioscillates():
    xs = np.array([0.0, 1.0, 2.0])
    values = np.array([0.0, 0.0, 1.0])
    columns = np.column_stack([np.ones(3), xs])
    theta, error, _ = solve_grid_minimax(values, columns)
    assert error == pytest.approx(0.25, abs=1e-10)
    assert theta[0] == pytest.approx(-0.25, abs=1e-9)
    assert theta[1] == pytest.approx(0.5, abs=1e-9)


def test_identity_row_pins_coefficient():
    values = np.array([-2.0, -1.0])
    columns = np.ones((2, 1))
    theta, error, _ = solve_grid_minimax(values, columns,
                                         cons_matrix=np.eye(1))
    assert theta[0] == pytest.approx(0.0, abs=1e-10)
    assert error == pytest.approx(2.0, abs=1e-10)


def test_constraint_row_caps_coefficient():
    values = np.array([1.0, 2.0])
    columns = np.ones((2, 1))
    theta, error, _ = solve_grid_minimax(values, columns,
                                         cons_matrix=np.array([[-1.0]]))
    assert theta[0] == pytest.approx(0.0, abs=1e-10)
    assert error == pytest.approx(2.0, abs=1e-10)


def test_tiny_amplitude_targets_keep_relative_accuracy():
    # amplitudes comparable to the nested summands: the solve must stay
    # scale-free instead of tripping absolute tolerances
    xs = np.array([0.0, 1.0, 2.0])
    amp = 1e-13
    values = amp * np.array([0.0, 0.0, 1.0])
    columns = np.column_stack([np.ones(3), xs])
    theta, error, _ = solve_grid_minimax(values, columns)
    assert error == pytest.approx(0.25 * amp, rel=1e-8)
    assert theta[0] == pytest.approx(-0.25 * amp, rel=1e-6)
    assert theta[1] == pytest.approx(0.5 * amp, rel=1e-6)


def test_zero_values_are_fit_exactly():
    theta, error, _ = solve_grid_minimax(np.zeros(4), np.ones((4, 1)))
    assert error == pytest.approx(0.0, abs=1e-14)
    assert theta[0] == pytest.approx(0.0, abs=1e-14)


def test_exchange_round_cap_raises(monkeypatch):
    # |x| at degree 4 on 2001 points: the 33-point starting working set
    # misses the kink, so the exchange needs a second round
    xs = np.linspace(-np.pi, np.pi, 2001)
    values, columns = np.abs(xs), trig_basis(xs, 4)
    _, _, info = solve_grid_minimax(values, columns)
    assert info["outer_rounds"] >= 2
    monkeypatch.setattr(minimax, "EXCHANGE_ROUNDS", 1)
    with pytest.raises(LPNumericalError, match="did not converge in 1 round"):
        solve_grid_minimax(values, columns)


def test_best_approx_reproduces_representable_target():
    res = best_approx(np.sin, 1)
    assert res.post_check_error <= 1e-10
    assert res.approximant.sin_coeffs[0] == pytest.approx(1.0, abs=1e-8)


def test_best_approx_alternation_and_post_check(random_trig):
    target = random_trig(np.random.default_rng(1), 7, decay=0.25)
    res = best_approx(target, 3)
    assert res.error > 0
    assert res.post_check_error >= res.error
    assert res.post_check_error <= res.error * (1 + 1e-5)
    # Chebyshev alternation: the residual reaches the level with
    # alternating signs at 2n + 2 points or more
    xs = np.linspace(-np.pi, np.pi, 20001)
    resid = target(xs) - res.approximant(xs)
    top = np.sign(resid[np.abs(resid) >= (1 - 1e-4) * res.error])
    assert np.count_nonzero(np.diff(top)) + 1 >= 2 * 3 + 2


def test_best_approx_on_subinterval():
    # fitting x on a short window: much easier than on the full period
    iv = Interval(-0.5, 0.5)
    res_local = best_approx(lambda t: t, 2, domain=iv)
    res_global = best_approx(lambda t: t, 2)
    assert res_local.error < res_global.error


def test_degree_monotonicity(random_trig):
    target = random_trig(np.random.default_rng(2), 8, decay=0.3)
    errors = [best_approx(target, n).post_check_error for n in (2, 4, 6)]
    assert errors[1] <= errors[0] * (1 + 1e-6) + 1e-12
    assert errors[2] <= errors[1] * (1 + 1e-6) + 1e-12


def test_constrained_solve_on_feasible_target():
    # sin is itself co-3-monotone for sign changes at -pi/2 and pi/2
    ys = SignChangeSet([-np.pi / 2, np.pi / 2])
    res = best_co_q_monotone(np.sin, 2, 3, ys)
    assert res.post_check_error <= 1e-8
    assert res.constraint_violation is not None
    assert res.constraint_violation <= 1e-10
    assert res.approximant.sin_coeffs[0] == pytest.approx(1.0, abs=1e-6)


def test_constrained_never_beats_unconstrained(random_trig):
    ys = SignChangeSet([-np.pi / 2, 0.0])
    rng = np.random.default_rng(9)
    for _ in range(6):
        target = random_trig(rng, 6, decay=0.2)
        unc = best_approx(target, 3)
        con = best_co_q_monotone(target, 3, 3, ys)
        assert con.post_check_error >= unc.post_check_error - 1e-9 * max(
            1.0, unc.post_check_error)


def test_constrained_q_validation():
    with pytest.raises(ValueError):
        best_co_q_monotone(np.sin, 2, 0, SignChangeSet([-1.0, 0.0]))


def test_result_serialization():
    res = best_approx(np.sin, 1)
    d = res.to_dict()
    assert d["coefficients"]["kind"] == "trigpoly"
    assert "post_check_error" in d and "rounds" in d
    assert d["converged"] is True


@pytest.mark.parametrize("constrained, converged", [(True, False),
                                                    (False, True)])
def test_fits_say_whether_their_checks_passed(constrained, converged):
    # constrained ideal:2:1.2 at q = 5, n = 16 still dips below its sign
    # pattern after three refinements of the constraint grid, above the
    # 1e-8 relative tolerance of the sign check
    b = 1.2
    target = build_ideal_spline(2, b)
    if constrained:
        res = best_co_q_monotone(target, 16, 5, SignChangeSet([-b, 0.0]))
        assert res.rounds[-1]["constraint_violation_relative"] > 1e-7
    else:
        res = best_approx(target, 8)
    assert res.converged is converged


def test_constrained_fit_meets_its_sign_pattern_and_a_dense_lp():
    # constrained ideal:2:1.2, q = 3, n = 8: refining the constraint grid
    # at the sign check's minima leaves a fit that meets its sign pattern
    # on 20 480 points a gap, 40 times the 512 open points a gap of its
    # first constraint grid, from few added rows
    b, n, q = 1.2, 8, 3
    target = build_ideal_spline(2, b)
    ys = SignChangeSet([-b, 0.0])
    res = best_co_q_monotone(target, n, q, ys)
    assert res.converged is True
    gaps = ys.intervals()
    per_gap = 4 * 10 * 512
    ts = np.concatenate([np.linspace(lo, hi, per_gap) for lo, hi, _ in gaps])
    sigma = np.repeat([float(s) for *_, s in gaps], per_gap)
    signed = sigma * res.approximant.jet(ts, 1, q)[0]
    assert signed.min() >= -1e-8 * np.abs(signed).max()
    assert res.rounds[-1]["constraint_points"] \
        < 2 * res.rounds[0]["constraint_points"]
    # reference: one LP with the rows of 20 000 gap points and every gap
    # end at once, on the objective points of the fit's first post-check
    # (a denser objective grid finds lobe peaks that post-check misses)
    cut = minimax._cut_at_breakpoints([FULL_PERIOD], target.breakpoints)
    xs = np.union1d(minimax._split_points(cut, 512),
                    minimax._split_points(cut, 4 * 512))
    cons = np.concatenate([np.linspace(lo, hi, 10002) for lo, hi, _ in gaps])
    sigma = np.repeat([float(s) for *_, s in gaps], 10002)
    C = trig_derivative_basis(cons, n, q) * sigma[:, None]
    C /= np.linalg.norm(C, axis=1)[:, None]
    A, v = trig_basis(xs, n), target(xs)
    p, m, ones = A.shape[1], xs.size, np.ones((xs.size, 1))
    lp = LinearProgram(np.r_[np.zeros(p), 1.0])
    lp.set_col_bounds(np.r_[np.full(p, -np.inf), 0.0], np.inf)
    lp.add_rows(np.block([[A, -ones], [A, ones],
                          [C, np.zeros((C.shape[0], 1))]]),
                lower=np.r_[np.full(m, -np.inf), v, np.zeros(C.shape[0])],
                upper=np.r_[v, np.full(m + C.shape[0], np.inf)])
    assert res.error == pytest.approx(solve_lp(lp).objective, rel=1e-7)


# thm-12/13 targets with sign changes at -0.6 and 0.6 (minimal gap b = 1.2),
# solved with the canonical sign set (-b, 0).  The unconstrained grids
# hold the kinks -b and 0; a dense LP (256 points a degree, kinks on the
# grid) puts the unconstrained optimum at 2.2175704e-3, and the sampled
# post-check reads 2.2e-5 (relative) below it
@pytest.mark.parametrize("r, n, constrained, error", [
    (1, 8, True, 0.9708168819476706),
    (1, 16, True, 0.9708168819476706),
    (2, 8, True, 0.4725602969561449),
    (2, 8, False, 0.002217522516365311),
])
def test_pinned_theorem_errors(r, n, constrained, error):
    b = 1.2
    target = build_ideal_spline(r, b)
    if constrained:
        res = best_co_q_monotone(target, n, 3, SignChangeSet([-b, 0.0]))
    else:
        res = best_approx(target, n)
    assert res.error == pytest.approx(error, rel=1e-6)
    assert res.post_check_error == pytest.approx(error, rel=1e-6)


@pytest.mark.parametrize("n", [8, 16, 32])
def test_constrained_zero_optimum_is_exact(n):
    # for the r = 1 ideal spline the best co-3-monotone fit is T = 0;
    # solver noise of 1e-14 there would break the sign pattern check
    b = 1.0178075340250505
    res = best_co_q_monotone(build_ideal_spline(1, b), n, 3,
                             SignChangeSet([-b, 0.0]))
    tp = res.approximant
    assert tp.a0 == 0.0
    assert not np.any(tp.cos_coeffs) and not np.any(tp.sin_coeffs)


def _constrained_grid_problem():
    # degree 4 with the co-3-monotone rows of (-pi/2, pi/2): the sign
    # pattern binds at six rows and costs the fit 0.2 -> 0.29
    xs = np.linspace(-np.pi, np.pi, 401)
    values = np.sin(xs) + 0.5 * np.sin(2 * xs) ** 2 + 0.2 * np.abs(xs - 1)
    gaps = SignChangeSet([-np.pi / 2, np.pi / 2]).intervals()
    pts = np.concatenate([chebyshev_points(Interval(lo, hi), 200,
                                           open_ends=True)
                          for lo, hi, _ in gaps])
    owner = np.repeat(np.arange(len(gaps)), 200)
    return values, trig_basis(xs, 4), \
        minimax._constraint_rows(gaps, pts, owner, 4, 3)


def test_exchange_matches_one_lp_over_the_whole_grid():
    values, columns, rows = _constrained_grid_problem()
    theta, error, info = solve_grid_minimax(values, columns, rows)
    assert info["outer_rounds"] >= 2
    assert np.count_nonzero(np.abs(rows @ theta) < 1e-9) >= 1
    # reference: min t over (theta, t) with every grid row at once
    p = columns.shape[1]
    ones = np.ones((values.size, 1))
    A = np.vstack([np.hstack([columns, -ones]), np.hstack([-columns, -ones]),
                   np.hstack([-rows, np.zeros((rows.shape[0], 1))])])
    rhs = np.concatenate([values, -values, np.zeros(rows.shape[0])])
    cost = np.zeros(p + 1)
    cost[-1] = 1.0
    tols = {"primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10}
    ref = linprog(cost, A_ub=A, b_ub=rhs, bounds=[(None, None)] * (p + 1),
                  method="highs", options=tols)
    assert ref.status == 0
    assert error == pytest.approx(ref.fun, abs=1e-10)
    assert np.allclose(theta, ref.x[:p], rtol=0, atol=1e-10)


def test_grid_solves_share_no_solver_state():
    values, columns, rows = _constrained_grid_problem()
    first, _, _ = solve_grid_minimax(values, columns, rows)
    solve_grid_minimax(np.abs(np.sin(3 * values)), columns, rows)
    again, _, _ = solve_grid_minimax(values, columns, rows)
    assert np.array_equal(first, again)


def test_resumed_model_matches_a_cold_solve_of_the_grown_grid():
    # the grown grid adds points, one of them with three times the first
    # grid's largest value, so the resumed LP widens its box on phi
    values, columns, rows = _constrained_grid_problem()
    _, _, info = solve_grid_minimax(values, columns, rows)
    extra = np.array([0.123, 2.5])
    xs = np.linspace(-np.pi, np.pi, 401)
    grown = np.r_[xs, extra]
    order = np.argsort(grown)
    grown_values = np.r_[values, 3.0 * np.abs(values).max(), 0.1][order]
    grown_columns = trig_basis(grown[order], 4)
    held = np.argsort(order)[info["working_rows"][0]]
    theta, error, resumed = solve_grid_minimax(
        grown_values, grown_columns, rows,
        model=(info["model"], held, info["working_rows"][1]))
    cold_theta, cold_error, _ = solve_grid_minimax(grown_values,
                                                   grown_columns, rows)
    assert resumed["model"] is info["model"]
    assert info["model"].lp.col_upper[0] == pytest.approx(
        np.sqrt(xs.size) * 4.0, rel=1e-12)
    assert error == pytest.approx(cold_error, rel=1e-9)
    assert np.allclose(theta, cold_theta, rtol=0, atol=1e-8)


def test_lp_kept_over_a_fit_meets_its_rows():
    # constrained ideal:3:1.2, q = 3, n = 16 keeps one LP over four
    # rounds; solved from HiGHS's updated LU instead of a refactored one,
    # its second round's x missed a row reported tight by 6.4e-9 and the
    # exchange stalled
    b = 1.2
    res = best_co_q_monotone(build_ideal_spline(3, b), 16, 3,
                             SignChangeSet([-b, 0.0]))
    assert len(res.rounds) == 4
    assert res.error == pytest.approx(1.7879727914e-4, rel=1e-6)


def test_sign_check_finds_a_dip_between_grid_points():
    # sigma T' = (1 - d) cos u - cos 2u with u = t - c dips to -d at u = 0
    # and is negative only for |u| < 0.009; c sits halfway between two
    # grid points 0.1 apart, so every grid sample is >= 0
    d, c = 1e-4, 0.05
    tp = TrigPoly(0.0, [-(1 - d) * np.sin(c), 0.5 * np.sin(2 * c)],
                  [(1 - d) * np.cos(c), -0.5 * np.cos(2 * c)])
    gaps = [(-1.0, 1.0, 1)]
    pts = np.linspace(-1.0, 1.0, 21)
    owner = np.zeros(pts.size, dtype=int)
    theta = np.r_[tp.a0, tp.cos_coeffs, tp.sin_coeffs]
    vals = minimax._constraint_rows(gaps, pts, owner, 2, 1) @ theta
    assert vals.min() >= 0.0
    worst, top, (xs, gap_of), low = minimax._sign_check(tp, 1, gaps, pts,
                                                        owner, vals)
    assert worst == pytest.approx(-d, rel=1e-6)
    assert xs == pytest.approx([c], abs=1e-6)
    assert list(gap_of) == [0]
    assert low.size == 0
    assert top == pytest.approx(np.abs(vals).max())


@pytest.mark.parametrize("n", [8, 16])
def test_rounds_carry_their_rows_onto_the_next_grid(monkeypatch, n):
    # constrained ideal:2:1.2 runs four rounds, refining its constraint
    # grid at the sign check's minima after each of the first three; all
    # rounds resume the first round's LP on the grown grids, so the LP's
    # constraint set only grows and its grid error cannot fall
    models, calls = [], []

    class Counting(minimax.LinearProgram):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            models.append(self)

    def capture(values, columns, cons_matrix=None, model=None, add_cons=()):
        theta, error, info = solve(values, columns, cons_matrix, model=model,
                                   add_cons=add_cons)
        calls.append({"columns": columns, "rows": cons_matrix,
                      "model": model, "add": np.asarray(add_cons, int),
                      "working": info["working_rows"]})
        return theta, error, info

    solve = minimax.solve_grid_minimax
    monkeypatch.setattr(minimax, "LinearProgram", Counting)
    monkeypatch.setattr(minimax, "solve_grid_minimax", capture)
    b = 1.2
    res = best_co_q_monotone(build_ideal_spline(2, b), n, 3,
                             SignChangeSet([-b, 0.0]))
    # a first round, then one round for each of three refinements
    assert len(calls) == len(res.rounds) == 4
    assert len(models) == 1
    assert calls[0]["model"] is None
    for old, new in zip(calls, calls[1:]):
        grid_model, pts, cons = new["model"]
        assert grid_model.lp is models[0]
        # the rows the LP holds sit where the new grid says, signs included
        work_pts, work_cons = old["working"]
        assert np.array_equal(new["columns"][pts], old["columns"][work_pts])
        assert np.array_equal(new["rows"][cons], old["rows"][work_cons])
        # the rows at the minima that failed the sign check join the
        # working set
        assert len(new["add"]) > 0
        assert np.isin(new["add"], new["working"][1]).all()
    errors = [row["error"] for row in res.rounds]
    for before, after in zip(errors, errors[1:]):
        assert after >= before * (1.0 - 1e-12)
    first = res.rounds[0]["lp_iterations"]
    assert all(row["lp_iterations"] < first / 4 for row in res.rounds[1:])
    assert res.iterations == sum(row["lp_iterations"] for row in res.rounds)


def test_each_grid_row_is_built_once_per_fit(monkeypatch):
    # every refinement point comes from the post-check grid, so one
    # evaluation of the target serves the whole fit, and a grown grid
    # copies the basis and constraint rows of the points it already held
    b = 1.2
    spline = build_ideal_spline(2, b)
    seen, built = [], {"columns": 0, "constraints": 0}

    class Recorded:
        breakpoints = spline.breakpoints

        def __call__(self, ts):
            seen.append(np.array(ts, dtype=float))
            return spline(ts)

    basis, rows = minimax.trig_basis, minimax._constraint_rows

    def counted_basis(ts, degree):
        built["columns"] += len(ts)
        return basis(ts, degree)

    def counted_rows(gaps, pts, owner, degree, q):
        built["constraints"] += len(pts)
        return rows(gaps, pts, owner, degree, q)

    monkeypatch.setattr(minimax, "trig_basis", counted_basis)
    monkeypatch.setattr(minimax, "_constraint_rows", counted_rows)
    res = best_co_q_monotone(Recorded(), 8, 3, SignChangeSet([-b, 0.0]))
    # the objective and the constraint grid both grow in this fit
    assert res.rounds[-1]["grid_points"] > res.rounds[0]["grid_points"]
    assert (res.rounds[-1]["constraint_points"]
            > res.rounds[0]["constraint_points"])
    abscissae = np.concatenate(seen)
    assert np.unique(abscissae).size == abscissae.size
    assert built == {"columns": res.rounds[-1]["grid_points"],
                     "constraints": res.rounds[-1]["constraint_points"]}


@pytest.mark.parametrize("constrained", [True, False])
def test_no_lp_solve_repeats_an_unchanged_model(monkeypatch, constrained):
    # a regrid round whose LP gained no row and kept its box starts from
    # the LP's last solution instead of solving it again
    events = {}

    class Recorded(minimax.LinearProgram):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            events[self] = []

        def add_rows(self, rows, lower, upper):
            if len(rows):
                events[self].append("add_rows")
            super().add_rows(rows, lower, upper)

        def set_col_bounds(self, lower, upper):
            events[self].append("set_col_bounds")
            super().set_col_bounds(lower, upper)

    def recorded_solve(lp, *args, **kwargs):
        events[lp].append("solve_lp")
        return solve(lp, *args, **kwargs)

    solve = minimax.solve_lp
    monkeypatch.setattr(minimax, "LinearProgram", Recorded)
    monkeypatch.setattr(minimax, "solve_lp", recorded_solve)
    b = 1.2
    target = build_ideal_spline(2, b)
    if constrained:
        res = best_co_q_monotone(target, 8, 3, SignChangeSet([-b, 0.0]))
    else:
        res = best_approx(target, 8)
    assert len(res.rounds) >= 2
    (sequence,) = events.values()
    for before, after in zip(sequence, sequence[1:]):
        assert not before == after == "solve_lp"
