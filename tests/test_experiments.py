"""Pinned values of the growth experiments, calibrate and lemma-22, the
hill climb's walk against a one-candidate-at-a-time reference, the jets
of lemma-3111's flipped and reference ratios, and the degree-cap message."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cotrig import cli, experiments
from cotrig.experiments import (DEGREE_CAP, DEGREE_CAP_LARGE, _check_degrees,
                                _halfconvex_family, _mirrored,
                                calibrate_constants, exp_bernstein_interval,
                                exp_lemma_22, exp_lemma_3111, exp_theorem_12,
                                exp_theorem_13, hill_climb)
from cotrig.splines import PowerKink

BERNSTEIN_RHO = 1.101351693358591
BERNSTEIN_RANDOM_BEST = 1.0487258173364182
BERNSTEIN_FINGERPRINT = "545c9aa4e11fd8cc"
LEMMA_3111_C2 = 0.43697937807154774
LEMMA_3111_FINGERPRINT = "e3ee6780028666b1"
BERNSTEIN_4_8_RHO = 1.140198777596179
BERNSTEIN_4_8_FINGERPRINT = "53c839f48154fbff"
CALIBRATE_FINGERPRINT = "e4487d34121b0409"


def test_bernstein_pinned_ratio():
    # the random starts are measured as one family, and the climb scores
    # the rest of each sweep as one: both reproduce their values bit for
    # bit
    report = exp_bernstein_interval(1.0, [4], trials=40, seed=1)
    assert [a.passed for a in report.assertions] == [True, True]
    assert report.constants[0].name == "c0"
    assert report.constants[0].value == BERNSTEIN_RHO
    assert report.grid[0]["rho_random_best"] == BERNSTEIN_RANDOM_BEST
    assert report.fingerprint() == BERNSTEIN_FINGERPRINT


def test_bernstein_n_4_8_and_calibrate_pinned():
    # c0 is the n = 8 climb's ratio, and calibrate reads it at n = 4, 8, 16
    report = exp_bernstein_interval(1.0, [4, 8], trials=40, seed=1)
    assert report.constants[0].value == BERNSTEIN_4_8_RHO
    assert report.fingerprint() == BERNSTEIN_4_8_FINGERPRINT
    _, report = calibrate_constants(3, 4, 1, seed=0)
    assert report.passed
    assert report.constants[0].value == BERNSTEIN_4_8_RHO
    assert report.fingerprint() == CALIBRATE_FINGERPRINT


def _reference_climb(score, x0):
    """The climb one candidate at a time, each scored as a stack of one;
    returns x, best, the sweeps made and the moves accepted."""
    x = np.array(x0, dtype=float)
    best = score(x[None])[0]
    step, sweeps, accepted = 0.5, 0, 0
    for _ in range(200):
        sweeps += 1
        improved = False
        for i in range(x.size):
            base = abs(x[i]) + 1.0
            for sgn in (1.0, -1.0):
                cand = x.copy()
                cand[i] += sgn * step * base
                val = score(cand[None])[0]
                if val > best * (1.0 + 1e-12):
                    x, best = cand, val
                    improved = True
                    accepted += 1
        if not improved:
            step *= 0.5
            if step < 1e-4:
                break
    return x, best, sweeps, accepted


_PEAK = np.array([0.5, -1.25, 2.0, 0.0, -0.75, 1.5])


def _terraces(stack):
    # only exact arithmetic, so a row scores the same in any stack: floor
    # makes flat terraces, the max ties coordinates, and far from the peak
    # the values are negative, where an equal value passes the climb's
    # relative test
    dist = np.max(np.abs(stack - _PEAK[:stack.shape[1]]), axis=1)
    return np.floor(4.0 * (3.0 - dist))


_STARTS = st.lists(st.one_of(st.floats(-6.0, 6.0),
                             st.integers(-24, 24).map(lambda k: k / 4)),
                   min_size=1, max_size=6)


@settings(max_examples=80, deadline=None)
@given(x0=_STARTS)
@example(x0=[0.0] * 6)
@example(x0=[0.0])
def test_hill_climb_walks_the_one_at_a_time_path(x0):
    x, best = hill_climb(_terraces, x0)
    ref_x, ref_best, _, _ = _reference_climb(_terraces, x0)
    assert x.tolist() == ref_x.tolist()
    assert best == ref_best


def test_hill_climb_keeps_the_base_read_before_the_plus_move():
    # from x0 = 0.2 the + move lands on 0.8 (value 1) and the - move, by
    # the base 1.2 read before it, on 0.2 + 0.6 - 0.6, two ulps above 0.2
    # (value 2): both improve.  A base read again after the + move, 1.8,
    # would send the - move to -0.1 (value 0) instead
    def score(stack):
        c = stack[:, 0]
        return np.where((c > 0.2) & (c < 0.3), 2.0, np.where(c > 0.5, 1.0,
                                                             0.0))

    x0 = [0.2, 0.0]
    assert 0.2 + 0.6 - 0.6 > 0.2
    x, best = hill_climb(score, x0)
    ref_x, ref_best, _, _ = _reference_climb(score, x0)
    assert best == ref_best == 2.0
    assert x.tolist() == ref_x.tolist()


def test_hill_climb_scores_stacks_from_bernsteins_start(monkeypatch):
    # bernstein's seed-1, n = 4 climb: one 2-D stack for the start, then
    # one a sweep plus one after each accepted move at most, against 153
    # single candidates one at a time
    climbs, shapes = [], []

    def counted(score, x0):
        def counting(stack):
            shapes.append(np.shape(stack))
            return score(stack)
        climbs.append((score, x0))
        return hill_climb(counting, x0)

    monkeypatch.setattr(experiments, "hill_climb", counted)
    report = exp_bernstein_interval(1.0, [4], trials=40, seed=1)
    assert report.constants[0].value == BERNSTEIN_RHO
    [(score, x0)] = climbs
    _, ref_best, sweeps, accepted = _reference_climb(score, x0)
    assert ref_best == BERNSTEIN_RHO
    assert 1 + 8 * sweeps == 153
    assert all(len(shape) == 2 and shape[1] == 4 for shape in shapes)
    assert len(shapes) <= sweeps + accepted + 1


def test_lemma_3111_pinned_ratio():
    # the hinge sums' maxima sit on sampled points, so Newton polish by
    # their jets keeps the constant exact, and the flipped ratio, polished
    # by the mirrored jets, must agree with it; the trials, measured as
    # one family, keep every ratio of the grid
    report = exp_lemma_3111(3, 0.5, trials=40, seed=1)
    assert [a.passed for a in report.assertions] == [True] * 4
    assert report.constants[0].name == "c2"
    assert report.constants[0].value == LEMMA_3111_C2
    assert report.fingerprint() == LEMMA_3111_FINGERPRINT


def test_lemma_3111_invariance_members_are_single_calls(monkeypatch):
    # w7 and 7 w7 join the trials' family as its last two members; each
    # member's ratio must be exactly the one a call for it alone gives
    family, ratio = _halfconvex_family, experiments._domination_ratio
    weights, ratios = [], []

    def recorded_family(q, b, w, knots):
        weights.append(np.array(w))
        return family(q, b, w, knots)

    def recorded_ratio(q, b, jets):
        ratios.append(ratio(q, b, jets))
        return ratios[-1]

    monkeypatch.setattr(experiments, "_halfconvex_family", recorded_family)
    monkeypatch.setattr(experiments, "_domination_ratio", recorded_ratio)
    report = exp_lemma_3111(3, 0.5, trials=40, seed=1)
    draws, knots = weights[0], np.array(report.parameters["knots"])
    assert draws.shape == (42, 14)
    assert (draws[41] == 7.0 * draws[40]).all()
    r_base, r_scaled = (ratio(3, 0.5, family(3, 0.5, draws[k], knots))
                        for k in (40, 41))
    assert (ratios[0][40], ratios[0][41]) == (r_base, r_scaled)
    assert [row["ratio"] for row in report.grid] == ratios[0][:40].tolist()


@pytest.mark.parametrize("q", [3, 4])
def test_lemma_3111_flipped_and_reference_jets(q):
    # the jets of the flipped hinge sum and of the reference F_{q-1}(x/2b):
    # away from the kinks, central differences of each row give the next
    b, knots = 0.5, np.linspace(0.0, 1.0, 14, endpoint=False)
    f_jet, _ = _halfconvex_family(q, b, np.linspace(0.2, 1.0, 14), knots)
    xs = np.linspace(-2 * b, 2 * b, 41)
    xs = xs[np.abs(np.abs(xs)[:, None] - knots).min(axis=1) > 1e-3]
    h = 1e-6
    for jet in (_mirrored(f_jet), PowerKink(q - 1, 2 * b).jet):
        rows = jet(xs)
        fd = (jet(xs + h) - jet(xs - h)) / (2 * h)
        np.testing.assert_allclose(fd[:2], rows[1:], rtol=1e-5, atol=1e-5)


@pytest.mark.parametrize("q, minima", [
    (3, (0.12500037969457517, 0.12500037969447014)),
    (4, (0.013817402324684296, 0.013817557238126967)),
])
def test_lemma_22_pinned_minima(q, minima):
    # the hinge weights of both knot counts are sign-constrained
    report = exp_lemma_22(q)
    assert report.passed
    assert [row["knots"] for row in report.grid] == [16, 32]
    assert [row["minimum"] for row in report.grid] == pytest.approx(minima,
                                                                    rel=1e-12)


@pytest.mark.parametrize("argv, value", [
    (["bernstein", "--b", "1", "--n", "4"], BERNSTEIN_RHO),
    (["lemma-3111", "--q", "3", "--b", "0.5"], LEMMA_3111_C2),
])
def test_growth_experiments_through_cli(tmp_path, argv, value):
    argv = ["experiment", *argv, "--trials", "40", "--seed", "1",
            "--out", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["passed"] is True
    assert report["constants"][0]["value"] == value


def test_degree_cap_message_names_lemma_aux(tmp_path, capsys):
    hint = (f"only lemma-aux, thm-12 and thm-13 take degrees up to "
            f"{DEGREE_CAP_LARGE}")
    with pytest.raises(ValueError, match=hint):
        _check_degrees([4, DEGREE_CAP + 1])
    with pytest.raises(ValueError) as exc:
        _check_degrees([DEGREE_CAP_LARGE + 1], large=True)
    assert "lemma-aux" not in str(exc.value)
    assert f"cap {DEGREE_CAP_LARGE}" in str(exc.value)
    argv = ["experiment", "bernstein", "--b", "1", "--n", str(DEGREE_CAP + 1),
            "--out", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert hint in capsys.readouterr().err


@pytest.mark.parametrize("run", [exp_theorem_12, exp_theorem_13])
def test_theorem_experiments_take_the_large_cap(run):
    # degrees are validated before any solve, so this costs nothing
    with pytest.raises(ValueError, match=f"cap {DEGREE_CAP_LARGE}$"):
        run(3, [-0.6, 0.6], [DEGREE_CAP_LARGE + 1])


@pytest.mark.parametrize("argv", [
    ["bernstein", "--b", "1", "--n", "4"],
    ["lemma-3111", "--q", "3", "--b", "0.5"],
], ids=["bernstein", "lemma-3111"])
def test_kept_seeds_seed_the_draws(tmp_path, argv):
    # the experiments that take a seed draw from it: seeds 1 and 2 give
    # different fingerprints, and different grids, so not only the seed
    # field moved
    reports = []
    for seed in (1, 2):
        out = tmp_path / f"seed{seed}"
        assert cli.main(["experiment", *argv, "--trials", "4", "--seed",
                         str(seed), "--out", str(out)]) == cli.EXIT_OK
        reports.append(json.loads((out / "report.json").read_text()))
    one, two = reports
    assert (one["seed"], two["seed"]) == (1, 2)
    assert one["fingerprint"] != two["fingerprint"]
    assert one["grid"] != two["grid"]
