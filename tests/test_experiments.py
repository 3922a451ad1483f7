"""Pinned values of the growth experiments and lemma-22, the jets of
lemma-3111's flipped and reference ratios, and the degree-cap message."""

import json

import numpy as np
import pytest

from cotrig import cli
from cotrig.experiments import (DEGREE_CAP, DEGREE_CAP_LARGE, _check_degrees,
                                _halfconvex_family, _mirrored,
                                exp_bernstein_interval, exp_lemma_22,
                                exp_lemma_3111, exp_theorem_12, exp_theorem_13)
from cotrig.splines import PowerKink

BERNSTEIN_RHO = 1.101351693358591
BERNSTEIN_RANDOM_BEST = 1.0487258173364182
BERNSTEIN_FINGERPRINT = "545c9aa4e11fd8cc"
LEMMA_3111_C2 = 0.43697937807154774
LEMMA_3111_FINGERPRINT = "e3ee6780028666b1"


def test_bernstein_pinned_ratio():
    # the random starts are measured as one family, the climb one
    # candidate at a time: both reproduce their values bit for bit
    report = exp_bernstein_interval(1.0, [4], trials=40, seed=1)
    assert [a.passed for a in report.assertions] == [True, True]
    assert report.constants[0].name == "c0"
    assert report.constants[0].value == BERNSTEIN_RHO
    assert report.grid[0]["rho_random_best"] == BERNSTEIN_RANDOM_BEST
    assert report.fingerprint() == BERNSTEIN_FINGERPRINT


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
