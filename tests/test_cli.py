"""Tests for the command-line entry point: builds and their reloads."""

import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from cotrig import cli, minimax
from cotrig.counterexample import (build_partial_sum, build_summand,
                                   plan_recursion)
from cotrig.ledger import (DEFAULT_MAX_BITS, ConstantsLedger,
                           make_proven_ledger)
from cotrig.reports import ExperimentReport, write_json, write_report_files
from cotrig.smooth import build_smooth_spline
from cotrig.splines import build_ideal_spline


@pytest.mark.parametrize("ledger_name, rule, K, d, max_bits", [
    ("proven", "geometric:2", 1, 2, None),
    ("toy", "tower:2:3", 2, 1, 40),
])
def test_build_partial_sum_round_trip(tmp_path, toy_ledger,
                                      ledger_name, rule, K, d, max_bits):
    ledger = {"proven": make_proven_ledger(3, 4, s_norms=(1, 2, 4)),
              "toy": toy_ledger}[ledger_name]
    ledger_path = tmp_path / f"{ledger_name}.json"
    write_json(ledger_path, ledger.to_dict())
    out = tmp_path / "run"
    argv = ["build", "partial-sum", "--ledger", str(ledger_path),
            "--K", str(K), "--eps-rule", rule, "--d", str(d),
            "--out", str(out)]
    if max_bits is not None:
        argv += ["--max-bits", str(max_bits)]
    assert cli.main(argv) == cli.EXIT_OK
    artifact_path = out / "artifacts" / "partial_sum.json"
    artifact = json.loads(artifact_path.read_text())
    assert artifact["summary"]["plan_satisfied"] is True
    assert artifact["summary"]["membership"] is True
    assert artifact["params"].get("max_bits") == max_bits

    plan = plan_recursion(ledger, Fraction(d), K + 1, eps_rule=rule,
                          max_bits=max_bits or DEFAULT_MAX_BITS)
    built = build_partial_sum(plan, K)
    reloaded, _ = cli._resolve_target(str(artifact_path))
    xs = np.linspace(-np.pi, np.pi, 64)
    assert np.array_equal(reloaded(xs), built(xs))


@pytest.mark.parametrize("argv, direct", [
    (["build", "ideal", "--r", "2", "--b", "1.2"],
     lambda: build_ideal_spline(2, 1.2)),
    (["build", "smooth", "--r", "2", "--d", "1", "--lam", "1/12"],
     lambda: build_smooth_spline(2, 1.0, 1.0 / 12.0)),
], ids=["ideal", "smooth"])
def test_build_spline_round_trip(tmp_path, argv, direct):
    # artifacts are rebuilt from their params, not from the stored pieces
    out = tmp_path / "run"
    assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_OK
    artifact_path = out / "artifacts" / f"{argv[1]}.json"
    reloaded, _ = cli._resolve_target(str(artifact_path))
    xs = np.linspace(-np.pi, np.pi, 64)
    assert np.array_equal(reloaded(xs), direct()(xs))


def test_build_smooth_pins_sup_norms(tmp_path):
    argv = ["build", "smooth", "--r", "2", "--d", "1", "--lam", "1/12",
            "--out", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_OK
    artifact = json.loads((tmp_path / "artifacts" / "smooth.json").read_text())
    summary = artifact["summary"]
    sups = [0.809537205693963, 0.825050387489827, 1.6816901138230191,
            19.885652156858526, 517.907592751308]
    assert summary["derivative_sups"] == {
        str(j): pytest.approx(v, rel=1e-13) for j, v in enumerate(sups)}
    assert summary["distance_to_ideal"] == pytest.approx(0.13624873757144162,
                                                         rel=1e-13)


def test_build_fnb_pins_sup_norms(tmp_path, table_ledger):
    # the top derivative is 1 up to the rounding of the table's step norms
    ledger_path = tmp_path / "table.json"
    write_json(ledger_path, table_ledger.to_dict())
    argv = ["build", "fnb", "--ledger", str(ledger_path), "--n", "16",
            "--b", "1/4", "--d", "1", "--out", str(tmp_path / "run")]
    assert cli.main(argv) == cli.EXIT_OK
    artifact = json.loads((tmp_path / "run" / "artifacts" / "fnb.json")
                          .read_text())
    summary = artifact["summary"]
    assert summary["sup_top_derivative"] == pytest.approx(1.0000000000000235,
                                                          rel=1e-13)
    assert summary["sup_value"] == pytest.approx(2.3878092198962182e-14,
                                                 rel=1e-13)


def test_build_fnb_round_trip(tmp_path, table_ledger):
    # without --d the summand takes the ledger's gap, and its reload the
    # d the artifact stored
    ledger_path = tmp_path / "table.json"
    write_json(ledger_path, table_ledger.to_dict())
    out = tmp_path / "run"
    argv = ["build", "fnb", "--ledger", str(ledger_path), "--n", "16",
            "--b", "1/4", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    artifact_path = out / "artifacts" / "fnb.json"
    assert json.loads(artifact_path.read_text())["params"] == {
        "n": 16, "b": "1/4", "d": "1"}
    reloaded, _ = cli._resolve_target(str(artifact_path))
    built = build_summand(table_ledger, 16, Fraction(1, 4), Fraction(1))
    xs = np.linspace(-np.pi, np.pi, 64)
    assert np.array_equal(reloaded(xs), built(xs))


def test_a_report_holding_a_ledger_reads_as_the_ledger(tmp_path,
                                                       toy_ledger):
    # --ledger also takes a report whose extras hold the ledger, as
    # calibrate's report.json does: the build is the plain ledger's
    plain = tmp_path / "toy.json"
    write_json(plain, toy_ledger.to_dict())
    write_report_files(ExperimentReport(
        experiment="calibrate", parameters={}, grid=[],
        extras={"ledger": toy_ledger.to_dict()}), tmp_path / "report")
    built = []
    for i, path in enumerate((plain, tmp_path / "report" / "report.json")):
        out = tmp_path / f"run{i}"
        argv = ["build", "fnb", "--ledger", str(path), "--n", "16",
                "--b", "1/4", "--d", "1", "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_OK
        built.append((out / "artifacts" / "fnb.json").read_bytes())
    assert built[0] == built[1]


def test_chain_broken_ledger_is_a_usage_error(tmp_path, capsys, toy_ledger):
    # an empirical ledger read from a file is held to the chain identities
    # too: one whose c10 was edited fails to load, and a build on it exits 64
    doc = toy_ledger.to_dict()
    doc["constants"]["c10"] = "1/3"
    message = "chain identity c10 = c7 c3 / 2 violated"
    with pytest.raises(ValueError, match=message):
        ConstantsLedger.from_dict(doc)
    ledger_path = tmp_path / "edited.json"
    write_json(ledger_path, doc)
    argv = ["build", "fnb", "--ledger", str(ledger_path), "--n", "16",
            "--b", "1/4", "--d", "1", "--out", str(tmp_path / "run")]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert message in capsys.readouterr().err
    # the ledger loads before the run directory is made: nothing is written
    assert not (tmp_path / "run").exists()


def test_missing_ledger_is_a_usage_error(tmp_path, capsys):
    # an experiment's ledger loads before its run directory is made too
    missing = tmp_path / "missing.json"
    argv = ["experiment", "lemma-aux", "--n", "8", "--b", "1/4", "--q", "3",
            "--p", "4", "--ledger", str(missing),
            "--out", str(tmp_path / "run")]
    assert cli.main(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration: ")
    assert str(missing) in err
    assert not (tmp_path / "run").exists()


def test_decimal_flags_on_fraction_keys_stay_exact(tmp_path, capsys,
                                                   table_ledger):
    # a flag for a fraction key is kept as given when Fraction reads it as
    # a positive rational, so --b 0.1 and --b 1e-1 are the rational 1/10,
    # not the float nearest it; one whose float is 0 (1e-400) is refused,
    # and a flag for a number key (build ideal --b) arrives as a float
    ledger_path = tmp_path / "table.json"
    write_json(ledger_path, table_ledger.to_dict())
    for b in ("0.1", "1e-1"):
        out = tmp_path / b
        argv = ["build", "fnb", "--ledger", str(ledger_path), "--n", "16",
                "--b", b, "--d", "1", "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_OK
        assert "scaled summand n=16 b=1/10 " in capsys.readouterr().out
        artifact = json.loads((out / "artifacts" / "fnb.json").read_text())
        assert artifact["params"] == {"n": 16, "b": "1/10", "d": "1"}
        echo = json.loads((out / "config-echo.json").read_text())
        assert (echo["b"], echo["d"]) == (b, "1")

    def resolved(argv):
        return cli._resolve_config(cli._build_parser().parse_args(argv))

    smooth = resolved(["build", "smooth", "--r", "2", "--d", "1",
                       "--lam", "1e-3"])
    assert (smooth["d"], smooth["lam"]) == (1.0, "1e-3")
    with pytest.raises(ValueError, match="^lam: 0.0 is not greater than 0$"):
        resolved(["build", "smooth", "--r", "2", "--d", "1", "--lam",
                  "1e-400"])
    assert resolved(["build", "smooth", "--r", "2", "--d", "1",
                     "--lam", "1/12"])["lam"] == "1/12"
    assert resolved(["build", "ideal", "--r", "2", "--b", "1.2"])["b"] == 1.2
    assert resolved(["experiment", "lemma-aux", "--n", "8", "--b", "0.25",
                     "--q", "3", "--p", "4", "--ledger", "x.json"])["b"] \
        == "0.25"


def _build_argv(kind, ledgers):
    """A build command of each kind, over the ledger files it names."""
    return {
        "ideal": ["build", "ideal", "--r", "2", "--b", "1.2"],
        "smooth": ["build", "smooth", "--r", "2", "--d", "1", "--lam",
                   "1/12"],
        "fnb": ["build", "fnb", "--ledger", ledgers["table"], "--n", "16",
                "--b", "1/4", "--d", "1"],
        "partial-sum": ["build", "partial-sum", "--ledger", ledgers["toy"],
                        "--K", "2", "--eps-rule", "tower:2:3", "--d", "1",
                        "--max-bits", "40"],
    }[kind]


# the top-level keys of each kind's artifact beyond kind, params, summary
_ARTIFACT_EXTRAS = {"ideal": set(), "smooth": set(), "fnb": {"ledger"},
                    "partial-sum": {"ledger", "plan_checks"}}


def _jets(f, points):
    """f.jet(points, 3, order) for every order 0..r, with r the order of
    f, of its spline or of its ledger."""
    r = f.ledger.r if hasattr(f, "ledger") else getattr(f, "spline", f).r
    return [f.jet(points, 3, order) for order in range(r + 1)]


@pytest.mark.parametrize("kind", list(cli._BUILDERS))
def test_every_build_artifact_reloads_as_built(tmp_path, monkeypatch,
                                               toy_ledger, table_ledger,
                                               kind):
    # solve --target <artifact> rebuilds the function from the artifact's
    # kind, params and ledger: every jet row up to order r must be the
    # built function's, bit for bit, also for an artifact that still
    # carries the "function" key builds once wrote
    ledgers = {}
    for name, ledger in (("toy", toy_ledger), ("table", table_ledger)):
        ledgers[name] = str(tmp_path / f"{name}.json")
        write_json(ledgers[name], ledger.to_dict())
    built, make = [], cli._make

    def capture(*args):
        built.append(make(*args))
        return built[-1]

    monkeypatch.setattr(cli, "_make", capture)
    out = tmp_path / "run"
    assert cli.main(_build_argv(kind, ledgers) + ["--out", str(out)]) \
        == cli.EXIT_OK
    monkeypatch.undo()
    (function,) = built
    (artifact_path,) = (out / "artifacts").glob("*.json")
    artifact = json.loads(artifact_path.read_text())
    assert artifact["kind"] == kind
    assert set(artifact) == {"kind", "params", "summary"} \
        | _ARTIFACT_EXTRAS[kind]
    seeds = function.breakpoints if kind == "ideal" \
        else function.seed_points()
    points = np.concatenate([np.linspace(-np.pi, np.pi, 257), seeds])
    expect = _jets(function, points)
    legacy_path = tmp_path / "legacy.json"
    write_json(legacy_path, dict(artifact, function={
        "kind": "stored coefficients", "levels": [[0.0]]}))
    for path in (artifact_path, legacy_path):
        reloaded, _ = cli._resolve_target(str(path))
        got = _jets(reloaded, points)
        assert len(got) == len(expect) == 3
        for want, row in zip(expect, got):
            assert np.array_equal(row, want)


def test_solve_f1_at_degree_24(tmp_path):
    # a full-period kink at degree 24: the exchange LPs grow to ~50 rows
    out = tmp_path / "run"
    argv = ["solve", "--target", "F1", "--degree", "24", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    solution = json.loads((out / "artifacts" / "solution.json").read_text())
    assert solution["post_check_error"] >= solution["error"] > 0
    # each regrid round says how its grid solve went
    rounds = solution["rounds"]
    assert rounds and rounds[-1]["error"] == solution["error"]
    assert solution["iterations"] == sum(row["lp_iterations"]
                                         for row in rounds)
    for row in rounds:
        assert row["exchange_rounds"] >= 1
        assert row["working_points"] > 2 * 24 + 1
        assert row["working_constraints"] == 0
        assert row["constraint_points"] == 0
        assert row["constraint_violation_relative"] is None


def test_constrained_solve_records_its_constraint_grids(tmp_path):
    out = tmp_path / "run"
    argv = ["solve", "--target", "ideal:2:1.2", "--degree", "8", "--q", "3",
            "--Y", "-1.2", "0", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    solution = json.loads((out / "artifacts" / "solution.json").read_text())
    assert solution["converged"] is True
    rounds = solution["rounds"]
    sizes = [row["constraint_points"] for row in rounds]
    # both ends and 512 inner points on each of the two gaps, then rows
    # added at the sign check's minima
    assert sizes[0] == 2 * 514
    assert all(a < b for a, b in zip(sizes, sizes[1:]))
    # the relative violation is over max|T^(3)|, about 3.3 here
    for row in rounds:
        assert 0 < row["constraint_violation_relative"] \
            < row["constraint_violation"]
    assert rounds[0]["constraint_violation_relative"] > 1e-8
    assert rounds[-1]["constraint_violation_relative"] <= 1e-8
    assert solution["constraint_violation"] == rounds[-1][
        "constraint_violation"]


def test_a_solve_that_gives_up_says_so(tmp_path, capsys, monkeypatch):
    # F1's first round at degree 8 fails the gap test; with no regrid
    # round left the fit ends unconverged, and both outputs say so
    monkeypatch.setattr(minimax, "MAX_REFINEMENTS", 0)
    out = tmp_path / "run"
    argv = ["solve", "--target", "F1", "--degree", "8", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1] == (
        "  not converged: the last regrid round failed its checks")
    solution = json.loads((out / "artifacts" / "solution.json").read_text())
    assert solution["converged"] is False
    assert len(solution["rounds"]) == 1


def _exit_code(argv) -> int:
    """cli.main's return code, or the code of the SystemExit argparse raises."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


_RETIRED_OPTIONS = {
    "jobs-flag": (["--jobs", "2"], None),
    "points-per-degree-flag": (["--points-per-degree", "8"], None),
    "jobs-config-key": ([], {"jobs": 2}),
    "seed-flag": (["--seed", "1"], None),
    "seed-config-key": ([], {"seed": 1}),
}
# commands that draw nothing; the solve cases keep their plain ids
_UNSEEDED_COMMANDS = {
    "": ["solve", "--target", "cos", "--degree", "2"],
    "build-ideal-": ["build", "ideal", "--r", "2", "--b", "1.2"],
    "thm-12-": ["experiment", "thm-12", "--q", "3", "--Y", "-1.2", "0",
                "--n", "8"],
}


@pytest.mark.parametrize("command, extra, config", [
    (command, *option) for command in _UNSEEDED_COMMANDS.values()
    for option in _RETIRED_OPTIONS.values()
], ids=[prefix + name for prefix in _UNSEEDED_COMMANDS
        for name in _RETIRED_OPTIONS])
def test_retired_options_are_usage_errors(tmp_path, command, extra, config):
    # the solver and sampling policy is fixed: no thread pool, no density;
    # and a command that draws nothing takes no seed
    out = tmp_path / "run"
    argv = command + ["--out", str(out)] + extra
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    assert _exit_code(argv) == cli.EXIT_USAGE
    assert not out.exists()


@pytest.mark.parametrize("flags, missing, given", [
    (["--q", "3"], "y_points", "q"),
    (["--Y", "-1", "0"], "q", "y_points"),
], ids=["q-without-Y", "Y-without-q"])
def test_solve_needs_q_and_Y_together(tmp_path, capsys, flags, missing, given):
    argv = ["solve", "--target", "F1", "--degree", "4",
            "--out", str(tmp_path / "run")] + flags
    assert cli.main(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert f"{missing}: required with '{given}'" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv, config", [
    (["solve", "--target", "cos"], {"degree": 4.0}),
    (["experiment", "lemma-3111", "--b", "0.5", "--trials", "4"], {"q": 3.0}),
    (["experiment", "bernstein", "--b", "0.5", "--n", "4"], {"trials": 40.0}),
    (["solve", "--target", "cos"], {"degree": True}),
], ids=["degree-4.0", "q-3.0", "trials-40.0", "degree-true"])
def test_integer_keys_refuse_floats_and_bools(tmp_path, capsys, argv, config):
    # JSON Schema counts 4.0 as an integer, but the code slices and
    # ranges with these keys: a non-int is a usage error, not a traceback
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "run"
    code = cli.main(argv + ["--config", str(path), "--out", str(out)])
    assert code == cli.EXIT_USAGE
    (key,) = config
    assert f"invalid configuration: {key}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["build", "smooth", "--r", "2", "--d", "1", "--lam", "inf"],
    ["experiment", "thm-12", "--q", "3", "--Y", "-1.2", "nan", "--n", "8"],
], ids=["lam-inf", "Y-nan"])
def test_non_finite_numbers_are_usage_errors(tmp_path, capsys, argv):
    # inf and nan pass a JSON Schema "number"; they fail before the run
    # directory is made, not as a numerical failure inside the command
    out = tmp_path / "run"
    assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_USAGE
    assert "is not a finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, config", [
    (["build", "smooth", "--r", "2", "--d", "1", "--lam", "1/0"], None),
    (["build", "smooth", "--r", "2", "--d", "1", "--lam", "0"], None),
    (["build", "smooth", "--r", "2", "--d", "1"], {"lam": "inf"}),
    (["build", "fnb", "--ledger", "table.json", "--n", "16", "--b", "1/0"],
     None),
    (["experiment", "lemma-aux", "--n", "8", "--b", "1/0", "--q", "3",
      "--p", "4", "--ledger", "table.json"], None),
    (["build", "smooth", "--r", "2", "--d", "1", "--lam", "0e5"], None),
    (["build", "fnb", "--ledger", "table.json", "--n", "16", "--b", "1e400"],
     None),
    (["build", "smooth", "--r", "2", "--d", "1", "--lam", "1e-400"], None),
], ids=["lam-1/0", "lam-0", "lam-inf-string", "fnb-b-1/0", "lemma-aux-b-1/0",
        "lam-0e5", "fnb-b-1e400", "lam-1e-400"])
def test_bad_fractions_are_usage_errors(tmp_path, capsys, argv, config):
    # the schema refuses a fraction that is no positive rational before
    # the run directory is made; the key is named, nothing is written
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    out = tmp_path / "run"
    assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_USAGE
    key = "lam" if "smooth" in argv else "b"
    assert f"invalid configuration: {key}: " in capsys.readouterr().err
    assert not out.exists()


def test_lam_below_the_realization_floor_is_a_usage_error(tmp_path, capsys):
    # a zone narrower than 1e-13 would put spline breakpoints within
    # rounding of each other; the refusal names lam and the floor
    out = tmp_path / "run"
    argv = ["build", "smooth", "--r", "2", "--d", "1", "--lam", "1e-16",
            "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert capsys.readouterr().err == ("invalid configuration: lam: 1e-16 is "
                                       "below the realization floor 1e-13\n")
    assert not out.exists()


_FRACTION_STRINGS = ["1/12", "3/4", "0.25", "1", ".5", "007/010", "1e-3",
                     "1e-1", "+1/4", " 1/4", "1_0", "1e-100"]
_NOT_FRACTION_STRINGS = ["1/0", "0/3", "-1/4", "abc", "inf", "0", "0.0",
                         "0e5", "1e400", "1.5/2", "", "1/", "/4", "1e-400"]


@pytest.mark.parametrize("value", _FRACTION_STRINGS + _NOT_FRACTION_STRINGS)
def test_fraction_pattern_admits_positive_rationals_only(value):
    # a fraction key admits a string Fraction reads as a positive rational
    # whose float is positive and finite, and keeps it as given
    try:
        kept = cli._fraction("b", value)
    except ValueError as exc:
        assert str(exc).startswith("b: ")
        assert value in _NOT_FRACTION_STRINGS
    else:
        assert value in _FRACTION_STRINGS
        assert kept == value
        assert 0 < float(Fraction(value)) < math.inf


# one valid value of each key, as a config file gives it; the numbers are
# dyadic, so a fraction key reads them and their text as the same rational
_VALID = {"r": 2, "b": 0.5, "d": 1, "lam": "1/12", "n": 16, "K": 2, "q": 3,
          "p": 4, "target": "cos", "degree": 4, "domain": [-1, 1],
          "ledger": "ledger.json", "eps_rule": "log", "max_bits": 40,
          "n_list": [8, 16], "b_list": [0.5], "y_points": [-1, 0],
          "trials": 4, "knots": 8, "seed": 0}
# the least value of each integer key, and of n_list's items
_INTEGERS = {"r": 1, "n": 1, "K": 1, "q": 3, "p": 3, "degree": 1,
             "max_bits": 1, "trials": 1, "knots": 1, "seed": 0, "n_list": 1}
# the greatest value of each integer key that has one: calibrate reads
# the step table's norms to order p + 2, and no further than order 12
_MAXIMA = {"p": 10}
_LISTS = {"domain", "n_list", "b_list", "y_points"}


def _scalar_refusals(key):
    """(class, value) pairs a scalar value of key, or an item of the list
    key, must refuse; the scalar number keys are positive, the items of
    the number lists are not."""
    yield "wrong type", [1]
    yield "unreadable text", "abc"
    yield "bool", True
    if key in _INTEGERS:
        yield "integral float", 4.0
        yield "below the minimum", _INTEGERS[key] - 1
        if key in _MAXIMA:
            yield "above the maximum", _MAXIMA[key] + 1
        return
    yield "infinite", math.inf
    yield "nan", math.nan
    yield "infinite text", "inf"
    if key not in _LISTS:
        yield "below the minimum", 0


def _refusals(key):
    """(class, value) pairs the check of key must refuse."""
    if key in ("target", "ledger", "eps_rule", "out"):
        yield "wrong type", 1
        yield "empty text", ""
    elif key in _LISTS:
        yield "wrong type", 1
        yield "empty list", []
        if key == "domain":
            yield "wrong length", [0]
            yield "wrong length", [0, 1, 2]
        for name, item in _scalar_refusals(key):
            yield f"item {name}", [item] * (2 if key == "domain" else 1)
    else:
        yield from _scalar_refusals(key)


def _flag_text(value):
    return [str(v) for v in value] if isinstance(value, list) else str(value)


def _exact(value):
    """A checked value as the rational it stands for, text kept as text."""
    if isinstance(value, list):
        return [_exact(v) for v in value]
    try:
        return Fraction(value)
    except ValueError:
        return value


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_every_key_is_checked(tmp_path, capsys, monkeypatch, command):
    # each key's valid value passes, as a config value and as a flag's
    # text alike; a value of each class of refusal, an unknown key, a
    # missing required key, solve's q without Y and its domain with Y exit
    # 64, name their key first and write nothing.  A solve's valid config
    # is the unconstrained one, with a domain.
    required, optional = cli.COMMANDS[command]
    valid = {key: _VALID[key] for key in required + optional}
    pair = {key: valid.pop(key) for key in ("q", "y_points")} \
        if command == "solve" else {}
    checked = cli._checked(valid, command)
    flags = {key: _flag_text(value) for key, value in valid.items()}
    assert _exact(list(cli._checked(flags, command).values())) \
        == _exact(list(checked.values()))
    cases = [(key, name, dict(valid, **{key: value}))
             for key in (*valid, "out") for name, value in _refusals(key)]
    cases.append(("bogus", "unknown key", dict(valid, bogus=1)))
    # a missing key is named, and so is q or y_points in a solve that
    # has the other one, and a domain in a solve that has both
    cases += [(key, "missing", {k: v for k, v in valid.items() if k != key})
              for key in required]
    cases += [(need, "missing", dict(valid, **{given: pair[given]}))
              for need, given in (("q", "y_points"), ("y_points", "q"))
              if pair]
    if pair:
        cases.append(("domain", "with y_points", dict(valid, **pair)))
    monkeypatch.chdir(tmp_path)
    for i, (key, name, config) in enumerate(cases):
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps({"out": f"run{i}", **config}))
        argv = command.split("-", 1) + ["--config", str(path)]
        assert cli.main(argv) == cli.EXIT_USAGE, (key, name)
        err = capsys.readouterr().err
        assert re.match(rf"invalid configuration: {key}(\[\d\]|): ", err), err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"{i}.json" for i in range(len(cases)))


def test_unknown_flag_is_reported_with_its_command_usage(tmp_path, capsys,
                                                         monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _exit_code(["build", "ideal", "--seed", "1", "--r", "2", "--b",
                       "1"]) == cli.EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("usage: cotrig build ideal [-h] ")
    assert err[-1] == ("cotrig build ideal: error: unrecognized arguments: "
                       "--seed 1")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["solve", "--target", "bogus", "--degree", "4"],
    ["solve", "--target", "ideal:2:9", "--degree", "4"],
    ["experiment", "thm-12", "--q", "3", "--Y", "-1", "0", "1", "--n", "8"],
    ["experiment", "calibrate", "--q", "3", "--p", "11", "--d", "1"],
], ids=["unknown-target", "ideal-b-9", "odd-Y", "calibrate-p-11"])
def test_usage_errors_in_a_command_leave_no_run_directory(tmp_path, argv):
    # a usage error a command raises removes the run directory and the
    # parents this run made, and nothing it did not make
    out = tmp_path / "runs" / "run"
    assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_USAGE
    assert list(tmp_path.iterdir()) == []
    out.mkdir(parents=True)
    assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_USAGE
    assert out.is_dir()


@pytest.mark.parametrize("argv, summary, seed", [
    (["thm-12", "--q", "3", "--Y", "-1.2", "0", "--n", "8"], " (1 cells)", 0),
    (["lemma-3111", "--q", "3", "--b", "0.5", "--trials", "4", "--seed", "7"],
     ": PASS (4 cells, seed 7)", 7),
], ids=["thm-12", "lemma-3111"])
def test_summary_names_a_seed_only_where_one_is_drawn(tmp_path, capsys, argv,
                                                      summary, seed):
    # thm-12 draws nothing: its summary names no seed, and its report
    # still records seed 0, as its fingerprint always hashed (at one
    # degree its decay assertion fails, which the summary line shows too)
    cli.main(["experiment", *argv, "--out", str(tmp_path)])
    assert capsys.readouterr().out.splitlines()[0].endswith(summary)
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["seed"] == seed
