"""Tests for the command-line entry point: builds and their reloads."""

import importlib.util
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from cotrig import cli
from cotrig.counterexample import (build_partial_sum, build_summand,
                                   plan_recursion)
from cotrig.ledger import (DEFAULT_MAX_BITS, ConstantsLedger,
                           make_proven_ledger)
from cotrig.reports import write_json
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
    # a flag for a key that admits fraction strings is kept as given when
    # it meets the fraction pattern, so --b 0.1 and --b 1e-1 are the
    # rational 1/10, not the float nearest it; a flag the pattern refuses
    # (1e-400) and a flag for a number-only key (build ideal --b) still
    # arrive as floats
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
    assert resolved(["build", "smooth", "--r", "2", "--d", "1",
                     "--lam", "1e-400"])["lam"] == 0.0
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


_FRACTION_STRINGS = ["1/12", "3/4", "0.25", "1", ".5", "007/010", "1e-3",
                     "1e-1"]
_NOT_FRACTION_STRINGS = ["1/0", "0/3", "-1/4", "abc", "inf", "0", "0.0",
                         "0e5", "1e400", "1.5/2", "", "1/", "/4"]


@pytest.mark.parametrize("value", _FRACTION_STRINGS + _NOT_FRACTION_STRINGS)
def test_fraction_pattern_admits_positive_rationals_only(value):
    # every string the schema admits is a positive Fraction, and jsonschema
    # admits the same strings
    admitted = _accepts(value, cli._FRACTIONABLE)
    assert admitted == (value in _FRACTION_STRINGS)
    if admitted:
        assert Fraction(value) > 0
    if importlib.util.find_spec("jsonschema") is not None:
        from jsonschema import Draft202012Validator
        assert Draft202012Validator(cli._FRACTIONABLE).is_valid(value) \
            == admitted


def _valid(schema):
    """A value that meets a property schema of SCHEMAS."""
    kind = schema["type"] if isinstance(schema["type"], str) \
        else schema["type"][0]
    if kind == "array":
        return [_valid(schema["items"])] * schema.get("minItems", 1)
    if kind == "string":
        return "x"
    if kind == "integer":
        return schema.get("minimum", 0) + 1
    return schema.get("exclusiveMinimum", 0) + 0.5


def _mutations(schema, value):
    """Values that break one keyword of a property schema each, and the
    name of that keyword."""
    types = schema["type"] if isinstance(schema["type"], list) \
        else [schema["type"]]
    yield "type", {"array": "x", "string": 1}.get(types[0], [1])
    if "number" in types or "integer" in types:
        yield "bool", True
    if "minimum" in schema:
        yield "minimum", schema["minimum"] - 1
    if "exclusiveMinimum" in schema:
        yield "exclusiveMinimum", schema["exclusiveMinimum"]
    if "minLength" in schema:
        yield "minLength", ""
    if "pattern" in schema:
        for text in ("1/0", "0/3", "-1/4", "abc", "inf", "0", "0.0"):
            yield "pattern", text
    if "minItems" in schema:
        yield "minItems", value[:schema["minItems"] - 1]
    if "maxItems" in schema:
        yield "maxItems", value * schema["maxItems"]
    if "items" in schema:
        for name, item in _mutations(schema["items"], value[0]):
            yield f"items.{name}", [item] + value[1:]
    if "integer" in types:
        yield "integral-float", float(value)
    if "number" in types:
        yield "non-finite", math.inf


def _configs(schema):
    """(label, config) pairs: valid ones and one mutation per keyword."""
    full = {key: _valid(sub) for key, sub in schema["properties"].items()}
    yield "full", full
    yield "required-only", {key: full[key] for key in schema["required"]}
    for key in schema["required"]:
        yield f"missing-{key}", {k: v for k, v in full.items() if k != key}
    yield "unknown-key", dict(full, bogus=1)
    for key, needs in schema.get("dependentRequired", {}).items():
        for need in needs:
            yield f"{key}-without-{need}", {k: v for k, v in full.items()
                                            if k != need}
    for key, sub in schema["properties"].items():
        for name, value in _mutations(sub, full[key]):
            yield f"{key}-{name}", dict(full, **{key: value})


def _accepts(config, schema) -> bool:
    try:
        cli._validate(config, schema)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("key", list(cli.SCHEMAS), ids=str)
def test_validator_agrees_with_jsonschema(key):
    jsonschema = pytest.importorskip("jsonschema")
    schema = cli.SCHEMAS[key]
    reference = jsonschema.Draft202012Validator(schema)
    for label, config in _configs(schema):
        if label.endswith(("integral-float", "non-finite")):
            # the intended differences: 4.0 is no integer here, and a
            # number must be finite
            assert reference.is_valid(config), label
            assert not _accepts(config, schema), label
        else:
            assert _accepts(config, schema) == reference.is_valid(config), \
                label


# subschema-valued keywords, and keywords that only annotate
_SCHEMA_MAPS = ("properties", "patternProperties", "$defs", "dependentSchemas")
_SCHEMA_LISTS = ("allOf", "anyOf", "oneOf", "prefixItems")
_SCHEMA_ONE = ("items", "additionalProperties", "contains", "not",
               "propertyNames", "if", "then", "else", "unevaluatedItems",
               "unevaluatedProperties")
# what cli._validate enforces
_ENFORCED = {"type", "minimum", "exclusiveMinimum", "minLength", "pattern",
             "items", "minItems", "maxItems", "required", "properties",
             "additionalProperties", "dependentRequired"}


def _subschemas(schema):
    """schema and every schema nested in it."""
    yield schema
    for key, value in schema.items():
        if key in _SCHEMA_MAPS:
            children = value.values()
        elif key in _SCHEMA_LISTS:
            children = value
        elif key in _SCHEMA_ONE:
            children = [value]
        else:
            continue
        for child in children:
            if isinstance(child, dict):
                yield from _subschemas(child)


@pytest.mark.parametrize("key", list(cli.SCHEMAS), ids=str)
def test_config_schemas_are_valid_and_enforced(key):
    # a keyword the validator does not enforce would be silently ignored;
    # main() never checks the schemas against their metaschema
    schema = cli.SCHEMAS[key]
    subs = list(_subschemas(schema))
    assert {k for sub in subs for k in sub} <= _ENFORCED
    for sub in subs:
        types = sub.get("type", [])
        assert set([types] if isinstance(types, str) else types) \
            <= set(cli._TYPES)
        assert sub.get("additionalProperties", False) is False
    if importlib.util.find_spec("jsonschema") is not None:
        from jsonschema import Draft202012Validator
        Draft202012Validator.check_schema(schema)
