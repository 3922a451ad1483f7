"""Command-line entry point.

Commands
--------
build       construct a spline, a scaled summand, or a recursive partial
            sum, and write its parameters with a human summary
solve       run one minimax approximation (free or shape-constrained)
experiment  run a named certification experiment and write its report

Every run writes into one directory, first config-echo.json (the exact
resolved configuration, replayable).  build then writes
artifacts/<kind>.json (partial_sum.json for partial-sum), solve
artifacts/solution.json, and experiment report.json, tables/<name>.csv
when its grid has rows, and plots/*.dat for each plot with data;
calibrate also writes artifacts/empirical_ledger.json.

A build artifact holds kind, params and summary, plus the ledger for fnb
and partial-sum and the plan_checks of a partial sum; no coefficients.
solve --target <artifact> rebuilds the function from kind, params and
ledger alone, so an artifact that still carries a "function" key, as
builds once wrote, loads unchanged.

Config values come from an optional JSON file (--config) overridden by
command-line flags.  A flag for a number key is read as a float, unless
the key also takes fraction strings and the flag is one: --b 0.1 and
--b 1e-1 stay the exact 1/10.  The merged config is checked against the
command's schema in SCHEMAS by this module's own validator, which
enforces the JSON-Schema keywords those schemas use.  That check comes
before the run directory is made, so a bad value writes nothing;
fraction strings such as --lam 1/12 are checked there too, and the
--ledger file is loaded there, so a missing, malformed or chain-broken
ledger writes nothing either.

Only experiment bernstein, lemma-3111 and calibrate take --seed (the
"seed" key), because only they draw random numbers; every other command
refuses it as a usage error.

Exit codes: 0 success, 1 a declared assertion failed, 2 numerical
failure (solver breakdown, unrepresentable plan level), 64 usage or
validation error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from .counterexample import (RealizabilityError, build_partial_sum,
                             build_summand, canonical_sign_set,
                             plan_recursion, rows_satisfied)
from .experiments import EXPERIMENT_NAMES, run_experiment
from .grids import Interval
from .ledger import DEFAULT_MAX_BITS, ConstantsLedger, EpsGrowthError
from .minimax import best_approx, best_co_q_monotone
from .reports import write_json, write_report_files
from .signsets import (SignChangeSet, delta_q_membership,
                       delta_q_membership_by_convexity)
from .simplex import LPError
from .smooth import build_smooth_spline, spline_distance
from .splines import IdealSpline, PowerKink, build_ideal_spline, step_offset

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_NUMERICAL = 2
EXIT_USAGE = 64

OUT_ROOT_ENV = "COTRIG_OUT_ROOT"

_POS_INT = {"type": "integer", "minimum": 1}
_Q_INT = {"type": "integer", "minimum": 3}
_NUMBER = {"type": "number", "exclusiveMinimum": 0}
# a positive number, or a string Fraction reads as a positive rational:
# "0.25", ".5", "1e-3" (a non-zero mantissa, an exponent of at most two
# digits), or "p/q" with q > 0.  "1/0", "0/3", "-1/4", "0", "0e5", "inf"
# and "1e400" are refused (a flag the pattern refuses but float() reads,
# as --lam 1e-400, arrives as a number: here 0.0, which fails the minimum)
_FRACTIONABLE = {
    "type": ["number", "string"], "exclusiveMinimum": 0,
    "pattern": r"^(?=[^/eE]*[1-9])([0-9]*\.?[0-9]+([eE][+-]?[0-9]{1,2})?"
               r"|[0-9]+/0*[1-9][0-9]*)$"}
_INT_LIST = {"type": "array", "items": _POS_INT, "minItems": 1}
_NUM_LIST = {"type": "array", "items": {"type": "number"}, "minItems": 1}
_STRING = {"type": "string", "minLength": 1}
# only the experiments that draw random numbers take a seed
_SEED = {"type": "integer", "minimum": 0}


def _schema(required, extra=None, **props):
    props["out"] = _STRING
    doc = {"type": "object", "properties": props, "required": list(required),
           "additionalProperties": False}
    if extra:
        doc.update(extra)
    return doc


SCHEMAS = {
    ("build", "ideal"): _schema(["r", "b"], r=_POS_INT, b=_NUMBER),
    ("build", "smooth"): _schema(["r", "d", "lam"], r=_POS_INT, d=_NUMBER,
                                 lam=_FRACTIONABLE),
    ("build", "fnb"): _schema(["ledger", "n", "b"], ledger=_STRING,
                              n=_POS_INT, b=_FRACTIONABLE, d=_FRACTIONABLE),
    ("build", "partial-sum"): _schema(
        ["ledger", "K"], ledger=_STRING, K=_POS_INT, d=_FRACTIONABLE,
        eps_rule=_STRING, max_bits=_POS_INT),
    ("solve", None): _schema(
        ["target", "degree"],
        extra={"dependentRequired": {"q": ["y_points"], "y_points": ["q"]}},
        target=_STRING, degree=_POS_INT,
        domain={"type": "array", "items": {"type": "number"},
                "minItems": 2, "maxItems": 2},
        q=_Q_INT, y_points=_NUM_LIST),
    ("experiment", "bernstein"): _schema(["b", "n_list"], b=_NUMBER,
                                         n_list=_INT_LIST, trials=_POS_INT,
                                         seed=_SEED),
    ("experiment", "lemma-mod"): _schema(["b_list", "n_list"],
                                         b_list=_NUM_LIST, n_list=_INT_LIST),
    ("experiment", "lemma-3111"): _schema(["q", "b"], q=_Q_INT, b=_NUMBER,
                                          trials=_POS_INT, seed=_SEED),
    ("experiment", "lemma-22"): _schema(["q"], q=_Q_INT, knots=_POS_INT),
    ("experiment", "thm-12"): _schema(["q", "y_points", "n_list"], q=_Q_INT,
                                      y_points=_NUM_LIST, n_list=_INT_LIST),
    ("experiment", "thm-13"): _schema(["q", "y_points", "n_list"], q=_Q_INT,
                                      y_points=_NUM_LIST, n_list=_INT_LIST),
    ("experiment", "lemma-aux"): _schema(
        ["n_list", "b", "q", "p", "ledger"], n_list=_INT_LIST,
        b=_FRACTIONABLE, q=_Q_INT, p=_Q_INT, ledger=_STRING, d=_FRACTIONABLE),
    ("experiment", "calibrate"): _schema(["q", "p", "d"], q=_Q_INT, p=_Q_INT,
                                         d=_NUMBER, seed=_SEED),
}


# the Python classes each JSON type admits; a bool is never one of them
_TYPES = {"object": (dict,), "array": (list,), "string": (str,),
          "number": (int, float), "integer": (int,)}


def _validate(value, schema: dict, where: str = "config") -> None:
    """Raise a ValueError that starts with the offending key unless
    ``value`` meets ``schema``.

    Enforces the keywords SCHEMAS uses, as draft 2020-12 defines them
    (so fraction strings meet their "pattern" before any run directory
    exists), with two exceptions: an "integer" must be an int, so 4.0 is
    refused, and a float must be finite, so inf and nan are refused.
    """
    types = schema.get("type", [])
    types = [types] if isinstance(types, str) else types
    if types and (isinstance(value, bool) or not isinstance(
            value, sum((_TYPES[t] for t in types), ()))):
        raise ValueError(f"{where}: {value!r} is not of type "
                         + " or ".join(map(repr, types)))
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{where}: {value!r} is not a finite number")
    if isinstance(value, (int, float)):
        if "minimum" in schema and value < schema["minimum"]:
            raise ValueError(f"{where}: {value!r} is less than the minimum "
                             f"of {schema['minimum']!r}")
        if "exclusiveMinimum" in schema and \
                value <= schema["exclusiveMinimum"]:
            raise ValueError(f"{where}: {value!r} is not greater than "
                             f"{schema['exclusiveMinimum']!r}")
    if isinstance(value, str):
        if len(value) < schema.get("minLength", 0):
            raise ValueError(f"{where}: {value!r} is too short")
        if "pattern" in schema and not re.search(schema["pattern"], value):
            raise ValueError(f"{where}: {value!r} does not match "
                             f"{schema['pattern']!r}")
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            raise ValueError(f"{where}: {value!r} is too short")
        if len(value) > schema.get("maxItems", len(value)):
            raise ValueError(f"{where}: {value!r} is too long")
        for i, item in enumerate(value):
            _validate(item, schema.get("items", {}), f"{where}[{i}]")
    if isinstance(value, dict):
        properties = schema.get("properties", {})
        for key in value:
            if key not in properties and \
                    schema.get("additionalProperties") is False:
                raise ValueError(f"{key}: unknown key")
        for key in schema.get("required", []):
            if key not in value:
                raise ValueError(f"{key}: required")
        for key, needs in schema.get("dependentRequired", {}).items():
            for need in needs:
                if key in value and need not in value:
                    raise ValueError(f"{need}: required with {key!r}")
        for key, sub in properties.items():
            if key in value:
                _validate(value[key], sub, key)


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _load_ledger(path: str) -> ConstantsLedger:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if "constants" not in doc and "extras" in doc:
        doc = doc["extras"].get("ledger", doc)
    return ConstantsLedger.from_dict(doc)


def _print(lines) -> None:
    for line in lines:
        print(line)


# ---------------------------------------------------------------------------
# build


def _ideal_summary(spline: IdealSpline, r: int, b: float) -> dict:
    gamma = step_offset(b)
    coeffs, defect = spline.residual_poly()
    ys = SignChangeSet((-b, 0.0))
    member = delta_q_membership_by_convexity(
        lambda x: spline.jet(x, 1, max(r - 1, 0))[0], ys)
    return {
        "r": r, "b": b,
        "window": [spline.window.lo, spline.window.hi],
        "top_derivative_sup": spline.sup_derivative(r),
        "expected_top_derivative_sup": 1.0 + gamma,
        "step_offset": gamma,
        "residual_poly_coeffs": list(coeffs),
        "residual_poly_defect": defect,
        "membership_q": r + 1,
        "membership": bool(member),
    }


def _make(kind: str, params: dict, ledger: ConstantsLedger | None = None):
    """The function of an artifact, built from its kind and params."""
    if kind == "ideal":
        return build_ideal_spline(params["r"], float(params["b"]))
    if kind == "smooth":
        return build_smooth_spline(params["r"], float(params["d"]),
                                   float(params["lam"]))
    if kind == "fnb":
        return build_summand(ledger, params["n"], Fraction(params["b"]),
                             Fraction(params["d"]))
    plan = plan_recursion(ledger, Fraction(params["d"]), params["K"] + 1,
                          eps_rule=params["eps_rule"],
                          max_bits=params.get("max_bits", DEFAULT_MAX_BITS))
    return build_partial_sum(plan, params["K"])


def _write_artifact(out_dir: Path, kind: str, params: dict, summary: dict,
                    **extra) -> None:
    """Write artifacts/<kind>.json: the kind, the params _make builds the
    function from, the summary, and extra keys (the ledger of fnb and
    partial-sum, a partial sum's plan_checks).  No coefficients are
    written: _function_from_artifact rebuilds the function from kind,
    params and ledger, and ignores any other key, so an artifact that
    still carries a "function" key loads unchanged."""
    write_json(out_dir / "artifacts" / f"{kind.replace('-', '_')}.json",
               {"kind": kind, "params": params, "summary": summary, **extra})


def cmd_build_ideal(cfg: dict, out_dir: Path) -> int:
    r, b = cfg["r"], float(cfg["b"])
    params = {"r": r, "b": b}
    spline = _make("ideal", params)
    summary = _ideal_summary(spline, r, b)
    _write_artifact(out_dir, "ideal", params, summary)
    _print([
        f"ideal spline r={r} b={b:.12g}",
        f"  sup|f^({r})| = {summary['top_derivative_sup']:.12g} "
        f"(expected {summary['expected_top_derivative_sup']:.12g})",
        f"  residual polynomial defect = {summary['residual_poly_defect']:.3e}",
        f"  class membership (q={r + 1}): {summary['membership']}",
    ])
    return EXIT_OK


def cmd_build_smooth(cfg: dict, out_dir: Path) -> int:
    r, d, lam = cfg["r"], float(cfg["d"]), float(Fraction(cfg["lam"]))
    params = {"r": r, "d": d, "lam": lam}
    spline = _make("smooth", params)
    ideal = build_ideal_spline(r, d)
    dist = spline_distance(ideal, spline, spline.window,
                           seeds=spline.seed_points())
    norms = {str(j): spline.sup_derivative(j)
             for j in range(min(r + 3, spline.table.max_order + r))}
    summary = {
        **params, "window": [spline.window.lo, spline.window.hi],
        "zones": [list(z) for z in spline.zones()],
        "derivative_sups": norms,
        "distance_to_ideal": dist,
    }
    _write_artifact(out_dir, "smooth", params, summary)
    _print([
        f"mollified spline r={r} d={d:.12g} lam={lam:.12g}",
        f"  distance to ideal = {dist:.6e}",
        f"  sup|f^({r})| = {norms[str(r)]:.12g}",
    ])
    return EXIT_OK


def cmd_build_fnb(cfg: dict, out_dir: Path) -> int:
    ledger = cfg["ledger"]
    n, b = cfg["n"], Fraction(cfg["b"])
    d = Fraction(cfg["d"]) if "d" in cfg else ledger.gap
    params = {"n": n, "b": str(b), "d": str(d)}
    summand = _make("fnb", params, ledger)
    top = ledger.r + ledger.m
    ys = canonical_sign_set(float(d))
    member, margin = delta_q_membership(
        lambda x: summand.jet(x, 1, ledger.q)[0], ys,
        extra_points=summand.seed_points())
    summary = {
        **params,
        "width": str(summand.width), "width_float": float(summand.width),
        "amplitude_float": float(summand.amplitude),
        "sup_top_derivative": summand.sup_derivative(top),
        "sup_value": summand.sup_derivative(0),
        "membership": bool(member), "membership_margin": margin,
    }
    _write_artifact(out_dir, "fnb", params, summary, ledger=ledger.to_dict())
    _print([
        f"scaled summand n={n} b={b} (width {float(summand.width):.3e})",
        f"  sup|f^({top})| = {summary['sup_top_derivative']:.9g} (cap 1)",
        f"  class membership (q={ledger.q}): {summary['membership']}",
    ])
    return EXIT_OK


def cmd_build_partial_sum(cfg: dict, out_dir: Path) -> int:
    ledger = cfg["ledger"]
    K = cfg["K"]
    d = Fraction(cfg["d"]) if "d" in cfg else ledger.gap
    eps_rule = cfg.get("eps_rule", "log")
    params = {"K": K, "d": str(d), "eps_rule": eps_rule}
    if "max_bits" in cfg:
        params["max_bits"] = cfg["max_bits"]
    partial = _make("partial-sum", params, ledger)
    member, margin = partial.membership_margin()
    checks = partial.plan.verify()
    summary = {
        "K": K, "d": str(d), "eps_rule": eps_rule,
        "tail_bound": str(partial.tail_bound),
        "tail_bound_float": float(partial.tail_bound),
        "plan_satisfied": rows_satisfied(checks),
        "sup_top_derivative": partial.sup_derivative(ledger.p),
        "membership": bool(member), "membership_margin": margin,
        "head_window_residual": partial.window_polynomial_residual(),
    }
    _write_artifact(out_dir, "partial-sum", params, summary,
                    ledger=ledger.to_dict(), plan_checks=checks)
    _print([
        f"partial sum K={K}, eps rule {eps_rule}, gap {d}",
        f"  plan degrees: {', '.join(map(str, partial.plan.n[1:K + 1]))}",
        f"  tail bound = {summary['tail_bound_float']:.6e}",
        f"  sup|f^({ledger.p})| = {summary['sup_top_derivative']:.9g} (cap 1)",
        f"  class membership (q={ledger.q}): {summary['membership']}",
        f"  plan inequalities satisfied: {summary['plan_satisfied']}",
    ])
    return EXIT_OK


_BUILDERS = {
    "ideal": cmd_build_ideal,
    "smooth": cmd_build_smooth,
    "fnb": cmd_build_fnb,
    "partial-sum": cmd_build_partial_sum,
}


# ---------------------------------------------------------------------------
# solve


def _function_from_artifact(path: str):
    with open(path, encoding="utf-8") as fh:
        art = json.load(fh)
    kind = art.get("kind")
    if kind not in _BUILDERS:
        raise ValueError(f"artifact {path} has unknown kind {kind!r}")
    ledger = ConstantsLedger.from_dict(art["ledger"]) if "ledger" in art \
        else None
    return _make(kind, art.get("params", {}), ledger)


def _resolve_target(spec: str):
    """Named builtin or artifact path -> (callable, description)."""
    if spec == "cos":
        return np.cos, "cos"
    match = re.fullmatch(r"F(\d+)", spec)
    if match:
        r = int(match.group(1))
        if r < 1:
            raise ValueError("F targets need a positive order")
        return PowerKink(r), spec
    match = re.fullmatch(r"ideal:(\d+):([0-9.eE+-]+)", spec)
    if match:
        r, b = int(match.group(1)), float(match.group(2))
        return build_ideal_spline(r, b), spec
    if Path(spec).is_file():
        return _function_from_artifact(spec), spec
    raise ValueError(
        f"unknown target {spec!r}; use cos, F<r>, ideal:<r>:<b>, or the "
        f"path of a build artifact")


def cmd_solve(cfg: dict, out_dir: Path) -> int:
    target, desc = _resolve_target(cfg["target"])
    degree = cfg["degree"]
    if "y_points" in cfg:
        ys = SignChangeSet(tuple(sorted(float(v) for v in cfg["y_points"])))
        result = best_co_q_monotone(target, degree, cfg["q"], ys)
        mode = f"co-{cfg['q']}-monotone"
    else:
        domain = Interval(*cfg["domain"]) if "domain" in cfg else None
        result = best_approx(target, degree, domain=domain)
        mode = "unconstrained"
    solution = {"target": desc, "degree": degree, "mode": mode,
                **result.to_dict()}
    write_json(out_dir / "artifacts" / "solution.json", solution)
    lines = [
        f"{mode} approximation of {desc} at degree {degree}",
        f"  grid error       = {result.error:.12e}",
        f"  post-check error = {result.post_check_error:.12e}",
    ]
    if result.constraint_violation is not None:
        lines.insert(3,
                     f"  constraint violation = "
                     f"{result.constraint_violation:.3e}")
    if not result.converged:
        lines.append("  not converged: the last regrid round failed its "
                     "checks")
    _print(lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# experiment


def cmd_experiment(name: str, cfg: dict, out_dir: Path) -> int:
    params = {k: v for k, v in cfg.items() if k != "out"}
    report = run_experiment(name, **params)
    write_report_files(report, out_dir)
    if name == "calibrate":
        write_json(out_dir / "artifacts" / "empirical_ledger.json",
                   report.extras["ledger"])
    _print(report.summary_lines())
    if not report.passed:
        for item in report.assertions:
            if not item.passed:
                print(f"FAILED assertion {item.name}: {item.detail}",
                      file=sys.stderr)
        return EXIT_ASSERTION
    return EXIT_OK


# ---------------------------------------------------------------------------
# plumbing


_FLAGS = {
    "r": ("--r", {"type": int, "help": "spline order"}),
    "b": ("--b", {"help": "window or cut parameter"}),
    "d": ("--d", {"help": "sign-change gap"}),
    "lam": ("--lam", {"help": "mollification width"}),
    "n": ("--n", {"type": int, "help": "summand degree"}),
    "K": ("--K", {"type": int, "help": "partial-sum level count"}),
    "q": ("--q", {"type": int, "help": "monotonicity order"}),
    "p": ("--p", {"type": int, "help": "smoothness order"}),
    "target": ("--target",
               {"help": "cos, F<r>, ideal:<r>:<b>, or artifact path"}),
    "degree": ("--degree", {"type": int, "help": "trigonometric degree"}),
    "domain": ("--domain", {"type": float, "nargs": 2,
                            "metavar": ("LO", "HI"),
                            "help": "interval endpoints"}),
    "ledger": ("--ledger", {"help": "constants ledger JSON path"}),
    "eps_rule": ("--eps-rule", {"help": "decay rule: log, linear, "
                                        "power:a, geometric:B, tower:B:e"}),
    "max_bits": ("--max-bits",
                 {"type": int, "help": "cap on planned integer sizes"}),
    "n_list": ("--n", {"type": int, "nargs": "+",
                       "help": "trigonometric degrees"}),
    "b_list": ("--b-list", {"type": float, "nargs": "+",
                            "help": "window parameters"}),
    "y_points": ("--Y", {"type": float, "nargs": "+",
                         "help": "sign-change points (even count)"}),
    "trials": ("--trials", {"type": int, "help": "random draws per cell"}),
    "knots": ("--knots", {"type": int, "help": "hinge knots per side"}),
    "seed": ("--seed", {"type": int, "help": "base random seed"}),
    "out": ("--out", {"help": "output directory for this run"}),
}


def _add_flags(parser, schema_key) -> None:
    parser.add_argument("--config", help="JSON config file; flags win")
    for key in SCHEMAS[schema_key]["properties"]:
        flag, kwargs = _FLAGS[key]
        parser.add_argument(flag, dest=key, **kwargs)


@functools.cache
def _build_parser() -> _Parser:
    """The parser tree, built once a process: parse_args keeps no state
    between calls, and building 15 subcommands costs a few ms."""
    parser = _Parser(prog="cotrig",
                     description="co-q-monotone approximation workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build",
                           help="construct a function, write its artifact")
    build_sub = build.add_subparsers(dest="kind", required=True)
    for kind in _BUILDERS:
        bp = build_sub.add_parser(kind)
        _add_flags(bp, ("build", kind))
        bp.set_defaults(schema_key=("build", kind), run_name=f"build-{kind}")

    solve = sub.add_parser("solve", help="one minimax approximation")
    _add_flags(solve, ("solve", None))
    solve.set_defaults(schema_key=("solve", None), run_name="solve")

    exp = sub.add_parser(
        "experiment", help="run a certification experiment",
        description="run a certification experiment; bernstein, lemma-3111 "
                    "and calibrate draw random numbers and take --seed, the "
                    "others take no seed")
    exp_sub = exp.add_subparsers(dest="name", required=True)
    for name in EXPERIMENT_NAMES:
        ep = exp_sub.add_parser(name)
        _add_flags(ep, ("experiment", name))
        ep.set_defaults(schema_key=("experiment", name),
                        run_name=f"experiment-{name}")
    return parser


def _coerce_flag(value, schema: dict):
    """A string flag for a number key as a float, unless the key's schema
    also admits strings and the flag meets its pattern."""
    types = schema.get("type", [])
    types = [types] if isinstance(types, str) else types
    if isinstance(value, str) and "number" in types and not (
            "string" in types and re.search(schema.get("pattern", ""), value)):
        try:
            return float(value)
        except ValueError:
            pass
    return value


def _resolve_config(args) -> dict:
    cfg = {}
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        cfg.update(loaded)
    for key, schema in SCHEMAS[args.schema_key]["properties"].items():
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = _coerce_flag(value, schema)
    return cfg


def _out_dir(args, cfg: dict) -> Path:
    if cfg.get("out"):
        return Path(cfg["out"])
    root = os.environ.get(OUT_ROOT_ENV, "runs")
    return Path(root) / args.run_name


def _dispatch(args, cfg: dict, out_dir: Path) -> int:
    if args.command == "build":
        return _BUILDERS[args.kind](cfg, out_dir)
    if args.command == "solve":
        return cmd_solve(cfg, out_dir)
    return cmd_experiment(args.name, cfg, out_dir)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        # before anything is written: a config that fails its schema
        # exits 64 and creates no run directory
        _validate(cfg, SCHEMAS[args.schema_key])
        # and so does a ledger file that is missing, malformed or breaks
        # its chain identities
        ledger = _load_ledger(cfg["ledger"]) if "ledger" in cfg else None
        out_dir = _out_dir(args, cfg)
        cfg["out"] = str(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        echo = {"command": args.command}
        if args.command == "build":
            echo["kind"] = args.kind
        elif args.command == "experiment":
            echo["name"] = args.name
        echo.update(cfg)
        write_json(out_dir / "config-echo.json", echo)
        # the commands read the loaded ledger where the echo holds its path
        if ledger is not None:
            cfg["ledger"] = ledger
        return _dispatch(args, cfg, out_dir)
    except (EpsGrowthError, RealizabilityError, LPError,
            FloatingPointError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
