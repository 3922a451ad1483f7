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
command-line flags.  A flag and a config key read alike: a flag's text
and a config file's value go through the same check, the one _KEYS
gives the key, and a string is read the way Python reads it (int() for
an integer key, float() for a number key), so --r 2 and "r": "2" are
the same value.  A check refuses the wrong type, a bool, 4.0 for an
integer, a number that is not finite, a value below the key's minimum
or above its maximum (p's is 10, the highest order whose constants the
step table gives), an empty list and a domain of other than two
numbers; every refusal starts with the key it names.  A
fraction key (lam, and b and d on the commands that read a ledger) also
admits any string that Fraction reads as a positive rational whose float
is positive and finite, "1/12", "0.1", "1e-1", " 1/4" or "1_0" alike,
and keeps it exactly as given: --b 0.1 is the exact 1/10.  The config is
checked before the run directory is made, so a bad value writes nothing;
the --ledger file (a ledger, or a report.json whose extras hold one) is
loaded there too, so a missing, malformed or chain-broken ledger writes
nothing either.  A usage error a command raises later removes the run
directory, when this run made it.

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
import shutil
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
from .mollifier import _MAX_BUMP_ORDER
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


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with code 64, and whose
    commands report the flags they do not know with their own usage."""

    def parse_known_args(self, args=None, namespace=None):
        args, extras = super().parse_known_args(args, namespace)
        # a command has no subcommands; argparse would pass its extras up
        # to the root parser, whose usage names no command
        if extras and self._subparsers is None:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return args, extras

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _load_ledger(path: str) -> ConstantsLedger:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    # calibrate's report.json holds its ledger in extras
    if doc.get("kind") == "experiment_report":
        doc = doc["extras"]["ledger"]
    return ConstantsLedger.from_dict(doc)


def _print(lines) -> None:
    for line in lines:
        print(line)


# ---------------------------------------------------------------------------
# build


def _ideal_summary(spline: IdealSpline, r: int, b: float) -> dict:
    gamma = step_offset(b)
    coeffs, defect = spline.residual_poly()
    member = delta_q_membership_by_convexity(
        lambda x: spline.jet(x, 1, r - 1)[0], canonical_sign_set(b))
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
    norms = {str(j): spline.sup_derivative(j) for j in range(r + 3)}
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


def _integer(least: int, most: int | None = None):
    """The check of an integer key of at least least, and at most most if
    given."""
    def check(key, value):
        if isinstance(value, str):
            try:
                value = int(value)
            except ValueError:
                pass
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{key}: {value!r} is not an integer")
        if value < least:
            raise ValueError(f"{key}: {value!r} is less than the minimum "
                             f"of {least}")
        if most is not None and value > most:
            raise ValueError(f"{key}: {value!r} is greater than the maximum "
                             f"of {most}")
        return value
    return check


def _number(key, value, positive=False):
    """A finite number, and a positive one if positive."""
    if isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            pass
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key}: {value!r} is not a number")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{key}: {value!r} is not a finite number")
    if positive and value <= 0:
        raise ValueError(f"{key}: {value!r} is not greater than 0")
    return value


def _positive(key, value):
    return _number(key, value, positive=True)


def _fraction(key, value):
    """A string Fraction reads as a positive rational whose float is
    positive and finite, kept as given; else a positive number."""
    if isinstance(value, str):
        try:
            if 0 < float(Fraction(value)) < math.inf:
                return value
        except (ValueError, ZeroDivisionError, OverflowError):
            pass
    return _positive(key, value)


def _text(key, value):
    if not isinstance(value, str) or not value:
        raise ValueError(f"{key}: {value!r} is not non-empty text")
    return value


def _list(item, size=None):
    """The check of a non-empty list (of size items, if given) whose
    items each pass item."""
    def check(key, value):
        if not isinstance(value, list) or not value \
                or len(value) != (size or len(value)):
            raise ValueError(f"{key}: {value!r} is not a list of "
                             f"{size or 'one or more'} values")
        return [item(f"{key}[{i}]", v) for i, v in enumerate(value)]
    return check


# each config key: its flag, the check its value passes, and the flag's
# other argparse settings
_KEYS = {
    "r": ("--r", _integer(1), {"help": "spline order"}),
    "b": ("--b", _positive, {"help": "window or cut parameter"}),
    "d": ("--d", _positive, {"help": "sign-change gap"}),
    "lam": ("--lam", _fraction, {"help": "mollification width"}),
    "n": ("--n", _integer(1), {"help": "summand degree"}),
    "K": ("--K", _integer(1), {"help": "partial-sum level count"}),
    "q": ("--q", _integer(3), {"help": "monotonicity order"}),
    # calibrate reads the step table's sup norms up to order p + 2, whose
    # jet reaches a bump derivative of order p + 3
    "p": ("--p", _integer(3, _MAX_BUMP_ORDER - 3),
          {"help": "smoothness order"}),
    "target": ("--target", _text,
               {"help": "cos, F<r>, ideal:<r>:<b>, or artifact path"}),
    "degree": ("--degree", _integer(1), {"help": "trigonometric degree"}),
    "domain": ("--domain", _list(_number, 2),
               {"nargs": 2, "metavar": ("LO", "HI"),
                "help": "fit interval endpoints (not with --Y)"}),
    "ledger": ("--ledger", _text, {"help": "constants ledger JSON path"}),
    "eps_rule": ("--eps-rule", _text, {"help": "decay rule: log, linear, "
                                               "power:a, geometric:B, "
                                               "tower:B:e"}),
    "max_bits": ("--max-bits", _integer(1),
                 {"help": "cap on planned integer sizes"}),
    "n_list": ("--n", _list(_integer(1)),
               {"nargs": "+", "help": "trigonometric degrees"}),
    "b_list": ("--b-list", _list(_number),
               {"nargs": "+", "help": "window parameters"}),
    "y_points": ("--Y", _list(_number),
                 {"nargs": "+", "help": "sign-change points (even count)"}),
    "trials": ("--trials", _integer(1), {"help": "random draws per cell"}),
    "knots": ("--knots", _integer(1), {"help": "hinge knots per side"}),
    "seed": ("--seed", _integer(0), {"help": "base random seed"}),
    "out": ("--out", _text, {"help": "output directory for this run"}),
}

# each command's required keys and its optional ones, named as its run
# directory; every command also takes out.  Only bernstein, lemma-3111
# and calibrate draw random numbers, so only they take a seed.
COMMANDS = {
    "build-ideal": (("r", "b"), ()),
    "build-smooth": (("r", "d", "lam"), ()),
    "build-fnb": (("ledger", "n", "b"), ("d",)),
    "build-partial-sum": (("ledger", "K"), ("d", "eps_rule", "max_bits")),
    "solve": (("target", "degree"), ("domain", "q", "y_points")),
    "experiment-bernstein": (("b", "n_list"), ("trials", "seed")),
    "experiment-lemma-mod": (("b_list", "n_list"), ()),
    "experiment-lemma-3111": (("q", "b"), ("trials", "seed")),
    "experiment-lemma-22": (("q",), ("knots",)),
    "experiment-thm-12": (("q", "y_points", "n_list"), ()),
    "experiment-thm-13": (("q", "y_points", "n_list"), ()),
    "experiment-lemma-aux": (("n_list", "b", "q", "p", "ledger"), ("d",)),
    "experiment-calibrate": (("q", "p", "d"), ("seed",)),
}


def _keys(command: str) -> tuple:
    required, optional = COMMANDS[command]
    return required + optional + ("out",)


def _checked(cfg: dict, command: str) -> dict:
    """cfg with every value as its key's check reads it, or a ValueError
    that starts with the offending key."""
    keys = _keys(command)
    for key in cfg:
        if key not in keys:
            raise ValueError(f"{key}: unknown key")
    for key in COMMANDS[command][0]:
        if key not in cfg:
            raise ValueError(f"{key}: required")
    # a constrained solve needs its order and its sign changes together
    if command == "solve" and ("q" in cfg) != ("y_points" in cfg):
        given, need = ("q", "y_points") if "q" in cfg else ("y_points", "q")
        raise ValueError(f"{need}: required with {given!r}")
    # a constrained solve fits on the gaps of its sign changes
    if command == "solve" and "domain" in cfg and "y_points" in cfg:
        raise ValueError("domain: not allowed with 'y_points'")
    # the commands that read a ledger plan in exact rational arithmetic,
    # so there b and d are fractions; everywhere else they are numbers
    fractions = ("b", "d") if "ledger" in COMMANDS[command][0] else ()
    return {key: (_fraction if key in fractions else _KEYS[key][1])(key, value)
            for key, value in cfg.items()}


def _add_flags(parser, command: str) -> None:
    parser.add_argument("--config", help="JSON config file; flags win")
    for key in _keys(command):
        flag, _, kwargs = _KEYS[key]
        parser.add_argument(flag, dest=key, **kwargs)
    parser.set_defaults(run_name=command)


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
        _add_flags(build_sub.add_parser(kind), f"build-{kind}")

    _add_flags(sub.add_parser("solve", help="one minimax approximation"),
               "solve")

    exp = sub.add_parser(
        "experiment", help="run a certification experiment",
        description="run a certification experiment; bernstein, lemma-3111 "
                    "and calibrate draw random numbers and take --seed, the "
                    "others take no seed")
    exp_sub = exp.add_subparsers(dest="name", required=True)
    for name in EXPERIMENT_NAMES:
        _add_flags(exp_sub.add_parser(name), f"experiment-{name}")
    return parser


def _resolve_config(args) -> dict:
    """The config file's values overridden by the flags, checked."""
    cfg = {}
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        cfg.update(loaded)
    for key in _keys(args.run_name):
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    return _checked(cfg, args.run_name)


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
    made = None  # the outermost directory this run creates
    try:
        # before anything is written: a config that fails its checks
        # exits 64 and creates no run directory
        cfg = _resolve_config(args)
        # and so does a ledger file that is missing, malformed or breaks
        # its chain identities
        ledger = _load_ledger(cfg["ledger"]) if "ledger" in cfg else None
        out_dir = _out_dir(args, cfg)
        cfg["out"] = str(out_dir)
        made = next((path for path in (*reversed(out_dir.parents), out_dir)
                     if not path.exists()), None)
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
        # a usage error writes nothing, also when a command raises it
        # after the run directory was made
        if made is not None:
            shutil.rmtree(made, ignore_errors=True)
        return EXIT_USAGE

if __name__ == "__main__":
    sys.exit(main())
