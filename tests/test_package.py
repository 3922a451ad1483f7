"""Tests that the benchmark's span table resolves against the code, that
scipy and mpmath load only where they are used (scipy only through the
HiGHS loader in simplex.py, which loads the bindings alone and falls
back to the plain import), that every import is of the standard
library or a declared dependency, that sup norms are taken of one
callable each, that one function writes every file, that every
defaulted parameter has a caller that sets it, that every definition
has a caller outside the tests, that no private name leaves its module
but three, and that the CLI runs the same in one process as in fresh
ones.
The package root exports no names, so there are none to resolve."""

import ast
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

from cotrig import cli

ROOT = Path(__file__).resolve().parents[1]
LAYERS_PY = ROOT / "perfbench" / "layers.py"


def _defined(target: str) -> bool:
    """Whether ``module:attr`` or ``module:Class.method`` exists in cotrig."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(f"cotrig.{module_name}")
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name, None)
    if owner is None:
        return False
    if classes:
        # defined by the class itself: every class answers __call__ via type
        return any(attr in vars(k) for k in owner.__mro__ if k is not object)
    return callable(getattr(owner, attr, None))


def _span_targets():
    """Every definition the benchmark's span table wraps, as
    ``module:attr`` or ``module:Class.method``; the table is loaded by
    path and the tracer itself is never installed."""
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    targets = [t for defs in layers.SPANS.values() for t in defs]
    assert len(targets) >= len(layers.SPANS)
    return targets


def test_benchmark_spans_resolve():
    assert [t for t in _span_targets() if not _defined(t)] == []


# run in a fresh interpreter: prints the heavy modules loaded after the
# import, after an experiment and a smooth-spline build that need
# neither, and whether a constrained solve brought in the HiGHS bindings
_STARTUP_PROBE = """
import json, sys
import cotrig, cotrig.cli

def loaded(*names):
    return sorted(m for m in sys.modules if m.split(".")[0] in names)

out = sys.argv[1]
seen = {"import": loaded("scipy", "mpmath")}
code = cotrig.cli.main(["experiment", "lemma-3111", "--q", "3", "--b", "0.5",
                        "--trials", "4", "--out", out + "/lemma"])
seen["lemma-3111"] = [code, loaded("scipy")]
code = cotrig.cli.main(["build", "smooth", "--r", "2", "--d", "1", "--lam", "1/12",
                        "--out", out + "/smooth"])
seen["build smooth"] = [code, loaded("scipy")]
code = cotrig.cli.main(["solve", "--target", "ideal:1:1.2", "--degree", "4",
                        "--q", "3", "--Y", "-1.2", "0", "--out", out + "/solve"])
seen["solve"] = [code, "scipy.optimize._highspy._core" in sys.modules]
print(json.dumps(seen))
"""


def _fresh_python(args, cwd):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_startup_loads_scipy_and_mpmath_only_when_used(tmp_path):
    run = _fresh_python(["-c", _STARTUP_PROBE, str(tmp_path)], tmp_path)
    assert run.returncode == 0, run.stderr
    seen = json.loads(run.stdout.splitlines()[-1])
    assert seen == {"import": [], "lemma-3111": [0, []],
                    "build smooth": [0, []], "solve": [0, True]}


# run in a fresh interpreter: the scipy modules a constrained solve loads,
# then, once scipy.optimize is imported too, linprog's optimum and whether
# the import statement gives the loader's module
_HIGHS_PROBE = """
import json, sys
import cotrig.cli
from cotrig.simplex import _highs_bindings

code = cotrig.cli.main(["solve", "--target", "ideal:2:1.2", "--degree", "4",
                        "--q", "3", "--Y", "-1.2", "0", "--out", sys.argv[1]])
seen = {"solve": [code, sorted(m for m in sys.modules if m.startswith("scipy"))]}
from scipy.optimize import linprog
res = linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-3.0], method="highs")
import scipy.optimize._highspy._core as core
seen["linprog"] = [res.status, res.fun, core is _highs_bindings()]
print(json.dumps(seen))
"""

# run in a fresh interpreter: the loader with scipy's directory holding no
# bindings file falls back to the plain import
_FALLBACK_PROBE = """
import json, sys
import cotrig.simplex as simplex

simplex._HIGHS_CORE_DIR = ("no_such_directory",)
core = simplex._highs_bindings()
lp = simplex.LinearProgram([1.0, 2.0])
lp.add_rows([[1.0, 1.0]], [3.0], [float("inf")])
print(json.dumps([simplex.solve_lp(lp).objective, "scipy.optimize" in sys.modules,
                  core is sys.modules["scipy.optimize._highspy._core"]]))
"""


def test_first_lp_loads_only_the_highs_bindings(tmp_path):
    run = _fresh_python(["-c", _HIGHS_PROBE, str(tmp_path / "solve")],
                        tmp_path)
    assert run.returncode == 0, run.stderr
    seen = json.loads(run.stdout.splitlines()[-1])
    core = "scipy.optimize._highspy._core"
    assert seen == {"solve": [0, [core, core + ".cb",
                                  core + ".simplex_constants"]],
                    "linprog": [0, 3.0, True]}


def test_highs_loader_falls_back_to_the_plain_import(tmp_path):
    run = _fresh_python(["-c", _FALLBACK_PROBE], tmp_path)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1]) == [3.0, True, True]


def _imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def _importers(package: str) -> list:
    """The cotrig modules that import package, at module level or inside
    a function."""
    return sorted(
        path.name for path in (ROOT / "src" / "cotrig").glob("*.py")
        if package in _imported_roots(ast.parse(path.read_text())))


def _calls(name: str):
    """(module file name, call node) of every call of name in cotrig, as a
    plain name or an attribute."""
    for path in sorted((ROOT / "src" / "cotrig").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and name in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None)):
                yield path.name, node


def test_only_simplex_imports_scipy():
    # the HiGHS loader is the one place scipy may enter
    assert _importers("scipy") == ["simplex.py"]


def test_every_import_is_a_declared_dependency():
    # cli checks configs itself: nothing outside the standard library and
    # the dependencies pyproject.toml declares is ever imported
    declared = set(sys.stdlib_module_names) | {"numpy", "scipy", "mpmath"}
    assert sorted({root for path in (ROOT / "src" / "cotrig").glob("*.py")
                   for root in _imported_roots(ast.parse(path.read_text()))}
                  - declared) == []


def test_no_module_calls_golden_section_search():
    # every sup norm is polished by Newton steps on a jet; golden-section
    # search stays in grids only as the tests' reference
    assert [name for name, _ in _calls("golden_refine_max")] == []


def test_sup_norm_takes_one_callable():
    # a sup norm is given one jet(x, rows), whose row 0 is the function:
    # no caller passes a second description of it
    calls = list(_calls("sup_norm"))
    assert calls
    assert [(name, node.lineno) for name, node in calls
            if any(kw.arg == "jet" for kw in node.keywords)] == []


def _file_writers():
    """(module file name, enclosing function) of every call in cotrig that
    makes a directory or opens a file to write: open with a w, a, x or +
    mode, os.makedirs, os.mkdir, .mkdir, .write_text and .write_bytes."""
    for path in sorted((ROOT / "src" / "cotrig").glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        # ast.walk goes outside in, so an inner function overwrites its
        # outer one's claim on the nodes it holds
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(node), fn.name) for node in ast.walk(fn))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name == "open":
                # open(file, mode) and path.open(mode)
                at = 1 if isinstance(node.func, ast.Name) else 0
                modes = [kw.value for kw in node.keywords if kw.arg == "mode"]
                mode = (node.args[at:at + 1] or modes or [None])[0]
                writes = mode is not None and not (
                    isinstance(mode, ast.Constant)
                    and not set(str(mode.value)) & set("wax+"))
            else:
                writes = name in ("makedirs", "mkdir", "write_text",
                                  "write_bytes")
            if writes:
                yield path.name, owner.get(id(node), "<module>")


def test_one_function_writes_every_file():
    # every file the package writes, and every directory it makes, goes
    # through reports._write_text
    assert sorted(set(_file_writers())) == [("reports.py", "_write_text")]


def test_private_names_stay_in_their_module():
    # a private name imported by another module is a second caller of an
    # implementation detail; only these three remain
    imported = {(path.stem, node.module, alias.name)
                for path in (ROOT / "src" / "cotrig").glob("*.py")
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ImportFrom) and node.level
                for alias in node.names if alias.name.startswith("_")}
    assert imported == {("cli", "mollifier", "_MAX_BUMP_ORDER"),
                        ("experiments", "minimax", "_split_points"),
                        ("minimax", "grids", "_newton_refine_max")}


def _calls_by_callee(paths) -> dict:
    """callee name -> [(positional count, keyword names, unpacks)] of every
    call in the files, the callee being a plain name or an attribute."""
    calls = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            callee = getattr(node.func, "id", getattr(node.func, "attr", None))
            keywords = {kw.arg for kw in node.keywords}
            unpacks = None in keywords or any(isinstance(a, ast.Starred)
                                              for a in node.args)
            calls.setdefault(callee, []).append(
                (len(node.args), keywords, unpacks))
    return calls


def _defaulted_parameters(tree):
    """(callee name, parameter, positional index or None) of every defaulted
    parameter of a module-level function or method; a method's index
    leaves out self, and __init__ is called by its class name."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            defs = [(node.name, node, False)]
        elif isinstance(node, ast.ClassDef):
            defs = [(node.name if fn.name == "__init__" else fn.name, fn, True)
                    for fn in node.body if isinstance(fn, ast.FunctionDef)]
        else:
            continue
        for callee, fn, bound in defs:
            params = fn.args.posonlyargs + fn.args.args
            first = len(params) - len(fn.args.defaults)
            for i, arg in enumerate(params[first:], start=first):
                yield callee, arg.arg, i - bound
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    yield callee, arg.arg, None


# the function run_experiment runs for each experiment name
_DISPATCHED = {"exp_bernstein_interval": "bernstein",
               "exp_lemma_mod": "lemma-mod", "exp_lemma_3111": "lemma-3111",
               "exp_lemma_22": "lemma-22", "exp_theorem_12": "thm-12",
               "exp_theorem_13": "thm-13", "exp_lemma_aux": "lemma-aux",
               "calibrate_constants": "calibrate"}


def test_every_defaulted_parameter_is_set_by_some_caller():
    # a parameter no caller in cotrig or the benchmark sets is an option
    # only tests use; the experiments run_experiment dispatches are set by
    # their CLI config keys alone
    from cotrig.experiments import EXPERIMENT_NAMES

    assert sorted(_DISPATCHED.values()) == sorted(EXPERIMENT_NAMES)
    config_keys = {fn: sum(cli.COMMANDS[f"experiment-{name}"], ())
                   for fn, name in _DISPATCHED.items()}
    src = sorted((ROOT / "src" / "cotrig").glob("*.py"))
    calls = _calls_by_callee(src + sorted((ROOT / "perfbench").glob("*.py")))
    unset = []
    for path in src:
        for callee, name, index in _defaulted_parameters(
                ast.parse(path.read_text())):
            if callee in config_keys:
                is_set = name in config_keys[callee]
            else:
                is_set = any(unpacks or name in keywords
                             or (index is not None and index < count)
                             for count, keywords, unpacks
                             in calls.get(callee, ()))
            if not is_set:
                unset.append(f"{callee}.{name}")
    assert unset == []


def test_every_definition_has_a_caller_outside_tests():
    """Every function, method and class defined in cotrig, dunder names
    excepted, is referenced outside the tests: as a Name, an Attribute or
    an imported name in a cotrig module or a benchmark module, or as a
    span the benchmark's span table wraps.  The check goes by name, so a name
    that several definitions share (jet, to_dict, sup_derivative, ...) is
    referenced by a use of any one of them, and is not checked
    definition by definition."""
    src = sorted((ROOT / "src" / "cotrig").glob("*.py"))
    users = src + [path for path in sorted((ROOT / "perfbench").glob("*.py"))
                   if not path.name.startswith("test_")]
    referenced = {part for target in _span_targets()
                  for part in re.split(r"[:.]", target)}
    for path in users:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    unreferenced = [
        f"{path.name}:{node.name}" for path in src
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not re.fullmatch(r"__\w+__", node.name)
        and node.name not in referenced]
    assert unreferenced == []


def test_python_m_cotrig_runs_a_command(tmp_path):
    out = tmp_path / "run"
    run = _fresh_python(["-m", "cotrig", "build", "ideal", "--r", "2",
                         "--b", "1.2", "--out", str(out)], tmp_path)
    assert run.returncode == 0, run.stderr
    assert (out / "artifacts" / "ideal.json").is_file()


def test_one_process_runs_commands_as_fresh_processes_do(tmp_path):
    # the parser tree is built once a process; a usage error, a solve and
    # a build through it must exit and write as they do in fresh processes
    commands = [
        ["solve", "--target", "cos", "--degree", "2", "--jobs", "2"],
        ["solve", "--target", "ideal:1:1.2", "--degree", "4", "--q", "3",
         "--Y", "-1.2", "0"],
        ["build", "ideal", "--r", "2", "--b", "1.2"],
    ]
    codes = []
    for i, argv in enumerate(commands):
        here, fresh = tmp_path / f"here{i}", tmp_path / f"fresh{i}"
        try:
            code = cli.main(argv + ["--out", str(here)])
        except SystemExit as exc:
            code = exc.code
        run = _fresh_python(["-m", "cotrig", *argv, "--out", str(fresh)],
                            tmp_path)
        assert code == run.returncode, run.stderr
        codes.append(code)
        files = sorted(p.name for p in (here / "artifacts").glob("*.json"))
        assert files == sorted(
            p.name for p in (fresh / "artifacts").glob("*.json"))
        for name in files:
            assert ((here / "artifacts" / name).read_bytes()
                    == (fresh / "artifacts" / name).read_bytes())
    assert codes == [cli.EXIT_USAGE, cli.EXIT_OK, cli.EXIT_OK]
