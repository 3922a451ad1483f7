"""Linear programs that grow by rows, solved and re-solved by HiGHS.

A ``LinearProgram`` is min c.x subject to lower <= A x <= upper and
bounds on x (x >= 0 until ``set_col_bounds`` replaces them), held in one
HiGHS model (the dual revised simplex of Huangfu & Hall, Math. Prog.
Comp. 2018, through the bindings scipy's ``linprog`` drives).
``add_rows`` appends constraints to the live model.  HiGHS keeps
the optimal basis of the last solve and gives each new row a basic slack,
so the basis stays dual feasible and the next ``solve_lp`` resumes from it
with a few dual simplex pivots instead of solving the enlarged LP from
scratch.  A model that grows over a whole minimax fit, grid after grid,
pays a cold solve only once.  ``set_col_bounds`` keeps the basis too.
Presolve is off: the models are small and dense and presolve removes
nothing from them.  On the first working sets of random exchange LPs it
cost time: the median cold solve of 17 columns took 1.8 ms with it and
1.0 ms without, and of 65 columns 23 and 16 ms.

HiGHS refactors the basis at every rebuild, where by default it keeps
an LU that it has updated at each pivot and row addition.  A minimax
model grows over a whole fit, and with the updated LU the last solve of
constrained ideal:3:1.2, q = 3, n = 16 returned an x that missed a row
HiGHS reported tight by 6.4e-9, which stalled the exchange.  Refactored,
that x met the row to 4e-16, in the same basis.

A model's first solve starts from the logical basis and keeps HiGHS's
pricing, dual steepest edge (Forrest & Goldfarb, Math. Prog. 57, 1992),
whose weights are all 1 there.  Every later solve prices by Devex, set
once after the first run.  From a basis that is not logical and not near
optimal, HiGHS would first compute the steepest-edge weights, one BTRAN
per row ("Basis is not logical, so compute steepest edge weights" in its
log); near the optimum it picks Devex itself.  In a minimax fit the
first few re-solves of its first grid take the first path, and they are
its most expensive ones: for constrained ideal:2:1.2, q = 3, n = 32
(408 to 518 rows, 66 columns) they took 15.9, 14.8 and 18.0 ms for 205,
142 and 163 pivots, and with Devex 8.9, 9.5 and 7.3 ms for 165, 148 and
105 (Xeon, one BLAS thread).  The fit's LP time fell from 123 to 96 ms.

The feasibility tolerances are tightened from HiGHS's 1e-7 to 1e-10: the
minimax LPs normalise their values to 1, and a 1e-7 slack shows up in
their optima.  HiGHS's own scaling is off, because the minimax rows come
scaled (an orthonormal basis, unit-length constraint rows, values at most
1) and with it on, warm re-solves lost accuracy: on the first grid of
constrained ideal:2 at n = 64 the last one left a dual residual of 2e-6
and a duality gap of 2e-7.  HiGHS's statuses become typed errors, so a
solve that gives up, or takes more than ITERATION_LIMIT pivots, never
returns a number.

The bindings load with the first ``LinearProgram``, not with this module,
and without ``scipy.optimize``: ``_highs_bindings`` finds scipy's directory
by ``importlib.util.find_spec``, which runs no package ``__init__``, and
loads the compiled ``scipy/optimize/_highspy/_core`` file on its own under
its dotted name, registered in ``sys.modules``.  The plain import would run
``scipy/optimize/__init__``, which loads scipy.linalg, scipy.special,
scipy.fft and numpy.f2py among 548 modules: 0.53 s and 42 MB of resident
memory before the first LP, against 7 ms, 3 modules and 3 MB (medians of
11 fresh processes on 2 vCPUs of a Xeon, no cached bytecode).
The plain import still serves when ``scipy.optimize._highspy`` is already
imported (nothing is left to save), and when the file is not where scipy
1.17 keeps it; a ``None`` entry in ``sys.modules`` counts as missing, as it
does for an import.  One corner remains: if ``scipy.optimize`` is imported
later in the same process, ``linprog(method="highs")`` and ``import
scipy.optimize._highspy._core`` work and give the same module object, but
the attribute ``_core`` of the package ``scipy.optimize._highspy`` is never
set, because the import system finds the module cached and does not attach
it to its parent.  Read the module from ``sys.modules`` or by an import
statement, never as that attribute.
"""

from __future__ import annotations

import functools
import importlib
import importlib.machinery
import importlib.util
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FEASIBILITY_TOL = 1e-10
# most simplex pivots one solve_lp call may take
ITERATION_LIMIT = 20000
# HiGHS's simplex_dual_edge_weight_strategy value for Devex pricing
DEVEX = 1


class LPError(Exception):
    """Base class for solver failures."""


class LPInfeasibleError(LPError):
    pass


class LPUnboundedError(LPError):
    pass


class LPIterationLimitError(LPError):
    pass


class LPNumericalError(LPError):
    pass


@dataclass
class LPSolution:
    x: np.ndarray
    duals: np.ndarray
    objective: float
    iterations: int
    duality_gap: float


# keyed by HighsModelStatus member names
_STATUS_ERRORS = {"kIterationLimit": LPIterationLimitError,
                  "kInfeasible": LPInfeasibleError,
                  "kUnbounded": LPUnboundedError}


# scipy's compiled HiGHS bindings, and their place under scipy's directory
_HIGHS_PACKAGE = "scipy.optimize._highspy"
_HIGHS_CORE = _HIGHS_PACKAGE + "._core"
_HIGHS_CORE_DIR = ("optimize", "_highspy")


@functools.cache
def _highs_bindings():
    """scipy's HiGHS bindings module, loaded once, without running
    ``scipy.optimize`` (see the module docstring)."""
    try:
        return _load_highs_core()
    except ImportError as exc:
        try:
            import scipy
            found = (f"the installed scipy {scipy.__version__} does not "
                     "provide them")
        except ImportError:
            found = "scipy is not installed"
        raise ImportError(f"cotrig needs the HiGHS bindings {_HIGHS_CORE} "
                          f"(scipy >= 1.17); {found}") from exc


def _load_highs_core():
    """The bindings module from its own file, or by the plain import when
    its package is already imported, the name is cached (a None entry
    raises), or the file is not found."""
    if _HIGHS_CORE in sys.modules or _HIGHS_PACKAGE in sys.modules:
        return importlib.import_module(_HIGHS_CORE)
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise ImportError(f"no module named 'scipy', so no {_HIGHS_CORE}",
                          name="scipy")
    for root in scipy_spec.submodule_search_locations or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = Path(root, *_HIGHS_CORE_DIR, "_core" + suffix)
            if path.is_file():
                return _load_extension(path)
    return importlib.import_module(_HIGHS_CORE)


def _load_extension(path: Path):
    """The extension file at path run as the bindings module, entered in
    sys.modules before it runs and taken out if it fails, as an import
    does."""
    loader = importlib.machinery.ExtensionFileLoader(_HIGHS_CORE, str(path))
    spec = importlib.util.spec_from_file_location(_HIGHS_CORE, path,
                                                  loader=loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[_HIGHS_CORE] = module
    try:
        loader.exec_module(module)
    except BaseException:
        del sys.modules[_HIGHS_CORE]
        raise
    return module


class LinearProgram:
    """min cost.x, lower <= A x <= upper, col_lower <= x <= col_upper.

    Starts with no rows and x >= 0; ``add_rows`` appends rows and
    ``set_col_bounds`` replaces the bounds.  Each instance owns its HiGHS
    model, so nothing carries over between programs.
    """

    def __init__(self, cost):
        cost = np.asarray(cost, dtype=float)
        if cost.ndim != 1:
            raise ValueError("cost must be a vector")
        n = cost.size
        self.num_cols = n
        self.col_lower = np.zeros(n)
        self.col_upper = np.full(n, np.inf)
        self.row_lower = np.zeros(0)
        self.row_upper = np.zeros(0)
        self._solved = False
        self._highs = _highs_bindings()._Highs()
        for name, value in (("output_flag", False),
                            ("presolve", "off"),
                            ("simplex_scale_strategy", 0),
                            ("no_unnecessary_rebuild_refactor", False),
                            ("simplex_iteration_limit", ITERATION_LIMIT),
                            ("primal_feasibility_tolerance", FEASIBILITY_TOL),
                            ("dual_feasibility_tolerance", FEASIBILITY_TOL)):
            self._highs.setOptionValue(name, value)
        self._highs.addVars(n, self.col_lower, self.col_upper)
        self._highs.changeColsCost(n, np.arange(n, dtype=np.int32), cost)

    def add_rows(self, rows, lower, upper) -> None:
        """Append the dense rows with lower <= rows x <= upper, or raise
        LPNumericalError and add nothing when an entry is not finite, a
        bound is NaN, or HiGHS refuses the rows (as it does an entry of
        1e15 or more; it takes a NaN entry)."""
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != self.num_cols:
            raise ValueError("rows must have one entry per column")
        m = rows.shape[0]
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        if lower.shape != (m,) or upper.shape != (m,):
            raise ValueError("need one lower and one upper bound per row")
        if m == 0:
            return
        if not np.isfinite(rows).all() or np.isnan(lower).any() \
                or np.isnan(upper).any():
            raise LPNumericalError("constraint rows with a NaN or infinite "
                                   "entry or a NaN bound")
        nz_rows, nz_cols = np.nonzero(rows)
        starts = np.searchsorted(nz_rows, np.arange(m)).astype(np.int32)
        status = self._highs.addRows(m, lower, upper, nz_rows.size, starts,
                                     nz_cols.astype(np.int32),
                                     rows[nz_rows, nz_cols])
        if status.name == "kError":
            raise LPNumericalError("HiGHS refused the constraint rows")
        self.row_lower = np.concatenate([self.row_lower, lower])
        self.row_upper = np.concatenate([self.row_upper, upper])

    def set_col_bounds(self, lower, upper) -> None:
        """Replace the bounds on x; the next solve resumes from the basis
        of the last one."""
        n = self.num_cols
        self.col_lower = np.broadcast_to(np.asarray(lower, float), n)
        self.col_upper = np.broadcast_to(np.asarray(upper, float), n)
        self._highs.changeColsBounds(n, np.arange(n, dtype=np.int32),
                                     self.col_lower, self.col_upper)


def _priced_bounds(dual, lower, upper) -> float:
    """Sum of dual * bound over the bound each dual prices.

    A positive dual prices the lower bound and a negative one the upper;
    a one-sided range is priced at its finite side and a free one at 0.
    """
    lo_ok = np.isfinite(lower)
    hi_ok = np.isfinite(upper)
    use_lo = lo_ok & ((dual >= 0.0) | ~hi_ok)
    bound = np.where(use_lo, lower, np.where(hi_ok, upper, 0.0))
    return float(dual @ bound)


def solve_lp(lp: LinearProgram) -> LPSolution:
    """Optimal solution of lp, resumed from the basis of its last solve.

    Raises LPInfeasibleError, LPUnboundedError, LPIterationLimitError, or
    LPNumericalError for any other HiGHS failure.  ``duals`` are the row
    duals (cost - A'duals are the reduced costs), ``iterations`` counts
    the simplex pivots of this call alone, and ``duality_gap`` is
    |objective - dual objective| with the dual objective priced from the
    returned row duals and reduced costs.
    """
    highs = lp._highs
    highs.run()
    if not lp._solved:
        # every later solve is a re-solve, priced by Devex (module docstring)
        highs.setOptionValue("simplex_dual_edge_weight_strategy", DEVEX)
        lp._solved = True
    status = highs.getModelStatus()
    if status.name != "kOptimal":
        raise _STATUS_ERRORS.get(status.name, LPNumericalError)(
            f"HiGHS model status: {highs.modelStatusToString(status)}")
    info = highs.getInfo()
    sol = highs.getSolution()
    x = np.asarray(sol.col_value, dtype=float)
    duals = np.asarray(sol.row_dual, dtype=float)
    reduced = np.asarray(sol.col_dual, dtype=float)
    objective = float(info.objective_function_value)
    dual_objective = (_priced_bounds(duals, lp.row_lower, lp.row_upper)
                      + _priced_bounds(reduced, lp.col_lower, lp.col_upper))
    return LPSolution(x=x, duals=duals, objective=objective,
                      iterations=int(info.simplex_iteration_count),
                      duality_gap=abs(objective - dual_objective))
