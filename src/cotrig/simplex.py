"""Standard-form linear programs solved by HiGHS.

Solves min c.x subject to A x = b, x >= 0 with scipy's HiGHS interface
(the dual revised simplex of Huangfu & Hall, Math. Prog. Comp. 2018),
presolve on.  The feasibility tolerances are tightened from HiGHS's 1e-7
to 1e-10: the minimax LPs normalise their values to 1, and a 1e-7 slack
shows up in their optima.  HiGHS's status codes become typed errors, so
a solve that gives up never returns a number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

FEASIBILITY_TOL = 1e-10


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


_STATUS_ERRORS = {1: LPIterationLimitError, 2: LPInfeasibleError,
                  3: LPUnboundedError}


def solve_lp(A, b, c, max_iterations: int = 20000) -> LPSolution:
    """Optimal solution of min c.x, A x = b, x >= 0.

    Raises LPInfeasibleError, LPUnboundedError, LPIterationLimitError, or
    LPNumericalError for any other HiGHS failure.  The duals y refer to
    the rows of A as passed in (A'y <= c, and b.y equals the optimum).
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    if A.ndim != 2 or A.shape[0] != b.size or A.shape[1] != c.size:
        raise ValueError("inconsistent LP dimensions")
    res = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs",
                  options={"maxiter": max_iterations,
                           "primal_feasibility_tolerance": FEASIBILITY_TOL,
                           "dual_feasibility_tolerance": FEASIBILITY_TOL})
    if res.status != 0:
        raise _STATUS_ERRORS.get(res.status, LPNumericalError)(res.message)
    duals = np.asarray(res.eqlin.marginals, dtype=float)
    objective = float(res.fun)
    return LPSolution(x=np.asarray(res.x, dtype=float), duals=duals,
                      objective=objective, iterations=int(res.nit),
                      duality_gap=abs(objective - float(duals @ b)))
