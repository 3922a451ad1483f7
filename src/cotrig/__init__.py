"""Co-q-monotone trigonometric approximation workbench.

Builds periodic ideal and mollified splines, solves best unconstrained
and shape-constrained minimax approximations on a grid, plans the
recursive counterexample sums in exact rational arithmetic, and runs
the certification experiments behind the `cotrig` command.
"""

from .counterexample import (PartialSum, RealizabilityError, RecursionPlan,
                             Summand, build_partial_sum, build_summand,
                             canonical_sign_set, plan_recursion,
                             transition_width)
from .grids import FULL_PERIOD, Interval, sup_norm
from .ledger import (ConstantsLedger, EpsGrowthError, make_empirical_ledger,
                     make_proven_ledger, parse_eps_rule)
from .minimax import (ApproxResult, best_approx, best_co_q_monotone,
                      solve_grid_minimax)
from .mollifier import MollifierTable, build_mollifier_table
from .piecewise import PiecewiseCheb
from .reports import (Assertion, ConstantReading, ExperimentReport,
                      write_report_files)
from .signsets import (SignChangeSet, delta_q_membership,
                       delta_q_membership_by_convexity)
from .simplex import (LinearProgram, LPError, LPInfeasibleError, LPSolution,
                      LPUnboundedError, solve_lp)
from .smooth import SmoothSpline, build_smooth_spline, spline_distance
from .splines import IdealSpline, abs_power, build_ideal_spline, step_offset
from .trigpoly import TrigPoly, trig_basis
from .experiments import calibrate_constants, run_experiment

__version__ = "0.1.0"

__all__ = [
    "ApproxResult", "Assertion", "ConstantReading", "ConstantsLedger",
    "EpsGrowthError", "ExperimentReport", "FULL_PERIOD", "IdealSpline", "Interval", "LinearProgram", "LPError", "LPInfeasibleError", "LPSolution",
    "LPUnboundedError", "MollifierTable", "PartialSum", "PiecewiseCheb",
    "RealizabilityError", "RecursionPlan", "SignChangeSet", "SmoothSpline",
    "Summand", "TrigPoly", "abs_power", "best_approx", "best_co_q_monotone",
    "build_ideal_spline", "build_mollifier_table", "build_partial_sum",
    "build_smooth_spline", "build_summand", "calibrate_constants",
    "canonical_sign_set", "delta_q_membership",
    "delta_q_membership_by_convexity", "make_empirical_ledger",
    "make_proven_ledger", "parse_eps_rule", "plan_recursion", "run_experiment", "solve_grid_minimax", "solve_lp", "spline_distance",
    "step_offset", "sup_norm", "transition_width", "trig_basis",
    "write_report_files",
]
