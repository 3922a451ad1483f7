"""The five layers of cotrig and the spans recorded in each.

Span names are ``<module>.<function>``; each maps to the places the
function is defined (``module:attr`` or ``module:Class.method``).  The
tracer rebinds a function in every cotrig module that imported it.
"""

LAYERS = {
    "L0": ("ledger, counterexample planning", (
        "counterexample.plan_recursion",
        "counterexample.RecursionPlan.verify",
        "counterexample.RecursionPlan.all_satisfied",
    )),
    "L1": ("splines, smooth, mollifier, piecewise construction", (
        "mollifier.build_mollifier_table",
        "counterexample.build_partial_sum",
        "counterexample.build_summand",
        "smooth.build_smooth_spline",
        "splines.build_ideal_spline",
        "target.eval",
    )),
    "L2": ("grids, trigpoly, signsets evaluation", (
        "grids.sup_norm",
        "grids.golden_refine_max",
        "trigpoly.TrigPoly.__call__",
        "trigpoly.trig_basis",
        "trigpoly.trig_derivative_basis",
        "signsets.delta_q_membership",
        "signsets.delta_q_membership_by_convexity",
    )),
    "L3": ("minimax, simplex LP", (
        "minimax.best_approx",
        "minimax.best_co_q_monotone",
        "minimax.solve_grid_minimax",
        "simplex.solve_lp",
    )),
    "L4": ("cli, reports, experiments orchestration", (
        "cli.main",
        "reports.write_json",
        "reports.write_report_files",
        "experiments.run_experiment",
        "experiments.window_floor_solve",
        "experiments.hill_climb",
    )),
}

# span name -> definitions it wraps; by default the span name itself
SPANS = {span: [span.replace(".", ":", 1)]
         for _, spans in LAYERS.values() for span in spans}
SPANS["target.eval"] = ["splines:IdealSpline.__call__", "splines:abs_power"]

# work counters per span (unit "count")
WORK_COUNTERS = {
    "target.eval": "points",
    "trigpoly.TrigPoly.__call__": "points",
    "trigpoly.trig_basis": "cells",
    "trigpoly.trig_derivative_basis": "cells",
    "simplex.solve_lp": "iterations",
}

LP_ERRORS = ("LPInfeasibleError", "LPUnboundedError", "LPIterationLimitError",
             "LPNumericalError")

def per_layer_metrics() -> list:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for layer, (_, spans) in LAYERS.items():
        for span in spans:
            out.append((f"{span}.calls", "count"))
            out.append((f"{span}.self_ms", "ms"))
            if span in WORK_COUNTERS:
                out.append((f"{span}.{WORK_COUNTERS[span]}", "count"))
        if layer == "L3":
            out += [("minimax.refine_rounds", "count"),
                    ("minimax.exchange_rounds", "count"),
                    ("minimax.working_points_max", "count"),
                    ("minimax.lp_per_solve", "ratio"),
                    ("minimax.solve_ok_ratio", "ratio")]
            out += [(f"simplex.errors.{name}", "count") for name in LP_ERRORS]
    out += [(f"layer.{layer}.self_ms", "ms") for layer in LAYERS]
    out.append(("bench.op.self_ms", "ms"))
    return out
