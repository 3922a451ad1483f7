"""Co-q-monotone trigonometric approximation workbench.

Builds periodic ideal and mollified splines, solves best unconstrained
and shape-constrained minimax approximations on a grid, plans the
recursive counterexample sums in exact rational arithmetic, and runs
the certification experiments behind the `cotrig` command.

The package root exports nothing: import what you use from its modules,
as in ``from cotrig.splines import build_ideal_spline``, and run the
command through ``cotrig.cli.main`` or ``python -m cotrig``.
"""

__version__ = "0.1.0"
