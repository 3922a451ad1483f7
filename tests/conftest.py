"""Shared fixtures: the mollifier table, two small constants ledgers, a
continuity probe for piecewise Chebyshev series, a hypothesis draw of
random ones, and random trigonometric polynomials.

The toy ledger uses round numbers so recursion-plan arithmetic can be
checked against hand-computed exact values; the table ledger carries the
measured step norms so scaled-summand identities come out at 1.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st
from numpy.polynomial.chebyshev import chebval

from cotrig.ledger import make_empirical_ledger
from cotrig.mollifier import build_mollifier_table
from cotrig.piecewise import PiecewiseCheb
from cotrig.trigpoly import TrigPoly


@pytest.fixture(scope="session")
def table():
    return build_mollifier_table()


@pytest.fixture(scope="session")
def toy_ledger():
    """Round-number empirical ledger: c6 = 1, c7 = 1/4, c9 = 1/256, c10 = 1/4."""
    return make_empirical_ledger(
        q=3, p=4, s_norms=(1, 2, 4, 8, 16),
        measured={"c0": 2, "c1": Fraction(1, 10), "c2": 10, "c3": 2,
                  "c4": 4, "c5": 1},
        gap=1, reference_b=Fraction(1, 4),
        provenance={"source": "round numbers for exact plan arithmetic"})


@pytest.fixture(scope="session")
def table_ledger(table):
    """Modest constants over the measured step norms; summands realizable."""
    s_norms = [Fraction(table.s_norm(j)) for j in range(table.max_order + 1)]
    return make_empirical_ledger(
        q=3, p=4, s_norms=s_norms,
        measured={"c0": 4, "c1": Fraction(2, 5), "c2": 4,
                  "c3": Fraction(1, 100), "c4": 4, "c5": 60},
        gap=1, reference_b=Fraction(1, 4),
        provenance={"source": "modest constants over measured step norms"})


def _join_defects(f):
    """Relative value jumps of a PiecewiseCheb at its interior joins (and
    at the wrap, if periodic): each piece's series at u = +1 against the
    next piece's at u = -1, divided by max(1, |left|, |right|)."""
    ends = np.array([chebval(1.0, c) for c in f.coefficients])
    starts = np.array([chebval(-1.0, c) for c in f.coefficients])
    left, right = ends[:-1], starts[1:]
    if f.periodic:
        left, right = np.append(left, ends[-1]), np.append(right, starts[0])
    return np.abs(left - right) / np.maximum(1.0, np.maximum(np.abs(left),
                                                             np.abs(right)))


@pytest.fixture(scope="session")
def join_defects():
    return _join_defects


def _draw_piecewise(data):
    """A PiecewiseCheb of 1-4 pieces, each 0.25-1 wide, starting at -1,
    with degrees 0-8 and coefficients in [-1, 1]; its pieces do not join,
    so its antiderivative has a kink at every breakpoint."""
    widths = data.draw(st.lists(st.floats(0.25, 1.0), min_size=1, max_size=4))
    bp = -1.0 + np.concatenate([[0.0], np.cumsum(widths)])
    coeff = st.floats(-1.0, 1.0, allow_subnormal=False)
    coefficients = [data.draw(st.lists(coeff, min_size=1, max_size=9))
                    for _ in widths]
    return PiecewiseCheb(bp, centres=0.5 * (bp[:-1] + bp[1:]),
                         halves=0.5 * np.diff(bp), coefficients=coefficients)


@pytest.fixture(scope="session")
def draw_piecewise():
    return _draw_piecewise


def _random_trig(rng, degree, odd=False, decay=0.0):
    """Random TrigPoly with N(0,1) coefficients damped by exp(-decay k),
    odd (sine terms only) on request."""
    k = np.arange(1, degree + 1, dtype=float)
    damp = np.exp(-decay * k)
    bs = rng.standard_normal(degree) * damp
    if odd:
        return TrigPoly(0.0, np.zeros(degree), bs)
    ac = rng.standard_normal(degree) * damp
    a0 = float(rng.standard_normal())
    return TrigPoly(a0, ac, bs)


@pytest.fixture(scope="session")
def random_trig():
    return _random_trig
