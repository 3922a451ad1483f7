"""Tests for the trigonometric polynomial coefficient calculus."""

import tracemalloc

import mpmath
import numpy as np
import pytest

from cotrig.trigpoly import (TrigPoly, coeffs_from_vector, trig_basis,
                             trig_derivative_basis)


def test_evaluation_matches_closed_forms():
    ts = np.linspace(-np.pi, np.pi, 41)
    assert np.allclose(TrigPoly(0.0, [], [1.0])(ts), np.sin(ts))
    assert np.allclose(TrigPoly(0.0, [0.0, 1.0])(ts), np.cos(2 * ts))
    assert TrigPoly(3.5)(0.7) == 3.5


def test_scalar_call_returns_float():
    p = TrigPoly(1.0, [2.0], [0.5])
    out = p(0.3)
    assert isinstance(out, float)
    assert out == pytest.approx(1.0 + 2.0 * np.cos(0.3) + 0.5 * np.sin(0.3))


def test_periodicity(random_trig):
    rng = np.random.default_rng(3)
    p = random_trig(rng, 5)
    ts = np.linspace(0, 1, 7)
    assert np.allclose(p(ts), p(ts + 2 * np.pi), atol=1e-12)


def test_mixed_length_coefficients_pad():
    p = TrigPoly(0.0, [1.0], [0.0, 2.0])
    assert p.degree == 2
    assert p.cos_coeffs.tolist() == [1.0, 0.0]
    assert p.sin_coeffs.tolist() == [0.0, 2.0]


def _theta(p):
    """The stacked coefficient vector [a0, cos..., sin...] of p."""
    return np.concatenate([[p.a0], p.cos_coeffs, p.sin_coeffs])


def _derivative(p, order):
    """The TrigPoly of p^(order), its coefficients formed here by
    (a cos kt + b sin kt)' = kb cos kt - ka sin kt."""
    k = np.arange(1, p.degree + 1, dtype=float)
    a0, ac, bs = p.a0, p.cos_coeffs, p.sin_coeffs
    for _ in range(order):
        a0, ac, bs = 0.0, k * bs, -k * ac
    return TrigPoly(a0, ac, bs)


def test_derivative_coefficients_exact():
    # (cos t)' = -sin t; (sin 2t)' = 2 cos 2t.  The rows c_k (ik)^j are
    # exact, and so is their sum at t = 0, where z = 1; a0 joins row 0 of
    # the order-0 jet only
    p = TrigPoly(4.0, [1.0, 0.0], [0.0, 1.0])
    assert p.jet(0.0, 2).tolist() == [[5.0], [2.0]]
    assert p.jet(0.0, 1, 1).tolist() == [[2.0]]
    t = np.linspace(-3.0, 3.0, 13)
    assert np.allclose(p.jet(t, 1, 1)[0], -np.sin(t) + 2.0 * np.cos(2.0 * t),
                       rtol=0.0, atol=1e-14)


def test_fourth_derivative_is_identity_at_degree_one():
    # four multiplications by i are exact, so T^(4) = T to the last bit
    p = TrigPoly(0.0, [0.7], [-0.3])
    t = np.linspace(-3.0, 3.0, 13)
    assert np.array_equal(p.jet(t, 3, 4), p.jet(t, 3))


def test_jet_matches_derivative_evaluations(random_trig):
    p = random_trig(np.random.default_rng(3), 7)
    t = np.linspace(-3.0, 3.0, 41)
    jet = p.jet(t)
    assert jet.shape == (3, 41)
    for order in range(6):
        rows = p.jet(t, 3, order)
        # row i sums c_k (ik)^(order+i) by the same loop as the jet that
        # starts at order + i, so the values agree to the last bit
        for i in range(3):
            assert np.array_equal(rows[i], p.jet(t, 1, order + i)[0])
            assert np.allclose(
                rows[i], trig_derivative_basis(t, 7, order + i) @ _theta(p),
                rtol=1e-12, atol=1e-12 * 7.0 ** (order + i))
    assert np.array_equal(p.jet(t, 3, 0), jet)
    assert p.jet(0.5).shape == (3, 1)
    assert TrigPoly(2.5).jet(t).tolist() == [[2.5] * 41, [0.0] * 41,
                                             [0.0] * 41]


def _mp_values(p, ts):
    """p at the float points ts, summed in 30-digit mpmath."""
    with mpmath.workdps(30):
        out = []
        for t in ts:
            t = mpmath.mpf(float(t))
            out.append(float(p.a0 + mpmath.fsum(
                a * mpmath.cos(k * t) + b * mpmath.sin(k * t)
                for k, (a, b) in enumerate(zip(p.cos_coeffs, p.sin_coeffs),
                                           start=1))))
    return np.array(out)


@pytest.mark.parametrize("degree", [1, 8, 128])
def test_evaluation_error_within_horner_bound(random_trig, degree):
    # Horner in z = e^{it} is backward stable: |error| <= O(n eps sum|c_k|),
    # also far from the origin, where a table of cos(kt) rounds kt itself
    rng = np.random.default_rng(degree)
    p = random_trig(rng, degree)
    ts = np.concatenate([rng.uniform(-4.0, 4.0, 12),
                         rng.uniform(-1e3, 1e3, 12), [-1e3, 0.0, 1e3]])
    eps = np.finfo(float).eps
    jet = p.jet(ts)
    for order in range(3):
        d = _derivative(p, order)
        bound = 8 * degree * eps * (abs(d.a0) + np.abs(d.cos_coeffs).sum()
                                    + np.abs(d.sin_coeffs).sum())
        ref = _mp_values(d, ts)
        assert np.abs(p.jet(ts, 1, order)[0] - ref).max() <= bound
        assert np.abs(jet[order] - ref).max() <= bound


def test_call_keeps_the_shape_of_t():
    p = TrigPoly(1.0, [1.0, 2.0], [0.5])
    grid = np.linspace(-2.0, 2.0, 6).reshape(2, 3)
    out = p(grid)
    assert out.shape == (2, 3)
    assert np.array_equal(out, p(grid.ravel()).reshape(2, 3))
    assert p(np.zeros((2, 3))).tolist() == [[4.0] * 3] * 2
    assert p.jet(grid).shape == (3, 6)
    assert TrigPoly(2.0)(grid).tolist() == [[2.0] * 3] * 2


def test_scalar_empty_and_constant_inputs():
    p = TrigPoly(1.0, [2.0], [0.5])
    assert isinstance(p(np.float64(0.3)), float)
    assert isinstance(p(np.array(0.3)), float)
    assert p(np.array(0.3)) == p(0.3) == p([0.3])[0]
    assert p(np.array([])).shape == (0,)
    assert p.jet(np.array([])).shape == (3, 0)
    c = TrigPoly(-1.5)
    assert c.degree == 0
    assert c(0.2) == -1.5
    assert c(np.array([])).shape == (0,)
    assert c.jet([0.0, 1.0]).tolist() == [[-1.5] * 2, [0.0] * 2, [0.0] * 2]


@pytest.mark.parametrize("method", ["__call__", "jet"])
def test_evaluation_memory_is_linear_in_points(random_trig, method):
    # cos/sin tables of 20 000 x 128 points take 40 MB (values), 60 MB (jet)
    p = random_trig(np.random.default_rng(2), 128)
    t = np.linspace(-np.pi, np.pi, 20_000)
    evaluate = getattr(p, method)
    evaluate(t[:10])
    tracemalloc.start()
    try:
        evaluate(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_derivative_order_validation():
    with pytest.raises(ValueError):
        TrigPoly(0.0, [1.0]).jet(0.0, 1, -1)
    # order 0 keeps a0 (2 + cos 0 = 3); every higher order drops it
    assert TrigPoly(2.0, [1.0]).jet(0.0, 1, 0).tolist() == [[3.0]]
    assert TrigPoly(2.0).jet([0.0, 1.0], 2, 1).tolist() == [[0.0] * 2] * 2


def test_trig_basis_columns():
    ts = np.array([0.0, 0.5])
    B = trig_basis(ts, 2)
    assert B.shape == (2, 5)
    assert np.allclose(B[:, 0], 1.0)
    assert np.allclose(B[:, 1], np.cos(ts))
    assert np.allclose(B[:, 2], np.cos(2 * ts))
    assert np.allclose(B[:, 3], np.sin(ts))
    assert np.allclose(B[:, 4], np.sin(2 * ts))
    B0 = trig_basis(ts, 0)
    assert B0.shape == (2, 1)


def test_trig_derivative_basis_matches_exact_derivative():
    ts = np.linspace(-1, 1, 13)
    rng = np.random.default_rng(7)
    for order in (0, 1, 2, 3):
        D = trig_derivative_basis(ts, 3, order)
        theta = rng.standard_normal(7)
        p = coeffs_from_vector(theta, 3)
        assert np.allclose(D @ theta, p.jet(ts, 1, order)[0], atol=1e-10)


def test_coeffs_from_vector_layout():
    p = coeffs_from_vector(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), 2)
    assert p.a0 == 1.0
    assert p.cos_coeffs.tolist() == [2.0, 3.0]
    assert p.sin_coeffs.tolist() == [4.0, 5.0]


def test_random_trig_odd_and_deterministic(random_trig):
    p = random_trig(np.random.default_rng(5), 6, odd=True)
    q = random_trig(np.random.default_rng(5), 6, odd=True)
    assert p.a0 == 0.0
    assert np.all(p.cos_coeffs == 0.0)
    assert np.array_equal(p.sin_coeffs, q.sin_coeffs)
    ts = np.linspace(0.1, 1.0, 5)
    assert np.allclose(p(-ts), -p(ts))


def test_random_trig_decay_shrinks_high_modes(random_trig):
    p = random_trig(np.random.default_rng(0), 40, decay=0.5)
    assert np.abs(p.sin_coeffs[-5:]).max() < 1e-6
