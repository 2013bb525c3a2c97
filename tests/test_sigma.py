"""Tests for the symmetric-power structure maps sigma_t, lambda_t, sigma_u."""

import random

import pytest

from wittzeta.errors import PrecisionError
from wittzeta.rings import IntPolynomial, TruncatedSeries, ZPOLY, ZZ
from wittzeta.sigma import (
    lambda_from_sigma,
    macdonald_poincare,
    sigma_int,
    sigma_poly,
    sigma_witt,
    specialize_polynomial_coefficients,
)
from wittzeta.witt import WittRing, WittVector, ghost, frobenius, teichmuller, witt_add, witt_mul, witt_one, witt_zero

Z = IntPolynomial.variable()


# --- sigma on integers ---


def test_sigma_int_known_values():
    assert sigma_int(1, 4) == teichmuller(1, 4)
    assert sigma_int(0, 4) == witt_zero(ZZ, 4)
    assert sigma_int(2, 3).coeffs == (2, 3, 4)
    assert sigma_int(3, 3).coeffs == (3, 6, 10)


def test_sigma_int_negative_argument():
    # sigma_t(-1) = (1-t)^1, a polynomial rather than a series
    assert sigma_int(-1, 3).series.coeffs == (1, -1, 0, 0)
    assert sigma_int(-2, 4) == witt_zero(ZZ, 4) - sigma_int(2, 4)


def test_sigma_int_is_a_ring_map():
    for a in range(-6, 7):
        for b in range(-6, 7):
            assert sigma_int(a + b, 8) == witt_add(sigma_int(a, 8), sigma_int(b, 8))
            assert sigma_int(a * b, 8) == witt_mul(sigma_int(a, 8), sigma_int(b, 8))


# --- sigma on polynomials ---


def test_sigma_poly_on_the_variable():
    s = sigma_poly(Z, 2)
    assert s.coeffs == (Z, Z * Z)


def test_sigma_poly_degenerate_cases():
    assert sigma_poly(IntPolynomial(), 3) == witt_zero(ZPOLY, 3)
    embedded = sigma_poly(IntPolynomial.constant(4), 5)
    reference = sigma_int(4, 5)
    assert tuple(c for c in embedded.coeffs) == tuple(IntPolynomial.constant(c) for c in reference.coeffs)


def test_sigma_poly_is_a_ring_map():
    rng = random.Random(42)
    for _ in range(40):
        f = IntPolynomial([rng.randint(-3, 3) for _ in range(4)])
        g = IntPolynomial([rng.randint(-3, 3) for _ in range(4)])
        # operands rebuilt from their series, so witt_add and witt_mul cannot reuse f(z^n), g(z^n)
        sf, sg = WittVector(sigma_poly(f, 6).series), WittVector(sigma_poly(g, 6).series)
        assert sigma_poly(f + g, 6) == witt_add(sf, sg)
        assert sigma_poly(f * g, 6) == witt_mul(sf, sg)


# --- lambda_t from sigma_t ---


def test_lambda_of_two_is_binomial():
    assert lambda_from_sigma(sigma_int(2, 4)).coeffs == (1, 2, 1, 0, 0)


def test_lambda_of_zero_is_one():
    assert lambda_from_sigma(witt_zero(ZZ, 4)) == TruncatedSeries.one(ZZ, 4)


def test_lambda_of_the_variable_is_linear():
    lam = lambda_from_sigma(sigma_poly(Z, 3))
    assert lam.coeffs == (IntPolynomial((1,)), Z, IntPolynomial(), IntPolynomial())


def test_lambda_sigma_duality():
    for a in range(-4, 5):
        s = sigma_int(a, 6)
        assert lambda_from_sigma(s).at_minus_t() * s.series == TruncatedSeries.one(ZZ, 6)
    rng = random.Random(77)
    for _ in range(20):
        f = IntPolynomial([rng.randint(-3, 3) for _ in range(3)])
        s = sigma_poly(f, 5)
        assert lambda_from_sigma(s).at_minus_t() * s.series == TruncatedSeries.one(ZPOLY, 5)


# --- sigma_u on Witt vectors ---


def test_sigma_witt_of_teichmuller_is_double_teichmuller():
    s = sigma_witt(teichmuller(2, 6), 3)
    assert s.prec == 3
    for n in range(1, 4):
        assert s.coefficient(n) == teichmuller(2**n, 2)


def test_sigma_witt_of_zero_is_outer_zero():
    inner = WittRing(ZZ, 2)
    assert sigma_witt(witt_zero(ZZ, 4), 2) == witt_zero(inner, 2)


def test_sigma_witt_on_a_teichmuller_sum():
    p = witt_add(teichmuller(1, 4), teichmuller(2, 4))
    s = sigma_witt(p, 2)
    assert s.coefficient(1) == witt_add(teichmuller(1, 2), teichmuller(2, 2))
    assert s.coefficient(2) == witt_add(
        witt_add(teichmuller(1, 2), teichmuller(2, 2)), teichmuller(4, 2)
    )


def test_sigma_witt_outer_ghosts_are_frobenius():
    rng = random.Random(55)
    for _ in range(15):
        p = witt_zero(ZZ, 8)
        for _ in range(3):
            p = witt_add(p, teichmuller(rng.randint(-3, 3), 8))
        s = sigma_witt(p, 4)
        g = ghost(WittVector(s.series))
        for n in range(1, 5):
            assert g.coord(n) == frobenius(p, n).truncate(2)


def test_sigma_witt_is_a_ring_map_on_teichmuller_sums():
    p = witt_add(teichmuller(2, 8), teichmuller(3, 8))
    q = teichmuller(5, 8)
    assert sigma_witt(witt_add(p, q), 2) == witt_add(sigma_witt(p, 2), sigma_witt(q, 2))
    assert sigma_witt(witt_mul(p, q), 2) == witt_mul(sigma_witt(p, 2), sigma_witt(q, 2))


def test_sigma_witt_requires_enough_precision():
    with pytest.raises(PrecisionError):
        sigma_witt(teichmuller(2, 1), 2)
    with pytest.raises(ValueError):
        sigma_witt(teichmuller(2, 4), 0)


# --- Betti-vector measures ---


def test_macdonald_poincare_sphere_like_example():
    m = macdonald_poincare((1, 0, 1), 2)
    assert m.coeffs == (IntPolynomial((1, 0, 1)), IntPolynomial((1, 0, 1, 0, 1)))


def test_macdonald_poincare_point():
    assert macdonald_poincare((1,), 4) == witt_one(ZPOLY, 4)


def test_macdonald_poincare_ghosts_evaluate_poincare_polynomial():
    betti = (1, 2, 1)
    g = ghost(WittVector(macdonald_poincare(betti, 4).series))  # from the series, not the carried ghosts
    for n in range(1, 5):
        expected = [0] * (2 * n + 1)
        expected[0], expected[n], expected[2 * n] = 1, -2, 1
        assert g.coord(n) == IntPolynomial(expected)


def test_macdonald_specialization_is_euler_characteristic():
    for betti in ((1, 0, 1), (1, 2, 1), (2, 5, 0, 3)):
        chi = sum(-b if i & 1 else b for i, b in enumerate(betti))
        measure = macdonald_poincare(betti, 5)
        assert specialize_polynomial_coefficients(measure, 1) == sigma_int(chi, 5)


def test_macdonald_accepts_negative_betti_entries():
    m = macdonald_poincare((-1,), 3)
    assert m.series.coeffs == sigma_int(-1, 3).series.coeffs
