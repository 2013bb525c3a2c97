"""Tests for zeta assembly, symmetric powers and rational reconstruction."""

import random

import pytest

from wittzeta.errors import InconsistentCountsError, PrecisionError, ReconstructionError
from wittzeta.rings import IntPolynomial, TruncatedSeries, ZPOLY, ZZ
from wittzeta.varieties import (
    AffineSpace,
    EllipticCurve,
    PointCounts,
    ProjectiveSpace,
    point_counts,
)
from wittzeta.witt import WittVector, ghost, teichmuller, witt_add, witt_one
from wittzeta.zeta import (
    RationalFunction,
    closed_point_degree_counts,
    euler_product_zeta,
    mobius,
    rational_reconstruct,
    sym_power_counts,
    sym_zeta,
    zeta_from_counts,
    zeta_generating_series,
)

E = EllipticCurve(5, 1, 0)


# --- zeta from counts ---


def test_zeta_of_affine_line_is_teichmuller():
    for q in (2, 3):
        counts = point_counts(AffineSpace(1, q), 3)
        assert zeta_from_counts(counts, 3) == teichmuller(q, 3)


def test_zeta_of_a_point():
    assert zeta_from_counts(PointCounts(2, (1, 1, 1)), 3) == witt_one(ZZ, 3)


def test_zeta_of_projective_line():
    counts = point_counts(ProjectiveSpace(1, 2), 3)
    assert zeta_from_counts(counts, 3).coeffs == (3, 7, 15)


def test_zeta_range_and_precision_guards():
    with pytest.raises(PrecisionError):
        zeta_from_counts(PointCounts(2, (3, 5)), 3)
    with pytest.raises(ValueError):
        zeta_from_counts(PointCounts(2, (3,)), 0)


def test_zeta_rejects_inconsistent_counts():
    with pytest.raises(InconsistentCountsError) as info:
        zeta_from_counts(PointCounts(2, (1, 2)), 2)
    assert info.value.degree == 2


# --- closed points and the Euler product ---


def test_mobius_values():
    assert [mobius(n) for n in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]
    with pytest.raises(ValueError):
        mobius(0)


def test_closed_point_degree_counts_affine_line():
    counts = point_counts(AffineSpace(1, 2), 3)
    assert closed_point_degree_counts(counts, 3) == (2, 1, 2)


def test_closed_point_degree_counts_projective_line():
    counts = point_counts(ProjectiveSpace(1, 2), 3)
    assert closed_point_degree_counts(counts, 3) == (3, 1, 2)


def test_closed_point_degree_counts_reject_negative():
    with pytest.raises(InconsistentCountsError) as info:
        closed_point_degree_counts(PointCounts(2, (3, 1)), 2)
    assert info.value.degree == 2


def test_euler_product_matches_direct_expansion():
    counts = point_counts(AffineSpace(1, 2), 3)
    z = euler_product_zeta(counts, 3)
    assert z.coeffs == (2, 4, 8)
    assert z == zeta_from_counts(counts, 3)


def test_euler_product_point():
    z = euler_product_zeta(PointCounts(3, (1, 1)), 2)
    assert z == witt_one(ZZ, 2)


def test_two_routes_agree_on_random_honest_counts():
    rng = random.Random(2718)
    for _ in range(20):
        degree_counts = [rng.randint(0, 4) for _ in range(6)]
        series = TruncatedSeries.one(ZZ, 6)
        for d, a_d in enumerate(degree_counts, start=1):
            factor = [0] * 7
            factor[0], factor[d] = 1, -1
            series = series * TruncatedSeries(ZZ, factor).pow_int(-a_d)
        counts = PointCounts(2, tuple(ghost(WittVector(series)).coords))
        assert zeta_from_counts(counts, 6) == euler_product_zeta(counts, 6)


# --- symmetric-power counts ---


def test_sym_power_counts_plane():
    counts = point_counts(ProjectiveSpace(2, 2), 2)
    assert sym_power_counts(counts, 2, 1).count(1) == 35


def test_sym_power_counts_line_over_f3():
    counts = point_counts(ProjectiveSpace(1, 3), 2)
    assert sym_power_counts(counts, 2, 1).count(1) == 13


def test_sym_power_counts_zeroth_power_is_point():
    assert sym_power_counts(PointCounts(2, (3, 5)), 0, 2).counts == (1, 1)


def test_sym_power_counts_range_requirement():
    with pytest.raises(PrecisionError) as info:
        sym_power_counts(PointCounts(2, (3, 5, 9)), 2, 2)
    assert info.value.required == 4


def test_sym_power_counts_rejects_inconsistent_tables():
    with pytest.raises(InconsistentCountsError):
        sym_power_counts(PointCounts(2, (1, 2)), 2, 1)


def test_count_tables_with_negative_closed_point_counts_are_rejected():
    # integral ghosts, but -2 closed points of degree 2
    counts = PointCounts(4, (5, 1))
    for route in (lambda: zeta_from_counts(counts, 2), lambda: sym_power_counts(counts, 2, 1)):
        with pytest.raises(InconsistentCountsError) as info:
            route()
        assert info.value.degree == 2


def test_sym_zeta_of_elliptic_matches_brute_ghosts():
    z = sym_zeta(E, 2, 2)
    assert ghost(z).coords == (24, 832)


def test_sym_zeta_affine_line_is_teichmuller_power():
    assert sym_zeta(AffineSpace(1, 2), 3, 4) == teichmuller(8, 4)


def test_sym_zeta_zeroth_power():
    assert sym_zeta(E, 0, 5) == witt_one(ZZ, 5)
    with pytest.raises(ValueError):
        sym_zeta(E, -1, 5)


# --- the generating series of all symmetric powers ---


def test_generating_series_of_affine_line():
    series = zeta_generating_series(AffineSpace(1, 2), 3, 2)
    for n in range(4):
        assert series.coefficient(n) == teichmuller(2**n, 2)


def test_generating_series_of_projective_line():
    series = zeta_generating_series(ProjectiveSpace(1, 2), 2, 2)
    expected = {
        0: witt_one(ZZ, 2),
        1: witt_add(teichmuller(1, 2), teichmuller(2, 2)),
        2: witt_add(witt_add(teichmuller(1, 2), teichmuller(2, 2)), teichmuller(4, 2)),
    }
    for n, value in expected.items():
        assert series.coefficient(n) == value


def test_generating_series_coefficients_are_sym_zetas():
    for spec in (ProjectiveSpace(2, 3), E):
        series = zeta_generating_series(spec, 3, 2)
        for n in range(1, 4):
            assert series.coefficient(n) == sym_zeta(spec, n, 2)


def test_generating_series_validates_precisions():
    with pytest.raises(ValueError):
        zeta_generating_series(E, 0, 2)
    with pytest.raises(ValueError):
        zeta_generating_series(E, 2, 0)


# --- rational reconstruction ---


def test_reconstruct_projective_line():
    z = zeta_from_counts(point_counts(ProjectiveSpace(1, 2), 8), 8)
    rf = rational_reconstruct(z, 2)
    assert rf.num == IntPolynomial((1,))
    assert rf.den == IntPolynomial((1, -3, 2))
    assert rf.display() == "1/((1-t)(1-2t))"


def test_reconstruct_teichmuller_one():
    rf = rational_reconstruct(witt_one(ZZ, 4), 1)
    assert rf.num == IntPolynomial((1,))
    assert rf.den == IntPolynomial((1, -1))
    assert rf.display() == "1/(1-t)"


def test_reconstruct_elliptic_curve():
    z = zeta_from_counts(point_counts(E, 8), 8)
    rf = rational_reconstruct(z, 2)
    assert rf.num == IntPolynomial((1, -2, 5))
    assert rf.den == IntPolynomial((1, -6, 5))
    assert rf.display() == "(1 - 2*t + 5*t^2)/((1-t)(1-5t))"


def test_reconstruct_is_identity_on_own_output():
    z = zeta_from_counts(point_counts(ProjectiveSpace(2, 3), 10), 10)
    rf = rational_reconstruct(z, 3)
    assert rf.witt(10) == z
    again = rational_reconstruct(rf.witt(10), 3)
    assert (again.num, again.den) == (rf.num, rf.den)


def test_reconstruct_prefers_minimal_denominator_degree():
    rf = rational_reconstruct(teichmuller(2, 8), 4)
    assert rf.den == IntPolynomial((1, -2))
    assert rf.num == IntPolynomial((1,))


def test_reconstruct_failure_at_small_bound():
    z = zeta_from_counts(point_counts(ProjectiveSpace(2, 2), 8), 8)
    with pytest.raises(ReconstructionError):
        rational_reconstruct(z, 1)


def test_reconstruct_needs_enough_coefficients():
    with pytest.raises(PrecisionError) as info:
        rational_reconstruct(teichmuller(2, 3), 2)
    assert info.value.required == 4


def test_reconstruct_rejects_non_integer_series():
    z = IntPolynomial.variable()
    series = TruncatedSeries(ZPOLY, (IntPolynomial((1,)), z))
    with pytest.raises(ValueError):
        rational_reconstruct(series, 1)


def test_rational_function_normalizes_common_linear_factors():
    rf = RationalFunction(IntPolynomial((1, -3, 2)), IntPolynomial((1, -1)))
    assert rf.num == IntPolynomial((1, -2))
    assert rf.den == IntPolynomial((1,))
    assert rf.display() == "(1-2t)"


def test_rational_function_requires_unit_constant_terms():
    with pytest.raises(ValueError):
        RationalFunction(IntPolynomial((2,)), IntPolynomial((1, -1)))
    with pytest.raises(ValueError):
        RationalFunction(IntPolynomial((1,)), IntPolynomial((0, 1)))


def test_rational_function_series_expansion():
    rf = RationalFunction(IntPolynomial((1,)), IntPolynomial((1, -3, 2)))
    assert rf.series(3).coeffs == (1, 3, 7, 15)
