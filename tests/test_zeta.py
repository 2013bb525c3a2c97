"""Tests for zeta assembly, symmetric powers and rational reconstruction."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from wittzeta.errors import BudgetError, InconsistentCountsError, PrecisionError, ReconstructionError
from wittzeta.finitefield import is_prime
from wittzeta.rings import IntPolynomial, TruncatedSeries, ZPOLY, ZZ
from wittzeta.sigma import sigma_witt
from wittzeta.varieties import (
    AffineSpace,
    CountsSpec,
    EllipticCurve,
    PointCounts,
    ProductSpec,
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
    spec_zeta,
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


def closed_points_by_mobius(counts, dmax):
    """The Moebius scan the forward divisor pass replaced, kept as its oracle:
    d*a_d = sum_{e | d} mu(e) N_{d/e}, with mu by trial factorization."""
    out = []
    for d in range(1, dmax + 1):
        total = sum(mobius(e) * counts.count(d // e) for e in range(1, d + 1) if d % e == 0)
        a_d, rem = divmod(total, d)
        if rem or a_d < 0:
            raise InconsistentCountsError(
                f"counts admit no consistent closed-point count in degree {d}", degree=d
            )
        out.append(a_d)
    return tuple(out)


def euler_product_counts(degree_counts):
    """N_1..N_R as the ghost of prod_d (1 - t^d)^(-a_d), each factor expanded as
    sum_k C(a_d + k - 1, k) t^(dk)."""
    prec = len(degree_counts)
    series = TruncatedSeries.one(ZZ, prec)
    for d, a_d in enumerate(degree_counts, start=1):
        factor = [0] * (prec + 1)
        for k in range(prec // d + 1):
            factor[d * k] = math.comb(a_d + k - 1, k) if k else 1
        series = series * TruncatedSeries(ZZ, factor)
    return ghost(WittVector(series)).coords


@st.composite
def count_tables(draw, prec):
    """An honest table (the ghost of a random Euler product), perturbed in one
    entry two times in three; entries stay nonnegative, as PointCounts requires."""
    counts = list(euler_product_counts(draw(st.lists(st.integers(0, 5), min_size=prec, max_size=prec))))
    if draw(st.integers(0, 2)):
        k = draw(st.integers(0, prec - 1))
        counts[k] = max(0, counts[k] + draw(st.integers(-4, 4)))
    return PointCounts(2, tuple(counts))


def outcome(fn):
    """What fn() returns, or the degree and message of the InconsistentCountsError it raises."""
    try:
        return fn()
    except InconsistentCountsError as exc:
        return ("InconsistentCountsError", exc.degree, str(exc))


COUNT_TABLES = settings(max_examples=200, derandomize=True, database=None, deadline=None)


@COUNT_TABLES
@given(data=st.data())
def test_divisor_pass_matches_the_mobius_scan(data):
    prec = data.draw(st.integers(1, 16))
    counts = data.draw(count_tables(prec))
    dmax = data.draw(st.integers(0, prec))
    assert outcome(lambda: closed_point_degree_counts(counts, dmax)) == outcome(
        lambda: closed_points_by_mobius(counts, dmax)
    )


@COUNT_TABLES
@given(data=st.data())
def test_every_route_judges_a_table_by_the_closed_point_pass(data):
    n, rmax = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))
    counts = data.draw(count_tables(n * rmax))
    verdict = outcome(lambda: closed_point_degree_counts(counts, n * rmax))
    routes = {
        "zeta_from_counts": lambda: zeta_from_counts(counts, n * rmax),
        "euler_product_zeta": lambda: euler_product_zeta(counts, n * rmax),
        "sym_power_counts": lambda: sym_power_counts(counts, n, rmax),
    }
    results = {name: outcome(route) for name, route in routes.items()}
    if verdict[0] == "InconsistentCountsError":
        assert all(result == verdict for result in results.values()), results
    else:
        assert results["zeta_from_counts"] == results["euler_product_zeta"]
        assert all(c >= 0 for c in results["sym_power_counts"].counts)


def test_closed_point_degree_counts_at_n_2000_match_the_mobius_scan():
    counts = point_counts(AffineSpace(1, 2), 2000)
    assert closed_point_degree_counts(counts, 2000) == closed_points_by_mobius(counts, 2000)


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
        counts = PointCounts(2, euler_product_counts([rng.randint(0, 4) for _ in range(6)]))
        assert zeta_from_counts(counts, 6) == euler_product_zeta(counts, 6)


def test_two_routes_agree_on_an_elliptic_curve_over_f_10007():
    counts = point_counts(EllipticCurve(10007, 1, 1), 40)
    assert euler_product_zeta(counts, 40) == zeta_from_counts(counts, 40)


# --- the closed form of affine, projective and elliptic specs ---

PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 49, 101)
ELLIPTIC_PRIMES = tuple(p for p in range(5, 500) if is_prime(p))


@st.composite
def closed_form_specs(draw):
    """A^d or P^d (d <= 6, q a prime or prime power) or a nonsingular E over F_p, p < 500."""
    kind = draw(st.sampled_from(["affine", "projective", "elliptic"]))
    if kind != "elliptic":
        space = AffineSpace if kind == "affine" else ProjectiveSpace
        return space(draw(st.integers(0, 6)), draw(st.sampled_from(PRIME_POWERS)))
    p = draw(st.sampled_from(ELLIPTIC_PRIMES))
    a = draw(st.integers(0, p - 1))
    b = next(b for b in range(draw(st.integers(0, p - 1)), 2 * p) if (4 * a**3 + 27 * b**2) % p)
    return EllipticCurve(p, a, b % p)


CLOSED_FORMS = settings(max_examples=120, derandomize=True, database=None, deadline=None)


@CLOSED_FORMS
@given(spec=closed_form_specs(), prec=st.integers(1, 60))
def test_spec_zeta_matches_the_counts_and_euler_routes(spec, prec):
    counts = point_counts(spec, prec)
    z = spec_zeta(spec, prec)
    assert z.prec == prec
    assert z.coeffs == zeta_from_counts(counts, prec).coeffs
    assert z == euler_product_zeta(counts, prec)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(spec=closed_form_specs(), outer=st.integers(1, 6), inner=st.integers(1, 6))
def test_generating_series_is_sigma_of_the_counts_route(spec, outer, inner):
    counts = point_counts(spec, outer * inner)
    expected = sigma_witt(zeta_from_counts(counts, outer * inner), outer)
    assert zeta_generating_series(spec, outer, inner) == expected


def closed_form_by_gaussian_quotients(q, lo, hi, num, prec):
    """num(t) * prod_{lo<=i<=hi} 1/(1 - q^i t) to precision N: the t^k coefficient of
    the product is q^(lo*k) g_k, g_k = g_(k-1) (q^(hi-lo+k) - 1) / (q^k - 1)."""
    step, top = q**lo, q ** (hi - lo)
    qk, ql, g, h = 1, 1, 1, [1]
    for _ in range(prec):
        qk, ql = qk * q, ql * step
        g = g * (top * qk - 1) // (qk - 1)
        h.append(ql * g)
    return tuple(sum(c * h[k - j] for j, c in enumerate(num[: k + 1])) for k in range(prec + 1))


LARGE_PRIMES = (5, 7, 229, 233, 10007, 99991, 10**6 + 3, 10**9 + 7, 10**12 + 39)


@st.composite
def two_factor_specs(draw):
    """A^d (d <= 50), P^0, P^1, or E over F_p for p up to 10^12 + 39."""
    kind = draw(st.sampled_from(["affine", "projective", "elliptic"]))
    if kind == "affine":
        return AffineSpace(draw(st.integers(0, 50)), draw(st.sampled_from(PRIME_POWERS)))
    if kind == "projective":
        return ProjectiveSpace(draw(st.integers(0, 1)), draw(st.sampled_from(PRIME_POWERS)))
    p = draw(st.sampled_from(LARGE_PRIMES))
    a, start = draw(st.integers(0, 50)) % p, draw(st.integers(0, 50))
    b = next(b for b in range(start, start + p) if (4 * a**3 + 27 * b**2) % p)
    return EllipticCurve(p, a, b % p)


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(spec=two_factor_specs(), prec=st.integers(1, 300))
def test_two_factor_expansion_matches_the_gaussian_quotients(spec, prec):
    if isinstance(spec, AffineSpace):
        lo, hi, num = spec.dim, spec.dim, (1,)
    elif isinstance(spec, ProjectiveSpace):
        lo, hi, num = 0, spec.dim, (1,)
    else:
        lo, hi, num = 0, 1, (1, point_counts(spec, 1).counts[0] - spec.p - 1, spec.p)
    assert spec_zeta(spec, prec).series.coeffs == closed_form_by_gaussian_quotients(spec.q, lo, hi, num, prec)


def test_spec_zeta_closed_forms_by_hand():
    assert spec_zeta(AffineSpace(1, 2), 4) == teichmuller(2, 4)
    assert spec_zeta(ProjectiveSpace(1, 2), 3).coeffs == (3, 7, 15)
    assert spec_zeta(E, 3).coeffs == (4, 24, 124)
    assert spec_zeta(AffineSpace(0, 7), 3) == teichmuller(1, 3)


def test_spec_zeta_of_other_specs_assembles_their_counts():
    line = ProjectiveSpace(1, 3)
    for spec in (ProductSpec((line, AffineSpace(2, 3))), CountsSpec(3, point_counts(line, 5).counts)):
        assert spec_zeta(spec, 5) == zeta_from_counts(point_counts(spec, 5), 5)
    with pytest.raises(PrecisionError):
        spec_zeta(CountsSpec(2, (3, 5)), 3)
    with pytest.raises(InconsistentCountsError):
        spec_zeta(CountsSpec(4, (5, 1)), 2)


def test_spec_zeta_keeps_the_precision_and_budget_errors():
    for spec in (AffineSpace(1, 2), ProjectiveSpace(2, 3), E):
        with pytest.raises(ValueError):
            spec_zeta(spec, 0)
    with pytest.raises(BudgetError) as info:  # the baby-step giant-step charge for p = 1009
        spec_zeta(EllipticCurve(1009, 1, 1), 5, budget=81)
    assert info.value.required == 82
    assert spec_zeta(EllipticCurve(1009, 1, 1), 5, budget=82) == zeta_from_counts(
        point_counts(EllipticCurve(1009, 1, 1), 5), 5)


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


def test_sym_power_counts_reports_the_first_inconsistent_degree_of_the_table():
    # (N_2, N_4) = (5, 18) is the first subsample whose Newton step fails, at its own
    # degree 2; the table is first inconsistent in degree 4, and that is reported
    counts = PointCounts(2, (3, 5, 9, 18))
    for route in (lambda: sym_power_counts(counts, 2, 2), lambda: zeta_from_counts(counts, 4)):
        with pytest.raises(InconsistentCountsError, match="closed-point count in degree 4") as info:
            route()
        assert info.value.degree == 4


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
