"""Tests for Witt vectors: arithmetic, ghost coordinates, Frobenius, nesting."""

import random

import pytest

from wittzeta import witt
from wittzeta.errors import IntegralityError, PrecisionError
from wittzeta.rings import IntegerRing, IntPolynomial, TruncatedSeries, ZPOLY, ZZ
from wittzeta.witt import (
    GhostVector,
    WittRing,
    WittVector,
    frobenius,
    ghost,
    ghost_inverse,
    map_coefficients,
    teichmuller,
    witt_add,
    witt_mul,
    witt_neg,
    witt_one,
    witt_pow,
    witt_scale,
    witt_sub,
    witt_zero,
)


def random_witt(rng, prec=8, ring=ZZ):
    if ring is ZZ:
        return WittVector.from_coeffs(ZZ, [rng.randint(-10, 10) for _ in range(prec)])
    return WittVector.from_coeffs(
        ring, [IntPolynomial([rng.randint(-5, 5) for _ in range(3)]) for _ in range(prec)]
    )


# --- construction ---


def test_witt_vector_requires_constant_term_one():
    with pytest.raises(ValueError):
        WittVector(TruncatedSeries(ZZ, (2, 1)))
    with pytest.raises(ValueError):
        WittVector(TruncatedSeries(ZZ, (1,)))  # precision 0


def test_teichmuller_coefficients_are_powers():
    assert teichmuller(2, 3).coeffs == (2, 4, 8)
    assert teichmuller(1, 4) == witt_one(ZZ, 4)
    assert teichmuller(0, 4) == witt_zero(ZZ, 4)


@pytest.mark.parametrize("make", [lambda: teichmuller(3, 0), lambda: teichmuller(3, -2), lambda: witt_one(ZZ, 0),
                                  lambda: witt_one(ZPOLY, 0)])
def test_teichmuller_and_witt_one_refuse_precision_below_1(make):
    with pytest.raises(ValueError, match="^a Witt vector needs precision at least 1$"):
        make()


def test_truncate_refuses_a_higher_precision_before_realizing(monkeypatch):
    runs = []
    newton_ints = witt._newton_ints
    monkeypatch.setattr(witt, "_newton_ints", lambda b: runs.append(b) or newton_ints(b))
    unrealized = teichmuller(3, 6).with_ghost()
    for p in (unrealized, teichmuller(3, 6)):
        with pytest.raises(ValueError, match="^cannot extend precision 6 to 7$"):
            p.truncate(7)
    assert runs == [] and unrealized._series is None


def test_witt_zero_is_the_series_one():
    assert witt_zero(ZZ, 3).series.coeffs == (1, 0, 0, 0)


# --- addition, negation, scaling ---


def test_witt_add_one_plus_one():
    two = witt_add(witt_one(ZZ, 3), witt_one(ZZ, 3))
    assert two.coeffs == (2, 3, 4)


def test_witt_add_zero_is_neutral():
    rng = random.Random(2)
    for _ in range(20):
        p = random_witt(rng)
        assert witt_add(p, witt_zero(ZZ, 8)) == p


def test_witt_neg_cancels():
    for q in (2, 3, 7):
        t = teichmuller(q, 6)
        assert witt_add(witt_neg(t), t) == witt_zero(ZZ, 6)
    p = random_witt(random.Random(9))
    assert p - p == witt_zero(ZZ, 8)
    assert witt_sub(p, p) == witt_zero(ZZ, 8)


def test_witt_scale_is_iterated_addition():
    p = random_witt(random.Random(31), prec=6)
    assert witt_scale(p, 3) == p + p + p
    assert witt_scale(p, 0) == witt_zero(ZZ, 6)
    assert witt_scale(p, -2) == witt_neg(p + p)


# --- ghost coordinates ---


def test_ghost_of_teichmuller_is_power_sequence():
    assert ghost(teichmuller(3, 4)).coords == (3, 9, 27, 81)


def test_ghost_of_zero_is_zero():
    assert ghost(witt_zero(ZZ, 5)).coords == (0,) * 5


def test_ghost_of_teichmuller_sum():
    p = witt_add(teichmuller(1, 3), teichmuller(2, 3))
    assert ghost(p).coords == (3, 5, 9)


def test_ghost_of_one_plus_t():
    # t*P'/P for P = 1+t expands to t - t^2 + t^3 - t^4
    p = WittVector.from_coeffs(ZZ, [1, 0, 0, 0])
    assert ghost(p).coords == (1, -1, 1, -1)


def test_ghost_inverse_of_power_sequence():
    g = GhostVector(ZZ, (2, 4, 8, 16))
    assert ghost_inverse(g) == teichmuller(2, 4)
    assert ghost_inverse(GhostVector(ZZ, (0, 0, 0, 0))) == witt_zero(ZZ, 4)


def test_ghost_inverse_integrality_failure_carries_degree():
    # gh_2 = 2*a2 - a1^2 forces a2 = 1/2, which is not an integer
    with pytest.raises(IntegralityError) as info:
        ghost_inverse(GhostVector(ZZ, (1, 0)))
    assert info.value.degree == 2


def test_ghost_roundtrip_random():
    rng = random.Random(496)
    for _ in range(100):
        p = random_witt(rng)
        assert ghost_inverse(ghost(p)) == p
    for _ in range(50):
        p = random_witt(rng, ring=ZPOLY)
        assert ghost_inverse(ghost(p)) == p


def test_ghost_is_a_ring_map():
    rng = random.Random(12)
    for _ in range(100):
        p, q = random_witt(rng), random_witt(rng)
        assert ghost(p + q) == ghost(p) + ghost(q)
        assert ghost(WittVector((p * q).series)) == ghost(p) * ghost(q)


def test_ghost_vector_validation():
    with pytest.raises(ValueError):
        GhostVector(ZZ, ())
    g = GhostVector(ZZ, (1, 2))
    with pytest.raises(IndexError):
        g.coord(3)
    with pytest.raises(IndexError):
        g.coord(0)
    with pytest.raises(ValueError):
        g + GhostVector(ZPOLY, (IntPolynomial((1,)),))


# --- multiplication ---


def test_witt_mul_of_teichmullers():
    assert witt_mul(teichmuller(2, 5), teichmuller(3, 5)) == teichmuller(6, 5)


def test_witt_mul_unit():
    rng = random.Random(14)
    for _ in range(20):
        p = random_witt(rng)
        assert witt_mul(p, witt_one(ZZ, 8)) == p


def test_witt_mul_distributes_over_teichmuller_sums():
    lhs = witt_mul(witt_add(teichmuller(1, 6), teichmuller(2, 6)), teichmuller(5, 6))
    rhs = witt_add(teichmuller(5, 6), teichmuller(10, 6))
    assert lhs == rhs


def test_witt_mul_truncates_to_common_precision():
    p = random_witt(random.Random(15), prec=8)
    q = random_witt(random.Random(16), prec=5)
    assert witt_mul(p, q).prec == 5


def test_witt_pow():
    p = random_witt(random.Random(21), prec=6)
    assert witt_pow(p, 0) == witt_one(ZZ, 6)
    assert witt_pow(p, 1) == p
    assert witt_pow(p, 3) == p * p * p
    with pytest.raises(ValueError):
        witt_pow(p, -1)


# --- Frobenius ---


def test_frobenius_on_teichmuller():
    f = frobenius(teichmuller(3, 4), 2)
    assert f.prec == 2
    assert f == teichmuller(9, 2)
    for a in (-3, 2, 5):
        for n in (2, 3):
            assert frobenius(teichmuller(a, 12), n) == teichmuller(a**n, 12 // n)


def test_frobenius_identity_and_composition():
    rng = random.Random(18)
    for _ in range(20):
        p = random_witt(rng, prec=12)
        assert frobenius(p, 1) == p
        assert frobenius(frobenius(p, 2), 3) == frobenius(p, 6)
        assert frobenius(frobenius(p, 3), 2) == frobenius(p, 6)


def test_frobenius_subsamples_ghost_coordinates():
    rng = random.Random(19)
    for _ in range(20):
        p = random_witt(rng, prec=12)
        g = ghost(p)
        for n in (2, 3, 4):
            assert ghost(WittVector(frobenius(p, n).series)).coords == tuple(g.coord(n * m) for m in range(1, 12 // n + 1))


def test_frobenius_rejects_precision_zero_output():
    with pytest.raises(PrecisionError):
        frobenius(teichmuller(2, 3), 5)
    with pytest.raises(ValueError):
        frobenius(teichmuller(2, 3), 0)


# --- nesting: Witt vectors over a Witt ring ---


def test_nested_witt_ring_operations():
    inner = WittRing(ZZ, 4)
    rng = random.Random(25)

    def sample():
        return WittVector.from_coeffs(ZZ, [rng.randint(-5, 5) for _ in range(4)])

    for _ in range(25):
        p = WittVector.from_coeffs(inner, [sample() for _ in range(4)])
        q = WittVector.from_coeffs(inner, [sample() for _ in range(4)])
        assert ghost_inverse(ghost(p)) == p
        assert ghost(p + q) == ghost(p) + ghost(q)
        assert ghost(WittVector((p * q).series)) == ghost(p) * ghost(q)


def test_nested_teichmuller_of_teichmuller():
    inner = WittRing(ZZ, 3)
    double = teichmuller(teichmuller(2, 3), 2, inner)
    assert double.coeffs == (teichmuller(2, 3), witt_mul(teichmuller(2, 3), teichmuller(2, 3)))
    assert double.coefficient(2) == teichmuller(4, 3)


def test_witt_ring_divide_exact_roundtrip():
    ring = WittRing(ZZ, 5)
    p = random_witt(random.Random(28), prec=5)
    for n in (2, 3, 4):
        assert ring.divide_exact(ring.scalar_mul(p, n), n) == p


def test_witt_ring_divide_exact_failure():
    ring = WittRing(ZZ, 3)
    with pytest.raises(IntegralityError):
        ring.divide_exact(teichmuller(2, 3), 2)


def test_witt_ring_check_rejects_mixed_precision():
    ring = WittRing(ZZ, 4)
    with pytest.raises(TypeError):
        ring.check(teichmuller(2, 3))
    with pytest.raises(TypeError):
        ring.check(teichmuller(IntPolynomial((0, 1)), 4, ZPOLY))
    with pytest.raises(TypeError):
        ring.check(7)


class CountingRing(IntegerRing):
    """ZZ that counts its ``check`` calls."""

    def __init__(self):
        self.checks = 0

    def check(self, x):
        self.checks += 1
        return super().check(x)


@pytest.mark.parametrize("n", [1, 5, 12])
def test_coefficients_are_checked_once(n):
    ring = CountingRing()
    p = WittVector.from_coeffs(ring, list(range(n)))
    assert ring.checks == n + 1 and p.coeffs == tuple(range(n))
    ring.checks = 0
    assert map_coefficients(p, lambda c: 2 * c, ring).coeffs == tuple(range(0, 2 * n, 2))
    assert ring.checks == n + 1


def test_from_coeffs_checks_and_coerces_each_coefficient():
    with pytest.raises(TypeError):
        WittVector.from_coeffs(ZZ, [1, "2"])
    with pytest.raises(TypeError):
        map_coefficients(WittVector.from_coeffs(ZZ, [1, 2]), str, ZZ)
    p = WittVector.from_coeffs(ZPOLY, [1, 2])
    assert all(isinstance(c, IntPolynomial) for c in p.series.coeffs)
    assert p.coeffs == (IntPolynomial((1,)), IntPolynomial((2,)))


def test_map_coefficients_specializes_polynomials():
    z = IntPolynomial.variable()
    lift = teichmuller(z, 3, ZPOLY)
    assert map_coefficients(lift, lambda c: c.evaluate(2), ZZ) == teichmuller(2, 3)
