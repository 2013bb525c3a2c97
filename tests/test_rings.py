"""Tests for the ring handles, integer polynomials and truncated series."""

import random

import pytest

from wittzeta.errors import IntegralityError
from wittzeta.rings import IntPolynomial, Ring, TruncatedSeries, ZPOLY, ZZ, binary_power
from wittzeta.witt import WittVector, ghost, ghost_inverse, witt_mul


def convolve(a, b, n):
    """Independent series-product oracle: plain integer convolution."""
    return [sum(a[i] * b[k - i] for i in range(k + 1) if i < len(a) and k - i < len(b))
            for k in range(n + 1)]


def random_series(rng, prec, constant=None):
    coeffs = [rng.randint(-10, 10) for _ in range(prec + 1)]
    if constant is not None:
        coeffs[0] = constant
    return TruncatedSeries(ZZ, coeffs)


# --- series arithmetic ---


def test_series_mul_binomial_square():
    s = TruncatedSeries(ZZ, (1, 1, 0))
    assert (s * s).coeffs == (1, 2, 1)


def test_series_mul_identity():
    rng = random.Random(7)
    for _ in range(20):
        s = random_series(rng, 6)
        assert s * TruncatedSeries.one(ZZ, 6) == s


def test_series_mul_geometric_telescopes():
    geometric = TruncatedSeries(ZZ, tuple(2**n for n in range(5)))
    factor = TruncatedSeries(ZZ, (1, -2, 0, 0, 0))
    assert (factor * geometric).coeffs == (1, 0, 0, 0, 0)


def test_series_mul_matches_convolution_oracle():
    rng = random.Random(101)
    for _ in range(200):
        a = random_series(rng, 8)
        b = random_series(rng, 8)
        assert list((a * b).coeffs) == convolve(a.coeffs, b.coeffs, 8)


def test_series_ring_axioms_random():
    rng = random.Random(8128)
    one = TruncatedSeries.one(ZZ, 8)
    zero = TruncatedSeries(ZZ, (0,) * 9)
    for _ in range(500):
        p, q, r = (random_series(rng, 8) for _ in range(3))
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p
        assert p * one == p
        sum_pq = TruncatedSeries(ZZ, [x + y for x, y in zip(p.coeffs, q.coeffs)])
        assert p * one == p
        # distributivity through the convolution oracle
        left = list((sum_pq * r).coeffs)
        right = [x + y for x, y in zip((p * r).coeffs, (q * r).coeffs)]
        assert left == right
    assert zero * one == zero


def test_series_mul_uses_minimum_precision():
    a = random_series(random.Random(3), 9)
    b = random_series(random.Random(4), 5)
    assert (a * b).prec == 5


def test_series_eq_compares_common_prefix():
    assert TruncatedSeries(ZZ, (1, 1, 0)) == TruncatedSeries(ZZ, (1, 1, 0, 7))
    assert TruncatedSeries(ZZ, (1, 1)) != TruncatedSeries(ZZ, (1, 2, 0))


def test_series_needs_constant_term():
    with pytest.raises(ValueError):
        TruncatedSeries(ZZ, ())


def test_series_truncate_cannot_extend():
    s = TruncatedSeries(ZZ, (1, 2, 3))
    assert s.truncate(1).coeffs == (1, 2)
    with pytest.raises(ValueError):
        s.truncate(5)


# --- inverse and powers ---


def test_inverse_of_one_minus_2t_is_geometric():
    s = TruncatedSeries(ZZ, (1, -2, 0, 0))
    assert s.inverse().coeffs == (1, 2, 4, 8)


def test_inverse_of_one_is_one():
    one = TruncatedSeries.one(ZZ, 5)
    assert one.inverse() == one


def test_inverse_roundtrip_random():
    rng = random.Random(11)
    for _ in range(100):
        s = random_series(rng, 7, constant=1)
        assert s * s.inverse() == TruncatedSeries.one(ZZ, 7)


def test_inverse_requires_unit_constant():
    with pytest.raises(ValueError):
        TruncatedSeries(ZZ, (2, 1)).inverse()


def test_pow_int_negative_inverts():
    s = TruncatedSeries(ZZ, (1, -1, 0, 0))
    assert s.pow_int(-1).coeffs == (1, 1, 1, 1)
    assert s.pow_int(-2) == s.inverse() * s.inverse()


def test_pow_int_zero_is_one():
    s = random_series(random.Random(5), 4, constant=1)
    assert s.pow_int(0) == TruncatedSeries.one(ZZ, 4)


# --- n-th roots (exact division by n in a Witt ring) ---


def test_nth_root_of_binomial_square():
    s = TruncatedSeries(ZZ, (1, 2, 1))
    assert s.nth_root(2).coeffs == (1, 1, 0)


def test_nth_root_index_one_is_identity():
    s = random_series(random.Random(6), 5, constant=1)
    assert s.nth_root(1) == s


def test_nth_root_roundtrip_random():
    rng = random.Random(13)
    for n in (2, 3, 5):
        for _ in range(50):
            s = random_series(rng, 6, constant=1)
            assert s.pow_int(n).nth_root(n) == s


def test_nth_root_failure_carries_degree():
    with pytest.raises(IntegralityError) as info:
        TruncatedSeries(ZZ, (1, 1)).nth_root(2)
    assert info.value.degree == 1


def test_nth_root_over_nested_rings():
    s = TruncatedSeries(ZPOLY, (IntPolynomial((1,)), IntPolynomial((0, 4)), IntPolynomial((0, 0, 4))))
    root = s.nth_root(2)
    assert root * root == s


# --- exact integer division in the base rings ---


def test_divide_exact_integers():
    assert ZZ.divide_exact(12, 3) == 4
    with pytest.raises(IntegralityError):
        ZZ.divide_exact(7, 2)
    with pytest.raises(ValueError):
        ZZ.divide_exact(4, 0)


def test_divide_exact_polynomials():
    f = IntPolynomial((2, -4, 6))
    assert ZPOLY.divide_exact(f, 2) == IntPolynomial((1, -2, 3))
    with pytest.raises(IntegralityError):
        ZPOLY.divide_exact(IntPolynomial((1, 2)), 2)


def test_divide_exact_roundtrip_random():
    rng = random.Random(17)
    for _ in range(200):
        x = rng.randint(-50, 50)
        n = rng.randint(1, 9)
        assert ZZ.divide_exact(x * n, n) == x
        f = IntPolynomial([rng.randint(-5, 5) for _ in range(4)])
        assert ZPOLY.divide_exact(ZPOLY.scalar_mul(f, n), n) == f


def test_scalar_mul_agrees_with_repeated_addition():
    rng = random.Random(19)
    for _ in range(50):
        x = rng.randint(-20, 20)
        k = rng.randint(-7, 7)
        acc = 0
        for _ in range(abs(k)):
            acc = ZZ.add(acc, x)
        if k < 0:
            acc = -acc
        assert ZZ.scalar_mul(x, k) == acc == x * k


class GaussianIntegers(Ring):
    """A minimal user-defined ring, ZZ[i] on pairs, that keeps the inherited
    ``scalar_mul`` and ``from_int``.  Its elements are tuples, which concatenate
    under ``+``, so a kernel that used element operators would go wrong here."""

    zero, one = (0, 0), (1, 0)

    def add(self, x, y):
        return (x[0] + y[0], x[1] + y[1])

    def neg(self, x):
        return (-x[0], -x[1])

    def mul(self, x, y):
        return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    def eq(self, x, y):
        return x == y

    def divide_exact(self, x, n):
        (re, r1), (im, r2) = divmod(x[0], n), divmod(x[1], n)
        if r1 or r2:
            raise IntegralityError(f"{x} is not divisible by {n}")
        return (re, im)


@pytest.mark.parametrize("k", list(range(-5, 6)) + [1000])
def test_inherited_scalar_mul_and_from_int_agree_with_repeated_addition(k):
    ring = GaussianIntegers()
    for x in [(0, 0), (1, 0), (3, -2), (-7, 5)]:
        acc = ring.zero
        for _ in range(abs(k)):
            acc = ring.add(acc, x)
        expected = ring.neg(acc) if k < 0 else acc
        assert ring.scalar_mul(x, k) == expected == (k * x[0], k * x[1])
    assert ring.from_int(k) == (k, 0)


def test_kernels_use_only_the_ring_handle_of_a_user_ring():
    ring = GaussianIntegers()
    rng = random.Random(1009)

    def gaussian():
        return (rng.randint(-5, 5), rng.randint(-5, 5))

    for prec in (1, 2, 5, 8):
        for _ in range(10):
            p = WittVector.from_coeffs(ring, [gaussian() for _ in range(prec)])
            q = WittVector.from_coeffs(ring, [gaussian() for _ in range(prec)])
            assert ghost_inverse(ghost(p)) == p
            assert ghost(WittVector(witt_mul(p, q).series)) == ghost(p) * ghost(q)
            s = TruncatedSeries(ring, [ring.one] + [gaussian() for _ in range(prec)])
            assert s * s.inverse() == TruncatedSeries.one(ring, prec)


def test_binary_power_matches_builtin_pow():
    mul = lambda a, b: a * b  # noqa: E731
    for x in (-3, 0, 1, 2, 7):
        for e in range(70):
            assert binary_power(x, e, mul, 1) == x**e
    assert binary_power(3, 0, mul, "one") == "one"
    with pytest.raises(ValueError):
        binary_power(3, -1, mul, 1)


def test_ring_check_rejects_foreign_elements():
    with pytest.raises(TypeError):
        ZZ.check("3")
    with pytest.raises(TypeError):
        ZPOLY.check(1.5)
    assert ZPOLY.check(3) == IntPolynomial((3,))


# --- integer polynomials ---


def test_polynomial_constructor_trims_trailing_zeros():
    assert IntPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
    assert IntPolynomial().degree == -1
    assert IntPolynomial((0,)).is_zero()


def test_polynomial_arithmetic_against_dict_oracle():
    rng = random.Random(23)

    def as_dict(f):
        return {k: c for k, c in enumerate(f.coeffs) if c}

    for _ in range(200):
        f = IntPolynomial([rng.randint(-6, 6) for _ in range(4)])
        g = IntPolynomial([rng.randint(-6, 6) for _ in range(3)])
        expected = dict(as_dict(f))
        for k, c in as_dict(g).items():
            expected[k] = expected.get(k, 0) + c
        assert as_dict(f + g) == {k: c for k, c in expected.items() if c}
        prod = {}
        for i, a in as_dict(f).items():
            for j, b in as_dict(g).items():
                prod[i + j] = prod.get(i + j, 0) + a * b
        assert as_dict(f * g) == {k: c for k, c in prod.items() if c}


def test_polynomial_int_coercion_and_power():
    z = IntPolynomial.variable()
    assert 1 + z == IntPolynomial((1, 1))
    assert 2 * z - 1 == IntPolynomial((-1, 2))
    assert (1 + z) ** 3 == IntPolynomial((1, 3, 3, 1))


def test_polynomial_evaluate_horner():
    f = IntPolynomial((1, -3, 2))
    assert [f.evaluate(x) for x in (-1, 0, 1, 2)] == [6, 1, 0, 3]


def test_polynomial_div_exact():
    f = IntPolynomial((1, -3, 2))
    assert f.div_exact(IntPolynomial((1, -1))) == IntPolynomial((1, -2))
    assert f.div_exact(IntPolynomial((1, 1))) is None
    with pytest.raises(ZeroDivisionError):
        f.div_exact(IntPolynomial())


def test_polynomial_render():
    assert IntPolynomial((1, -3, 2)).render("t") == "1 - 3*t + 2*t^2"
    assert IntPolynomial((0, 1)).render() == "z"
    assert IntPolynomial().render() == "0"


def test_constant_polynomials_hash_as_the_int_they_equal():
    for k in (0, 1, -1, 5, 2**64, -(2**200)):
        assert IntPolynomial((k,)) == k and hash(IntPolynomial((k,))) == hash(k)
        assert len({IntPolynomial((k,)), k}) == 1
    assert hash(IntPolynomial()) == hash(0) == 0 and {IntPolynomial(), 0} == {0}
    assert hash(IntPolynomial((5, 1))) == hash((5, 1))  # every other polynomial hashes as before
