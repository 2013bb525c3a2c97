"""Tests for finite field construction, arithmetic and point enumeration."""

import functools
import itertools
import math
import random
import string
import sys
import time
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import wittzeta.finitefield as finitefield
from wittzeta.errors import BudgetError, SpecError
from wittzeta.finitefield import (
    FiniteField,
    MultiPoly,
    _is_irreducible,
    count_affine_points,
    find_irreducible,
    is_prime,
    iter_affine_solutions,
    parse_polynomial,
    prime_power_decompose,
)
from wittzeta.rings import IntPolynomial, binary_power


# --- independent polynomial oracle over F_p (ascending coefficient lists) ---


def poly_mod(a, m, p):
    """Remainder of a modulo m over F_p, long division with a unit scale."""
    r = list(a)
    inv = pow(m[-1], p - 2, p)
    while len(r) >= len(m):
        c = r[-1] * inv % p
        if c:
            shift = len(r) - len(m)
            for i, y in enumerate(m):
                r[shift + i] = (r[shift + i] - c * y) % p
        r.pop()
    while r and r[-1] == 0:
        r.pop()
    return r


def brute_irreducible(coeffs, p):
    """No monic factor of degree 1..deg/2, by exhaustive trial division."""
    k = len(coeffs) - 1
    for d in range(1, k // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            g = list(tail) + [1]
            if not poly_mod(coeffs, g, p):
                return False
    return True


# --- primality and prime powers ---


def test_is_prime_matches_trial_division():
    def trial(n):
        if n < 2:
            return False
        return all(n % d for d in range(2, int(n**0.5) + 1))

    for n in range(2001):
        assert is_prime(n) == trial(n), n


def test_is_prime_large_values():
    assert is_prime(2**31 - 1)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**32 + 1)
    assert not is_prime(561)
    # a strong pseudoprime to every prime base up to 37
    assert not is_prime(399165290221 * 798330580441)


def test_is_prime_refuses_what_it_cannot_prove():
    psi_13 = 3317044064679887385961981
    assert not is_prime(psi_13 - 2)  # = 17 * 195120239098816905056587
    for n in (psi_13, 2**89 - 1, (2**89 - 1) ** 2):
        with pytest.raises(ValueError, match="psi_13 = 3317044064679887385961981"):
            is_prime(n)
    # a factor up to 41 settles n at any size
    assert not is_prime(2**200) and not is_prime(41 * (2**89 - 1))
    with pytest.raises(ValueError, match="psi_13"):
        prime_power_decompose(2**89 - 1)
    assert prime_power_decompose(2**100) == (2, 100)


@pytest.mark.parametrize(
    "q,expected",
    [(2, (2, 1)), (8, (2, 3)), (9, (3, 2)), (25, (5, 2)), (27, (3, 3)), (343, (7, 3)), (1024, (2, 10))],
)
def test_prime_power_decompose(q, expected):
    assert prime_power_decompose(q) == expected


@pytest.mark.parametrize("q", [0, 1, 6, 12, 100])
def test_prime_power_decompose_rejects_non_prime_powers(q):
    with pytest.raises(SpecError):
        prime_power_decompose(q)


# --- the exponent scan, kept as an oracle for prime_power_decompose ---

PSI_13 = 3317044064679887385961981


def integer_root_by_bisection(n: int, k: int) -> int:
    """Oracle: the floor of the k-th root by binary search."""
    if k == 1 or n < 2:
        return n
    lo, hi = 0, 1 << (n.bit_length() // k + 1)
    while lo < hi - 1:
        mid = (lo + hi) // 2
        if mid**k <= n:
            lo = mid
        else:
            hi = mid
    return lo


def prime_power_decompose_by_scan(q: int) -> tuple[int, int]:
    """Oracle: try every exponent k from the bit length of q down to 1."""
    if q < 2:
        raise SpecError(f"{q} is not a prime power")
    for k in range(q.bit_length(), 0, -1):
        p = integer_root_by_bisection(q, k)
        if p**k == q and is_prime(p):
            return p, k
    raise SpecError(f"{q} is not a prime power")


def verdict(decompose, q):
    try:
        return decompose(q)
    except (SpecError, ValueError) as exc:
        return type(exc), str(exc)


# primes with and without a factor up to 41, the largest prime below psi_13, and 2^89 - 1 above it
BASES = [2, 3, 41, 43, 47, 65537, 1000003, 1000033, 2**31 - 1, 2**61 - 1,
         next(n for n in range(PSI_13 - 2, 0, -2) if is_prime(n)), 2**89 - 1]


@st.composite
def decomposable(draw):
    kind = draw(st.sampled_from(["prime power", "composite power", "near psi_13"]))
    if kind == "near psi_13":
        return (PSI_13 + draw(st.integers(-300, 300))) ** draw(st.integers(1, 3))
    base = draw(st.sampled_from(BASES))
    if kind == "composite power":
        base *= draw(st.sampled_from(BASES))
    return base ** draw(st.integers(1, max(1, 400 // base.bit_length())))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(decomposable())
def test_prime_power_decompose_matches_the_exponent_scan(q):
    assert verdict(prime_power_decompose, q) == verdict(prime_power_decompose_by_scan, q)


@pytest.mark.parametrize("q", [
    (10**9 + 7) ** 8,  # its square root is past psi_13, its eighth root a prime
    (1000003 * 1000033) ** 6,  # the scan fails first on the cube of the base, not on q
    (2**89 - 1) ** 2, PSI_13, PSI_13**2, 6**50, 43**2 * 47,
])
def test_prime_power_decompose_matches_the_exponent_scan_at_the_edges(q):
    assert verdict(prime_power_decompose, q) == verdict(prime_power_decompose_by_scan, q)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 2**2000), st.integers(1, 300))
def test_integer_root_matches_bisection(n, k):
    assert finitefield._integer_root(n, k) == integer_root_by_bisection(n, k)


def test_prime_power_decompose_of_4000_digits_is_quick():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="psi_13"):  # 10^4000 + 7 has no factor up to 41
        prime_power_decompose(10**4000 + 7)
    assert prime_power_decompose(3**8000) == (3, 8000)
    assert time.perf_counter() - start < 2  # the exponent scan took 6.8 s for the first


# --- irreducible polynomial search ---


def test_find_irreducible_known_small_cases():
    assert find_irreducible(2, 2) == IntPolynomial((1, 1, 1))
    assert find_irreducible(3, 2) == IntPolynomial((1, 0, 1))
    assert find_irreducible(5, 1) == IntPolynomial((0, 1))


@pytest.mark.parametrize(
    "p,k", [(2, 2), (2, 3), (2, 4), (2, 6), (3, 2), (3, 3), (5, 2), (5, 3), (5, 4), (7, 2)]
)
def test_find_irreducible_is_irreducible_by_brute_force(p, k):
    f = find_irreducible(p, k)
    assert f.degree == k and f.leading() == 1
    assert brute_irreducible(list(f.coeffs), p)


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (5, 2)])
def test_find_irreducible_returns_lexicographically_first(p, k):
    found = find_irreducible(p, k)
    for tail in itertools.product(range(p), repeat=k):
        candidate = list(tail) + [1]
        if brute_irreducible(candidate, p):
            assert found == IntPolynomial(candidate)
            break
        assert IntPolynomial(candidate) != found


# --- the replaced route: Ben-Or's test on int lists mod p (with poly_mod
# above as its remainder), searched over every candidate ---


def _ptrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _ptrim(out)


def _ppowmod(base, e, m, p):
    result = [1]
    b = poly_mod(base, m, p)
    while e:
        if e & 1:
            result = poly_mod(_pmul(result, b, p), m, p)
        e >>= 1
        if e:
            b = poly_mod(_pmul(b, b, p), m, p)
    return result


def _pgcd(a, b, p):
    x, y = list(a), list(b)
    while y:
        x, y = y, poly_mod(x, y, p)
    if x:
        inv = pow(x[-1], p - 2, p)
        x = [(c * inv) % p for c in x]
    return x


def int_list_is_irreducible(f, p):
    """gcd(f, y^(p^i) - y) = 1 for i = 1..deg/2, on ints mod p."""
    k = len(f) - 1
    b = [0, 1]
    for _ in range(k // 2):
        b = _ppowmod(b, p, f, p)
        g = _pgcd(_ptrim([(c - d) % p for c, d in itertools.zip_longest(b, [0, 1], fillvalue=0)]), f, p)
        if len(g) - 1 > 0:
            return False
    return True


def full_search(p, k):
    """The first irreducible over every candidate, c0 = 0 included."""
    for tail in itertools.product(range(p), repeat=k):
        f = list(tail) + [1]
        if int_list_is_irreducible(f, p):
            return IntPolynomial(f)


ORACLE_FIELDS = [(p, k) for p in (2, 3, 5, 7, 11, 13) for k in range(1, 13) if p**k <= 4096]


@pytest.mark.parametrize("p,k", ORACLE_FIELDS)
def test_find_irreducible_matches_the_full_search(p, k):
    assert find_irreducible(p, k) == full_search(p, k)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_is_irreducible_matches_trial_division(p):
    for k in range(1, 5):
        for tail in itertools.product(range(p), repeat=k):
            f = list(tail) + [1]
            assert _is_irreducible(f, p) == int_list_is_irreducible(f, p) == brute_irreducible(f, p), f


@pytest.mark.parametrize("p", [2, 3])
def test_field_accepts_exactly_the_irreducible_moduli(p):
    for k in (2, 3):
        for tail in itertools.product(range(p), repeat=k):
            modulus = IntPolynomial(list(tail) + [1])
            if brute_irreducible(list(modulus.coeffs), p):
                assert FiniteField(p, k, modulus).modulus == modulus
            else:
                with pytest.raises(SpecError):
                    FiniteField(p, k, modulus)


def test_find_irreducible_degree_24_over_f2():
    # the largest extension field the default enumeration budget admits
    assert find_irreducible(2, 24) == IntPolynomial((1,) + (0,) * 19 + (1, 1, 0, 1, 1))
    assert FiniteField(2, 24).size == 1 << 24


def test_find_irreducible_rejects_bad_inputs():
    with pytest.raises(SpecError):
        find_irreducible(4, 2)
    with pytest.raises(SpecError):
        find_irreducible(5, 0)


# --- field arithmetic ---

SMALL_FIELDS = [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 2)]


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_frobenius_fixes_every_element(p, k):
    field = FiniteField(p, k)
    for x in field.elements():
        assert field.pow(x, p**k) == x


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_inverses_exist_for_all_nonzero(p, k):
    field = FiniteField(p, k)
    for x in field.elements():
        if x == field.zero:
            continue
        assert field.mul(x, field.inv(x)) == field.one
    with pytest.raises(ZeroDivisionError):
        field.inv(field.zero)


@pytest.mark.parametrize("p,k", [(3, 3), (5, 3), (5, 4), (7, 2)])
def test_field_axioms_on_random_triples(p, k):
    field = FiniteField(p, k)
    rng = random.Random(p * 100 + k)
    for _ in range(200):
        a, b, c = (rng.randrange(field.size) for _ in range(3))
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.mul(a, b) == field.mul(b, a)
        assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
        assert field.add(a, field.neg(a)) == field.zero
        assert field.sub(a, b) == field.add(a, field.neg(b))


# --- the replaced arithmetic: elements as coefficient tuples, products by
# convolution and reduction rows, as the oracle of the int-code tables ---


class TupleField:
    """F_{p^k} on length-k coefficient tuples (ascending degree)."""

    def __init__(self, p, k, modulus):
        self.p, self.k, self.size = p, k, p**k
        self.zero, self.one = (0,) * k, (1,) + (0,) * (k - 1)
        # reduction rows: red[j - k] expresses z^j as a reduced tuple
        self.red = []
        if k > 1:
            row = [(-c) % p for c in modulus.coeffs[:k]]
            self.red.append(tuple(row))
            for _ in range(k - 2):
                over = row[-1]
                row = [0] + row[:-1]
                if over:
                    row = [(c + over * r) % p for c, r in zip(row, self.red[0])]
                self.red.append(tuple(row))

    def add(self, x, y):
        return tuple((a + b) % self.p for a, b in zip(x, y))

    def neg(self, x):
        return tuple((-a) % self.p for a in x)

    def sub(self, x, y):
        return tuple((a - b) % self.p for a, b in zip(x, y))

    def mul(self, x, y):
        p, k = self.p, self.k
        conv = [0] * (2 * k - 1)
        for i, a in enumerate(x):
            if a:
                for j, b in enumerate(y):
                    conv[i + j] += a * b
        out = conv[:k]
        for j in range(k, 2 * k - 1):
            c = conv[j]
            if c:
                row = self.red[j - k]
                for i in range(k):
                    out[i] += c * row[i]
        return tuple(c % p for c in out)

    def pow(self, x, e):
        if e < 0:
            x, e = self.inv(x), -e
        return binary_power(x, e, self.mul, self.one)

    def inv(self, x):
        if x == self.zero:
            raise ZeroDivisionError("inverse of zero in a finite field")
        return self.pow(x, self.size - 2)


def digits(field, code):
    """The coefficient tuple of an int code: its base-p digits."""
    return tuple(code // field.p**i % field.p for i in range(field.k))


# z is not primitive for the default modulus of (2, 8), (3, 2), (5, 2), (5, 4)
# and (7, 3); neither is z + 1 for (2, 8)
ORACLE_ARITHMETIC = [(2, 1), (13, 1), (2, 8), (3, 2), (5, 2), (5, 4), (7, 3), (3, 5)]


@functools.lru_cache(maxsize=None)
def field_pair(p, k):
    field = FiniteField(p, k)
    return field, TupleField(p, k, field.modulus)


@st.composite
def arithmetic_cases(draw):
    field, oracle = field_pair(*draw(st.sampled_from(ORACLE_ARITHMETIC)))
    x, y = (draw(st.integers(0, field.size - 1)) for _ in range(2))
    e = draw(st.integers(-3 * field.size, 3 * field.size))
    return field, oracle, x, y, e, draw(st.integers(0, field.k))


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(case=arithmetic_cases())
def test_int_codes_match_tuple_arithmetic(case):
    field, oracle, x, y, e, j = case
    X, Y = digits(field, x), digits(field, y)
    assert digits(field, field.add(x, y)) == oracle.add(X, Y)
    assert digits(field, field.sub(x, y)) == oracle.sub(X, Y)
    assert digits(field, field.neg(x)) == oracle.neg(X)
    assert field.add(x, field.neg(x)) == field.sub(y, y) == 0  # 1 + g^n = 0 in the Zech table
    assert digits(field, field.mul(x, y)) == oracle.mul(X, Y)
    assert digits(field, field.pow(x, field.p**j)) == oracle.pow(X, field.p**j)  # Frobenius
    if x:
        assert digits(field, field.inv(x)) == oracle.inv(X)
        assert digits(field, field.pow(x, e)) == oracle.pow(X, e)
    else:
        for op in (field.inv, lambda z: field.pow(z, -1 - abs(e))):
            with pytest.raises(ZeroDivisionError):
                op(x)
        assert digits(field, field.pow(x, abs(e))) == oracle.pow(X, abs(e))


@pytest.mark.parametrize("p,k", ORACLE_ARITHMETIC)
def test_tables_run_over_a_primitive_element(p, k):
    field, _ = field_pair(p, k)
    field.mul(1, 1)
    if k == 1:
        assert field._tables is None
    else:
        exp, log, zech = field._tables
        m = field.size - 1
        assert sorted(exp[:m]) == list(range(1, field.size)) and exp[m:] == exp[:m]
        assert all(log[exp[n]] == n for n in range(m))


def test_codes_are_base_p_digits():
    field = FiniteField(3, 2)  # modulus z^2 + 1
    assert list(field.elements()) == list(range(9))
    assert (field.zero, field.one, field.from_int(-1)) == (0, 1, 2)
    assert field.mul(3, 3) == 2  # z * z = -1
    assert field.add(4, 5) == 6  # (1 + z) + (2 + z) = 2z


def test_pow_matches_repeated_multiplication():
    field = FiniteField(3, 2)
    for x in field.elements():
        acc = field.one
        for e in range(9):
            assert field.pow(x, e) == acc
            acc = field.mul(acc, x)


@pytest.mark.parametrize("p,k", [(2, 3), (3, 2)])
def test_negative_pow_is_pow_of_the_inverse(p, k):
    field = FiniteField(p, k)
    for x in field.elements():
        if x != field.zero:
            for e in range(2 * field.size):
                assert field.pow(x, -e) == field.pow(field.inv(x), e)


def test_from_int_reduces_mod_p():
    field = FiniteField(5, 2)
    assert field.from_int(7) == field.from_int(2)
    assert field.from_int(-1) == field.from_int(4)
    assert field.from_int(0) == field.zero


def test_field_rejects_bad_modulus():
    with pytest.raises(SpecError):
        FiniteField(2, 2, IntPolynomial((1, 0, 1)))  # (z+1)^2 over F_2
    with pytest.raises(SpecError):
        FiniteField(2, 2, IntPolynomial((1, 1, 2)))  # not reduced/monic
    with pytest.raises(SpecError):
        FiniteField(2, 2, IntPolynomial((1, 1)))  # wrong degree
    with pytest.raises(SpecError):
        FiniteField(6, 1)


def test_field_proves_its_prime_once(monkeypatch):
    calls = []
    prove = finitefield.is_prime

    def counted(n):
        calls.append(n)
        return prove(n)

    modulus = find_irreducible(5, 3)
    monkeypatch.setattr(finitefield, "is_prime", counted)
    for build in (lambda: FiniteField(5, 3), lambda: FiniteField(5, 3, modulus)):
        calls.clear()
        build()
        assert calls == [5]
    for p, k, modulus in ((6, 1, None), (2, 0, None), (2, 0, IntPolynomial((1,))), (4, 1, IntPolynomial((0, 1)))):
        with pytest.raises(SpecError):
            FiniteField(p, k, modulus)


# --- the process-wide memo of moduli and tables ---

MEMO_FIELDS = [(p, k) for p, k in ORACLE_FIELDS if k > 1]


def irreducible_at(p, k, start, avoid=None):
    """The first monic irreducible of degree k other than avoid whose coefficient code
    c_0 + c_1 p + ... + c_{k-1} p^(k-1) is start or follows it, cyclically."""
    for n in itertools.chain(range(start, p**k), range(start)):
        f = [n // p**i % p for i in range(k)] + [1]
        if IntPolynomial(f) != avoid and brute_irreducible(f, p):
            return IntPolynomial(f)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_memoized_tables_equal_a_cold_build(data):
    p, k = data.draw(st.sampled_from(MEMO_FIELDS))
    start = data.draw(st.integers(0, p**k - 1))
    modulus = data.draw(st.sampled_from([find_irreducible(p, k), irreducible_at(p, k, start)]))
    FiniteField(p, k, modulus).mul(1, 1)
    warm = FiniteField(p, k, modulus)
    assert warm._tables is None
    warm.mul(1, 1)
    assert warm._tables is finitefield._TABLES[p, k, modulus.coeffs]
    with mock.patch.dict(finitefield._TABLES, clear=True):
        cold = FiniteField(p, k, modulus)._build()
    assert cold is not warm._tables and cold == warm._tables


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(pk=st.sampled_from(ORACLE_FIELDS))
def test_find_irreducible_equals_the_search_without_the_memo(pk):
    found = find_irreducible(*pk)
    assert find_irreducible(*pk) is found
    assert found == finitefield._first_irreducible.__wrapped__(*pk)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_fields_with_different_moduli_keep_their_own_tables(data):
    p, k = data.draw(st.sampled_from([pk for pk in MEMO_FIELDS if pk != (2, 2)]))  # F_4 has one modulus
    a = find_irreducible(p, k)
    b = irreducible_at(p, k, data.draw(st.integers(0, p**k - 1)), avoid=a)
    x, y = (data.draw(st.integers(0, p**k - 1)) for _ in range(2))
    fields = [FiniteField(p, k, m) for m in (a, b, a, b)]  # the second of each is read from the memo
    for field in fields:
        field.mul(1, 1)
        oracle, X, Y = TupleField(p, k, field.modulus), digits(field, x), digits(field, y)
        assert digits(field, field.mul(x, y)) == oracle.mul(X, Y)
        assert digits(field, field.add(x, y)) == oracle.add(X, Y)
    assert fields[0]._tables is fields[2]._tables and fields[1]._tables is fields[3]._tables
    assert fields[0]._tables != fields[1]._tables


def test_errors_are_raised_on_every_call():
    reducible = IntPolynomial((1, 0, 1))  # (z + 1)^2 over F_2
    for _ in range(3):
        for bad in (lambda: FiniteField(6, 1), lambda: FiniteField(2, 0), lambda: find_irreducible(4, 2),
                    lambda: FiniteField(2, 2, reducible)):
            with pytest.raises(SpecError):
                bad()
        assert find_irreducible(2, 2) == IntPolynomial((1, 1, 1))


def test_table_memo_stays_within_its_cap_and_drops_the_oldest_first(monkeypatch):
    monkeypatch.setattr(finitefield, "_TABLES", {})
    built = []
    for tail in itertools.product(range(2), repeat=10):
        if _is_irreducible(list(tail) + [1], 2):
            modulus = IntPolynomial(list(tail) + [1])
            FiniteField(2, 10, modulus).mul(1, 1)
            built.append((2, 10, modulus.coeffs))
            kept = list(finitefield._TABLES)
            assert sum(len(t[1]) for t in finitefield._TABLES.values()) <= finitefield._TABLE_CAP
            assert kept == built[-len(kept):]
    assert len(built) == 99 and len(kept) == finitefield._TABLE_CAP // 2**10


def test_a_memo_hit_makes_its_field_the_most_recent(monkeypatch):
    monkeypatch.setattr(finitefield, "_TABLES", {})
    monkeypatch.setattr(finitefield, "_TABLE_CAP", 16)
    f8a, f8b = IntPolynomial((1, 1, 0, 1)), IntPolynomial((1, 0, 1, 1))
    FiniteField(2, 2).mul(2, 2)
    FiniteField(2, 3, f8a).mul(2, 2)
    FiniteField(2, 2).mul(2, 3)  # a hit: F_4 is now the most recent
    FiniteField(2, 3, f8b).mul(2, 2)  # 4 + 8 + 8 elements pass 16: the F_8 under f8a goes
    assert list(finitefield._TABLES) == [(2, 2, (1, 1, 1)), (2, 3, f8b.coeffs)]


def test_a_field_past_the_cap_is_built_but_not_kept(monkeypatch):
    monkeypatch.setattr(finitefield, "_TABLES", {})
    FiniteField(2, 4).mul(2, 2)
    field = FiniteField(2, 17)
    assert field.size > finitefield._TABLE_CAP
    field.mul(1, 1)
    exp, log, zech = field._tables
    m = field.size - 1
    assert sorted(exp[:m]) == list(range(1, field.size)) and exp[m:] == exp[:m]
    assert all(log[exp[n]] == n for n in range(m))
    oracle, rng = TupleField(2, 17, field.modulus), random.Random(17)
    for _ in range(200):
        x, y = rng.randrange(field.size), rng.randrange(field.size)
        assert digits(field, field.mul(x, y)) == oracle.mul(digits(field, x), digits(field, y))
        assert digits(field, field.add(x, y)) == oracle.add(digits(field, x), digits(field, y))
    assert list(finitefield._TABLES) == [(2, 4, find_irreducible(2, 4).coeffs)]
    again = FiniteField(2, 17)._build()
    assert again is not field._tables and again == field._tables


# --- polynomial parsing and evaluation ---


def test_parse_polynomial_matches_direct_arithmetic():
    f = parse_polynomial("y^2 - x^3 - x", ("x", "y"))
    field = FiniteField(5, 1)
    for xv in range(5):
        for yv in range(5):
            expected = (yv * yv - xv**3 - xv) % 5
            assert f.evaluate(field, (xv, yv)) == expected


def test_parse_polynomial_grammar():
    names = ("x", "y")
    assert parse_polynomial("(x + y)^2", names) == parse_polynomial("x^2 + 2*x*y + y^2", names)
    assert parse_polynomial("-x", names) == parse_polynomial("0 - x", names)
    assert parse_polynomial("2", names) == parse_polynomial("1 + 1", names)


def test_parse_polynomial_expands_powers_up_to_the_product_cap():
    binomial = parse_polynomial("(x + 1)^1000", ("x",))
    assert binomial.terms == {(k,): math.comb(1000, k) for k in range(1001)}
    assert parse_polynomial("x^1000000000 - x", ("x",)).terms == {(10**9,): 1, (1,): -1}
    # no single product here reaches the cap: the count runs across the whole parse
    with pytest.raises(SpecError, match="1048576 term products"):
        parse_polynomial("(x + y + 1)^44 * (x + y + 1)^43", ("x", "y"))


def test_parse_polynomial_bounds_coefficient_bits_before_each_product():
    assert parse_polynomial("x - 2^4000", ("x",)).terms == {(1,): 1, (0,): -(2**4000)}
    for text in ("x - 2^5000", "x - 2^100000000", "x - 2^1000000000", "(2^2000*x + 1)^3"):
        with pytest.raises(SpecError, match="coefficients past 4096 bits"):
            parse_polynomial(text, ("x",))


@pytest.mark.parametrize("text", ["x +", "x ** 2", "q", "x y", "(x", "x @ y"])
def test_parse_polynomial_rejects_malformed(text):
    with pytest.raises(SpecError):
        parse_polynomial(text, ("x", "y"))


@pytest.mark.parametrize("text", ["x^²", "²*x", "x^1²", "x^²1"])
def test_parse_polynomial_reads_decimal_digits_only(text):
    """Superscripts pass str.isdigit but not int(): they are unexpected characters."""
    with pytest.raises(SpecError, match="unexpected character"):
        parse_polynomial(text, ("x",))


def test_parse_polynomial_reads_decimal_digits_of_any_script():
    assert parse_polynomial("x^٣ - ٣*x", ("x",)) == parse_polynomial("x^3 - 3*x", ("x",))


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit")
@pytest.mark.parametrize("text", ["7" * 5000 + "*x", "x - " + "9" * 5000, "x^" + "1" * 5000])
def test_parse_polynomial_literal_past_the_digit_limit_is_a_spec_error(text):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # CPython's default
    try:
        with pytest.raises(SpecError, match="5000-digit literal"):
            parse_polynomial(text, ("x",))
    finally:
        sys.set_int_max_str_digits(limit)


def tokenize_by_loop(text):
    """The character loop the tokenizer's regular expression replaced: the oracle for its tokens and messages."""
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdecimal():
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            try:
                tokens.append(("int", int(text[i:j])))
            except ValueError as exc:
                raise SpecError(f"a {j - i}-digit literal in a polynomial is past the int/str digit limit") from exc
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j]))
            i = j
        elif ch in "+-*^()":
            tokens.append((ch, ch))
            i += 1
        else:
            raise SpecError(f"unexpected character {ch!r} in polynomial {text!r}")
    return tokens


def tokens_or_message(tokenize, text):
    try:
        return tokenize(text)
    except SpecError as exc:
        return str(exc)


# decimal digits of another script, a superscript, a fraction, a roman numeral, letters outside ASCII,
# no-break space, em space, zero-width space (not whitespace), tab and newline
TOKEN_ALPHABET = string.ascii_letters + string.digits + "+-*^()_ @.,=" + "\u0663\u00b2\u00bd\u216b\u00e9\u4e2d\u00a0\u2003\u200b\t\n"


@settings(max_examples=2000, derandomize=True, database=None, deadline=None)
@given(text=st.text(alphabet=TOKEN_ALPHABET, max_size=24))
def test_tokenize_matches_the_character_loop(text):
    assert tokens_or_message(finitefield._tokenize, text) == tokens_or_message(tokenize_by_loop, text)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit")
def test_tokenize_matches_the_character_loop_past_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # CPython's default
    try:
        for text in ("7" * 5000, "x - " + "9" * 5000 + " ", "x^" + "1" * 4300 + "*y"):
            assert tokens_or_message(finitefield._tokenize, text) == tokens_or_message(tokenize_by_loop, text)
        assert "5000-digit literal" in tokens_or_message(finitefield._tokenize, "7" * 5000)
    finally:
        sys.set_int_max_str_digits(limit)


# --- affine point enumeration ---


def test_count_affine_points_elliptic_affine_part():
    polys = [parse_polynomial("y^2 - x^3 - x", ("x", "y"))]
    assert count_affine_points(polys, 2, FiniteField(5, 1)) == 3


def test_count_affine_points_empty_system_is_whole_space():
    assert count_affine_points([], 1, FiniteField(2, 2)) == 4


def test_count_affine_points_unit_constant_is_empty():
    one = parse_polynomial("1", ("x",))
    assert count_affine_points([one], 1, FiniteField(2, 2)) == 0


def test_enumeration_budget_is_enforced():
    with pytest.raises(BudgetError) as info:
        list(iter_affine_solutions([], 2, FiniteField(2, 2), budget=10))
    assert info.value.required == 16
    assert info.value.budget == 10


def test_count_budget_is_checked_before_any_evaluation(monkeypatch):
    polys = [parse_polynomial("y^2 + y - x^3 - x", ("x", "y"))]

    def forbidden(self, field, point):
        raise AssertionError("evaluated a polynomial before the budget check")

    monkeypatch.setattr(MultiPoly, "evaluate", forbidden)
    with pytest.raises(BudgetError) as info:
        count_affine_points(polys, 2, FiniteField(2, 3), budget=63)
    assert info.value.required == 8**2
    assert info.value.budget == 63


def test_count_budget_equal_to_the_space_is_accepted():
    polys = [parse_polynomial("y^2 + y - x^3 - x", ("x", "y"))]
    field = FiniteField(2, 3)
    assert count_affine_points(polys, 2, field, budget=64) == len(list(iter_affine_solutions(polys, 2, field)))


def test_enumeration_solutions_are_actual_zeros():
    polys = [parse_polynomial("y^2 + y - x^3 - x", ("x", "y"))]
    field = FiniteField(2, 2)
    solutions = list(iter_affine_solutions(polys, 2, field))
    for point in solutions:
        assert polys[0].evaluate(field, point) == field.zero
    assert len(solutions) == len(set(solutions))


# --- no table larger than the work ---


def test_one_variable_root_count_stays_in_the_prime_field():
    field = FiniteField(2, 24)
    assert count_affine_points([parse_polynomial("x^3 + x + 1", ("x",))], 1, field) == 3
    assert field._tables is None


@pytest.mark.parametrize("text,expected", [("x^2 + x + 1", 2), ("x^2 + 1", 1), ("x + 1", 1)])
def test_one_variable_closed_forms_stay_in_the_prime_field(text, expected):
    field = FiniteField(2, 24)
    assert count_affine_points([parse_polynomial(text, ("x",))], 1, field) == expected
    assert field._tables is None


def test_refused_enumeration_builds_no_table():
    field = FiniteField(2, 3)
    with pytest.raises(BudgetError):
        list(iter_affine_solutions([parse_polynomial("y - x", ("x", "y"))], 2, field, budget=63))
    assert field._tables is None
