"""The orbit walk against the product-order walk it replaced.

``count_affine_points`` and ``iter_affine_solutions`` visit one value of the
free variables per orbit of x -> x^p (coordinatewise) and weight its fibre by
the orbit's size; ``iter_affine_solutions`` yields the other points of the
orbit as Frobenius images.  The oracle is the walk they replaced
(``product_order_walk``): every value of the free variables in product order,
one fibre each.  The differential test draws systems over F_(p^k), p in
{2, 3, 5, 7}, k <= 6, with 1-3 variables and q^n <= 4096, plus three-variable
systems (two free variables) over F_16, F_64 and F_81, whose subfields give
the inner coordinates orbits of every size.  The representatives are checked
to partition F_q^m (m <= 2, q <= 256), and the cosets of l -> p^e l on logs to
be the orbits of x -> x^(p^e) for every e | k.
"""
import functools
import itertools

import pytest
from hypothesis import given, settings, strategies as st

import wittzeta.finitefield as finitefield
from wittzeta.finitefield import (
    FiniteField,
    MultiPoly,
    _fgcd,
    _fibre_size,
    _frobenius_orbits,
    _ftrim,
    _orbit_points,
    _trace_mask,
    count_affine_points,
    iter_affine_solutions,
    parse_polynomial,
)


@functools.lru_cache(maxsize=None)
def field_of(p: int, k: int) -> FiniteField:
    return FiniteField(p, k)


def product_order_walk(polys, nvars, field):
    """(count, points) by one fibre per value of the free variables, in product order.

    The variable y of least degree stays symbolic, each polynomial split into integer polynomials
    c_j, one per power y^j (y^q = y on F_q); each fibre's gcd g is sized by ``_fibre_size`` and its
    roots found by a Horner scan of F_q that stops at that size (or deg g)."""
    v = min(range(nvars), key=lambda i: max((e[i] for f in polys for e in f.terms), default=0))
    coeffs = []
    for f in polys:
        by_power = {}
        for exps, c in f.terms.items():
            part = by_power.setdefault(min(exps[v], (exps[v] - 1) % (field.size - 1) + 1), {})
            rest = exps[:v] + (0,) + exps[v + 1:]
            part[rest] = part.get(rest, 0) + c
        coeffs.append([MultiPoly(nvars, by_power.get(j)) for j in range(max(by_power, default=-1) + 1)])
    arith = field if nvars > 1 else FiniteField._prime(field.p)
    mask = _trace_mask(arith) if field.p == 2 else 0
    count, points = 0, []
    for rest in itertools.product(field.elements(), repeat=nvars - 1):
        point, g = rest[:v] + (0,) + rest[v:], []
        for cs in coeffs:
            g = _fgcd(arith, g, _ftrim(arith, [c.evaluate(arith, point) for c in cs]))
        size = _fibre_size(field, arith, mask, g)
        count += size
        left = size if len(g) <= 3 else len(g) - 1
        for y in field.elements():
            if not left:
                break
            if not functools.reduce(lambda acc, c: field.add(field.mul(acc, y), c), reversed(g), 0):
                left -= 1
                points.append(rest[:v] + (y,) + rest[v:])
    return count, points


def primitive_element(field):
    """The least code of multiplicative order q - 1: g^((q-1)/r) != 1 for every prime r | q - 1."""
    m = field.size - 1
    primes = [r for r in range(2, m + 1) if m % r == 0 and all(r % s for s in range(2, r))]
    return next(g for g in range(1, field.size) if all(field.pow(g, m // r) != 1 for r in primes))


def frobenius_orbit(field, point, e=1):
    """The orbit of a point under x -> x^(p^e), coordinatewise, in order."""
    orbit = [point]
    while (image := tuple(field.pow(x, field.p**e) for x in orbit[-1])) != point:
        orbit.append(image)
    return orbit


# --- the differential test ---

SMALL_FIELDS = [(p, k) for p in (2, 3, 5, 7) for k in range(1, 7) if p**k <= 4096]
COMPOSITE_FIELDS = [(2, 4), (2, 6), (3, 4)]  # F_16, F_64, F_81


@st.composite
def sparse_poly(draw, nvars, p, max_exp):
    """A sparse polynomial with exponents up to max_exp and coefficients often divisible by p."""
    exponent = st.one_of(st.integers(0, 3), st.integers(0, max_exp))
    coeff = st.builds(lambda c, m: c * m, st.integers(-10, 10), st.sampled_from([1, 1, 1, p]))
    return MultiPoly(nvars, draw(st.dictionaries(st.tuples(*[exponent] * nvars), coeff, max_size=5)))


@st.composite
def linear_product(draw, nvars, p):
    out = MultiPoly.constant(nvars, draw(st.integers(1, p - 1)))
    for _ in range(draw(st.integers(1, 3))):
        form = MultiPoly.constant(nvars, draw(st.integers(0, p - 1)))
        for i in range(nvars):
            form = form + MultiPoly.constant(nvars, draw(st.integers(0, p - 1))) * MultiPoly.variable(nvars, i)
        out = out * form
    return out


@st.composite
def small_systems(draw):
    """0-3 polynomials in 1-3 variables over F_q, q^n <= 4096, with exponents up to min(q + 2, 20): past q
    where q is small, and low enough elsewhere that no fibre's Horner scan runs long."""
    p, k = draw(st.sampled_from(SMALL_FIELDS))
    q = p**k
    nvars = draw(st.integers(1, max(n for n in (1, 2, 3) if q**n <= 4096)))
    poly = st.one_of(sparse_poly(nvars, p, min(q + 2, 20)), linear_product(nvars, p))
    return draw(st.lists(poly, max_size=3)), nvars, field_of(p, k)


@st.composite
def composite_systems(draw):
    """1-2 polynomials in 3 variables over F_16, F_64 or F_81, of degree at most 3 in each variable.
    The first is monic of degree d in one of them, so no fibre of the walk holds more than d q points."""
    p, k = draw(st.sampled_from(COMPOSITE_FIELDS))
    first, i, d = draw(sparse_poly(3, p, 3)), draw(st.integers(0, 2)), draw(st.integers(1, 3))
    terms = {e: c for e, c in first.terms.items() if e[i] < d}
    terms[tuple(d if j == i else 0 for j in range(3))] = 1
    more = draw(st.lists(st.one_of(sparse_poly(3, p, 3), linear_product(3, p)), max_size=1))
    return [MultiPoly(3, terms), *more], 3, field_of(p, k)


def assert_walks_agree(polys, nvars, field):
    count, points = product_order_walk(polys, nvars, field)
    listed = list(iter_affine_solutions(polys, nvars, field))
    assert count_affine_points(polys, nvars, field) == count == len(points)
    assert len(set(listed)) == len(listed)
    assert sorted(listed) == sorted(points)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(case=small_systems())
def test_orbit_walk_matches_the_product_order_walk(case):
    assert_walks_agree(*case)


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(case=composite_systems())
def test_orbit_walk_with_two_free_variables_over_composite_fields(case):
    assert_walks_agree(*case)


@pytest.mark.parametrize("p,k,names,texts", [
    (2, 4, ("x", "y", "z"), ["y^2 + y - (x + z^3)^5 - (x + z^3)"]),
    (2, 6, ("x", "y", "z"), ["y - x*z", "x^4 - x"]),  # z by orbits under sigma (x in F_2) and sigma^2
    (3, 4, ("x", "y", "z"), ["y^2 - x^3 - z^10 - 1"]),
    (2, 4, ("x", "z"), ["x^2*z + z^4 + 1"]),
    (3, 2, ("x", "y", "z"), []),  # the whole space: every orbit of F_9^2, and all of F_9 over each
])
def test_orbit_walk_explicit_systems(p, k, names, texts):
    assert_walks_agree([parse_polynomial(text, names) for text in texts], len(names), field_of(p, k))


# --- the representatives ---

PARTITION_FIELDS = [(p, k) for p in (2, 3, 5, 7, 11, 13) for k in range(1, 9) if p**k <= 256]


@pytest.mark.parametrize("p,k", PARTITION_FIELDS)
def test_orbit_points_partition_the_space(p, k):
    """For m <= 2: each orbit of F_q^m under x -> x^p holds exactly one representative, whose weight is
    the orbit's size; so the weights sum to q^m."""
    field = field_of(p, k)
    for m in range(3):
        seen, total = set(), 0
        for point, weight in _orbit_points(field, m):
            orbit = frobenius_orbit(field, point)
            assert len(orbit) == weight
            assert seen.isdisjoint(orbit)
            seen.update(orbit)
            total += weight
        assert total == field.size**m == len(seen)


@pytest.mark.parametrize("p,k", PARTITION_FIELDS)
def test_log_cosets_are_the_orbits_of_every_power_of_frobenius(p, k):
    """For every e | k, 0 and the powers g^l of a primitive g at the cosets' least logs l hit each
    orbit of x -> x^(p^e) on F_q once, and each coset's size is its orbit's."""
    field = field_of(p, k)
    g = primitive_element(field)
    for e in (e for e in range(1, k + 1) if k % e == 0):
        logs, sizes = _frobenius_orbits(p, k, e)
        assert sum(sizes) == field.size - 1
        reps = [0] + [field.pow(g, l) for l in logs]
        seen = set()
        for x, c in zip(reps, [1, *sizes]):
            orbit = frobenius_orbit(field, (x,), e)
            assert len(orbit) == c
            assert seen.isdisjoint(orbit)
            seen.update(orbit)
        assert len(seen) == field.size


# --- the memo ---


def test_orbit_memo_stays_within_the_table_cap(monkeypatch):
    monkeypatch.setattr(finitefield, "_ORBITS", {})
    for k in range(2, 17):
        _frobenius_orbits(2, k, 1)
        assert sum(p**j for p, j, _ in finitefield._ORBITS) <= finitefield._TABLE_CAP
    assert list(finitefield._ORBITS) == [(2, 16, 1)]  # 2^16 alone fills the cap
    _frobenius_orbits(2, 17, 1)  # past the cap: built, not kept
    assert list(finitefield._ORBITS) == [(2, 16, 1)]
    assert _frobenius_orbits(2, 16, 1) is finitefield._ORBITS[2, 16, 1]
