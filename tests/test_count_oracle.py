"""Differential tests: the fibre walk against evaluation at every point.

``count_affine_points`` and ``iter_affine_solutions`` share one walk: one
variable y stays symbolic and, for every value of the others, the fibre is
read off the monic gcd g of the specialised polynomials (its size in closed
form up to degree 2, as deg gcd(g, y^q - y) above; its points by a Horner
scan of g).  The oracle is the enumerator the walk replaced:
``points_by_evaluation`` evaluates every polynomial at all q^n points.

The random systems have 0-3 polynomials over F_{p^k}, p in {2, 3, 5, 7},
k <= 3, with 1-3 variables (q^n <= 2,401): sparse polynomials with
exponents above q and coefficients that are multiples of p, and products
of linear forms, which have many and repeated roots.  The fibre sizes of
degree 1 and 2 are checked on their own against a scan over F_q, with the
gcd over F_q itself (m = 1) or over F_p inside F_q = F_(p^k) (m = k).
"""

import functools
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from wittzeta.finitefield import (
    FiniteField,
    MultiPoly,
    _fibre_size,
    count_affine_points,
    iter_affine_solutions,
    parse_polynomial,
)

MAX_POINTS = 2401


@functools.lru_cache(maxsize=None)
def field_of(p: int, k: int) -> FiniteField:
    return FiniteField(p, k)


def points_by_evaluation(polys, nvars, field):
    """Every common zero, in product order, by evaluating each polynomial at each of the q^n points."""
    return [point for point in itertools.product(field.elements(), repeat=nvars)
            if all(f.evaluate(field, point) == field.zero for f in polys)]


@st.composite
def sparse_polys(draw, nvars, q, p):
    exponent = st.one_of(st.integers(0, 3), st.integers(0, q + 2))
    coeff = st.builds(lambda c, m: c * m, st.integers(-10, 10), st.sampled_from([1, 1, 1, p]))
    terms = draw(st.dictionaries(st.tuples(*[exponent] * nvars), coeff, max_size=5))
    return MultiPoly(nvars, terms)


@st.composite
def linear_products(draw, nvars, p):
    out = MultiPoly.constant(nvars, draw(st.integers(1, p - 1)))
    for _ in range(draw(st.integers(1, 3))):
        form = MultiPoly.constant(nvars, draw(st.integers(0, p - 1)))
        for i in range(nvars):
            form = form + MultiPoly.constant(nvars, draw(st.integers(0, p - 1))) * MultiPoly.variable(nvars, i)
        out = out * form
    return out


@st.composite
def systems(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    k = draw(st.integers(1, 3))
    q = p**k
    nvars = draw(st.integers(1, max(n for n in (1, 2, 3) if q**n <= MAX_POINTS)))
    poly = st.one_of(sparse_polys(nvars, q, p), linear_products(nvars, p))
    polys = draw(st.lists(poly, max_size=3))
    return polys, nvars, field_of(p, k)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(case=systems())
def test_root_count_matches_enumeration(case):
    polys, nvars, field = case
    assert count_affine_points(polys, nvars, field) == len(points_by_evaluation(polys, nvars, field))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(case=systems())
def test_fibre_walk_lists_the_points_of_the_evaluation(case):
    polys, nvars, field = case
    assert sorted(iter_affine_solutions(polys, nvars, field)) == points_by_evaluation(polys, nvars, field)


@pytest.mark.parametrize(
    "p,k,names,texts,expected",
    [
        # every y is a root of y^q - y: q roots per prefix
        (2, 2, ("x", "y"), ["y^4 - y"], 16),
        (3, 1, ("x", "y", "z"), ["z^3 - z"], 27),
        # a double root counts once
        (5, 1, ("x", "y"), ["(y - 1)^2"], 5),
        (2, 3, ("x", "y"), ["(y - x)^2"], 8),
        # coefficients divisible by p vanish identically
        (5, 1, ("x", "y"), ["5*y"], 25),
        (7, 2, ("y",), ["7*y^3 + 14"], 49),
        # a nonzero constant has no zeros
        (3, 2, ("x", "y"), ["2"], 0),
        # the empty system is the whole space
        (2, 2, ("x", "y", "z"), [], 64),
        # y does not occur, so it is the variable kept symbolic
        (5, 1, ("x", "y"), ["x^2 - 1"], 10),
        (3, 1, ("x", "y", "z"), ["x^2 + 1", "z - x"], 0),
        # gcd over two equations: y^2 = x and y = x meet where x^2 = x
        (5, 2, ("x", "y"), ["y^2 - x", "y - x"], 2),
        # exponents far above q: y^e = y^((e-1) mod (q-1) + 1) on F_q
        (2, 2, ("y",), ["y^1000000000 - y"], 4),
        (3, 1, ("x", "y"), ["x^100000 + y^1000000 - 2"], 4),
        # one variable, gcd over F_p: x^2 + x + 1 splits over F_4, not F_2 or F_8
        (2, 1, ("x",), ["x^2 + x + 1"], 0),
        (2, 2, ("x",), ["x^2 + x + 1"], 2),
        (2, 3, ("x",), ["x^2 + x + 1"], 0),
        # one variable, p odd: -1 is a square in F_9 but not in F_3 or F_27
        (3, 1, ("x",), ["x^2 + 1"], 0),
        (3, 2, ("x",), ["x^2 + 1"], 2),
        (3, 3, ("x",), ["x^2 + 1"], 0),
        # cubics keep the powering route
        (2, 3, ("x",), ["x^3 + x + 1"], 3),
        (2, 2, ("x", "y"), ["y^3 - x^4"], 4),
    ],
)
def test_root_count_explicit_cases(p, k, names, texts, expected):
    polys = [parse_polynomial(text, names) for text in texts]
    field = field_of(p, k)
    assert count_affine_points(polys, len(names), field) == expected
    assert len(list(iter_affine_solutions(polys, len(names), field))) == expected
    assert len(points_by_evaluation(polys, len(names), field)) == expected


# --- fibre sizes of degree 1 and 2, against a scan over F_q ---

FIBRE_FIELDS = [(p, k) for p in (2, 3, 5, 7, 11) for k in range(1, 5)]


def absolute_trace(field, u):
    """u + u^p + ... + u^(p^(k-1)), in F_p."""
    return functools.reduce(field.add, (field.pow(u, field.p**i) for i in range(field.k)))


@st.composite
def fibres(draw):
    """(field, arith, g): a monic g of degree 1 or 2 over arith = F_q (m = 1) or F_p (m = k)."""
    p, k = draw(st.sampled_from(FIBRE_FIELDS))
    field = field_of(p, k)
    arith = field if draw(st.booleans()) else field_of(p, 1)
    element = st.integers(0, arith.size - 1)
    shape = draw(st.sampled_from(["linear", "any", "b = 0", "discriminant 0", "trace 1"]))
    if shape == "linear":
        return field, arith, [draw(element), 1]
    b, c = draw(element), draw(element)
    if shape == "b = 0":
        b = 0
    elif shape == "discriminant 0":  # (y + r)^2, and for p = 2 this is b = 0 again
        r = draw(element)
        b, c = arith.add(r, r), arith.mul(r, r)
    elif shape == "trace 1" and p == 2:  # c/b^2 of trace 1 over arith
        b = draw(st.integers(1, arith.size - 1))
        u = draw(st.sampled_from([u for u in arith.elements() if absolute_trace(arith, u) == 1]))
        c = arith.mul(u, arith.mul(b, b))
    return field, arith, [c, b, 1]


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(case=fibres())
def test_fibre_size_of_degree_one_and_two_matches_a_scan(case):
    field, arith, g = case
    roots = sum(1 for y in field.elements()
                if functools.reduce(lambda acc, c: field.add(field.mul(acc, y), c), reversed(g), 0) == 0)
    assert _fibre_size(field, arith, g) == roots


@pytest.mark.parametrize("p,k", FIBRE_FIELDS)
def test_fibre_size_parity_rule_over_the_prime_field(p, k):
    """Over F_p inside F_(p^k): y^2 + y + 1 (p = 2) and y^2 - d, d a non-residue mod p, split iff k is even."""
    field, fp = field_of(p, k), field_of(p, 1)
    if p == 2:
        g = [1, 1, 1]
    else:
        d = next(d for d in range(2, p) if pow(d, (p - 1) // 2, p) == p - 1)
        g = [p - d, 0, 1]
    assert _fibre_size(field, fp, g) == (2 if k % 2 == 0 else 0)
