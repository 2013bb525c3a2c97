"""Differential tests: affine point counting against full enumeration.

``count_affine_points`` keeps one variable y symbolic and, for every value
of the others, counts the common roots of the specialised polynomials as
deg gcd(g, y^q - y).  The oracle is the enumerator it replaced:
``iter_affine_solutions`` evaluates every polynomial at all q^n points.

The random systems have 0-3 polynomials over F_{p^k}, p in {2, 3, 5, 7},
k <= 3, with 1-3 variables (q^n <= 2,401): sparse polynomials with
exponents above q and coefficients that are multiples of p, and products
of linear forms, which have many and repeated roots.
"""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from wittzeta.finitefield import (
    FiniteField,
    MultiPoly,
    count_affine_points,
    iter_affine_solutions,
    parse_polynomial,
)

MAX_POINTS = 2401


@functools.lru_cache(maxsize=None)
def field_of(p: int, k: int) -> FiniteField:
    return FiniteField(p, k)


def enumerated(polys, nvars, field) -> int:
    return sum(1 for _ in iter_affine_solutions(polys, nvars, field))


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
    assert count_affine_points(polys, nvars, field) == enumerated(polys, nvars, field)


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
    ],
)
def test_root_count_explicit_cases(p, k, names, texts, expected):
    polys = [parse_polynomial(text, names) for text in texts]
    field = field_of(p, k)
    assert count_affine_points(polys, len(names), field) == expected
    assert enumerated(polys, len(names), field) == expected
