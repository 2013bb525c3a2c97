"""Differential tests: the fast enumeration routes against the routes they replaced.

``count_affine_points`` and ``iter_affine_solutions`` share one walk: one
variable y stays symbolic and, for every value of the others, the fibre is
read off the monic gcd g of the specialised polynomials (its size in closed
form up to degree 2, as deg gcd(g, y^q - y) above; its points by a Horner
scan of g).  The oracle is the enumerator the walk replaced:
``points_by_evaluation`` evaluates every polynomial at all q^n points, term
by term through ``FiniteField`` method calls (``evaluate_by_terms``).

The random systems have 0-3 polynomials over F_{p^k}, p in {2, 3, 5, 7},
k <= 3, with 1-3 variables (q^n <= 2,401): sparse polynomials with
exponents above q and coefficients that are multiples of p, and products
of linear forms, which have many and repeated roots.  The fibre sizes of
degree 1 and 2 are checked on their own against a scan over F_q, with the
gcd over F_q itself (m = 1) or over F_p inside F_q = F_(p^k) (m = k).  The
walk's split is checked to build one MultiPoly per polynomial and y-degree,
with integer coefficients merged (y^q folded into y, sums that vanish mod p),
and the walk to evaluate them once per Frobenius orbit of the other variables
(tests/test_orbit_oracle.py compares it with the product-order walk).

The routes that work on residues and on the field's exp/log/Zech tables
are checked against the ``FiniteField`` method-call routes they replaced:
``MultiPoly.evaluate`` (prepared once per field) against
``evaluate_by_terms``; the elliptic point count (log parity) against the
length of a point list from a square table of q ``mul`` calls and against
the Euler-criterion sum; ``closed_point_counts`` (a divisor pass over
enumerated counts) against an orbit walk by ``field.pow`` over points
found by those two oracles.  The characteristic-2 trace mask is checked
against the sum of Frobenius powers at every element of F_(2^k), k <= 12,
and against the mod-2 Newton loop it replaced (``trace_mask_by_newton_loop``)
on 250 moduli of degree up to 24.
"""
import functools
import itertools

import pytest
from hypothesis import assume, given, seed, settings, strategies as st

from wittzeta.finitefield import (
    FiniteField,
    MultiPoly,
    _fibre_size,
    _fibres,
    _is_irreducible,
    _trace_mask,
    count_affine_points,
    iter_affine_solutions,
    parse_polynomial,
)
from wittzeta.rings import IntPolynomial
from wittzeta.varieties import EllipticCurve, EquationsSpec, _elliptic_affine_points, closed_point_counts

MAX_POINTS = 2401


@functools.lru_cache(maxsize=None)
def field_of(p: int, k: int) -> FiniteField:
    return FiniteField(p, k)


def evaluate_by_terms(f, field, point):
    """f at the point by FiniteField method calls: field.pow and field.mul per variable of each term."""
    acc = field.zero
    for exps, c in f.terms.items():
        term = c % field.p
        for x, e in zip(point, exps):
            if e:
                term = field.mul(term, field.pow(x, e))
        acc = field.add(acc, term)
    return acc


def points_by_evaluation(polys, nvars, field):
    """Every common zero, in product order, by evaluating each polynomial at each of the q^n points."""
    return [point for point in itertools.product(field.elements(), repeat=nvars)
            if all(evaluate_by_terms(f, field, point) == field.zero for f in polys)]


def elliptic_points_by_square_table(spec, field):
    """The affine points of y^2 = x (x^2 + a) + b, by a table of y*y over every y in the field."""
    a, b = field.from_int(spec.a), field.from_int(spec.b)
    roots = {}
    for y in field.elements():
        roots.setdefault(field.mul(y, y), []).append(y)
    return [(x, y) for x in field.elements()
            for y in roots.get(field.add(field.mul(x, field.add(field.mul(x, x), a)), b), ())]


def closed_points_by_pow_orbits(spec, r, dmax):
    """Closed points of degree 1..dmax: the points over F_(q^(rd)) grouped into orbits of
    x -> field.pow(x, q^r), coordinate by coordinate."""
    out = []
    for d in range(1, dmax + 1):
        field = field_of(spec.p, r * d)
        if isinstance(spec, EllipticCurve):
            points, infinity = elliptic_points_by_square_table(spec, field), 1
        else:
            points, infinity = points_by_evaluation(spec.polys, len(spec.variables), field), 0
        seen, orbits = set(), infinity if d == 1 else 0
        for pt in points:
            if pt not in seen:
                orbit = [pt]
                while (cur := tuple(field.pow(c, spec.q**r) for c in orbit[-1])) != pt:
                    orbit.append(cur)
                seen.update(orbit)
                orbits += len(orbit) == d
        out.append(orbits)
    return tuple(out)


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



# --- the split of ``_fibres``: one MultiPoly per (polynomial, y-degree), integer coefficients merged ---


@pytest.mark.parametrize(
    "p,k,names,texts,expected",
    [
        # y (index 0, tied with x) stays symbolic; y^4 = y on F_4 merges y^4*x + y*x into 2*x*y = 0
        (2, 2, ("y", "x"), ["y^4*x + y*x + x^4"], 4),
        (2, 2, ("y", "x"), ["y^4*x + y*x + y^2 + x^4 + 1"], 4),
        # y^q folded into y: y^9 + y = 2y on F_9, and y^4 - y vanishes on F_4
        (3, 2, ("y", "x"), ["y^9 + y - x^9"], 9),
        (2, 2, ("y", "x"), ["y^4 - y + x^4"], 4),
        # 5*x*y is 0 over F_5
        (5, 1, ("x", "y"), ["5*x*y"], 25),
        (5, 1, ("y", "x"), ["5*x*y + x - y"], 5),
    ],
)
def test_fibre_split_merges_coefficients_as_the_evaluation_does(p, k, names, texts, expected):
    polys = [parse_polynomial(text, names) for text in texts]
    field, nvars = field_of(p, k), len(names)
    points = points_by_evaluation(polys, nvars, field)
    assert len(points) == expected
    assert count_affine_points(polys, nvars, field) == expected
    assert sorted(iter_affine_solutions(polys, nvars, field)) == points


def test_fibres_builds_one_multipoly_per_polynomial_and_y_degree(monkeypatch):
    """y^4*x + y*x + 1 over F_4 splits into c_0 = 1 and c_1 = 2x, x^4 - y^2 - x into x^4 - x, 0 and -1."""
    polys = [parse_polynomial(text, ("y", "x")) for text in ("y^4*x + y*x + 1", "x^4 - y^2 - x")]
    field, built, init = field_of(2, 2), [], MultiPoly.__init__

    def counted_init(self, nvars, terms=None):
        built.append(dict(terms or {}))
        init(self, nvars, terms)

    monkeypatch.setattr(MultiPoly, "__init__", counted_init)
    v, size, fibres = _fibres(polys, 2, field, 1 << 24)
    assert v == 0
    assert built == [{(0, 0): 1}, {(0, 1): 2}, {(0, 4): 1, (0, 1): -1}, {}, {(0, 0): -1}]
    monkeypatch.undo()
    assert sum(weight * size(g) for _, weight, g in fibres) == len(points_by_evaluation(polys, 2, field))


def test_genus_two_curve_over_f4096_evaluates_once_per_orbit(monkeypatch):
    """y^2 + y = x^5 + x over F_(2^12): 352 orbits of x, 3 coefficient polynomials c_0, c_1, c_2 of y
    each, so 1,056 evaluations where a walk over every x makes 12,288."""
    polys = [parse_polynomial("y^2 + y - x^5 - x", ("x", "y"))]
    field, calls, evaluate = field_of(2, 12), [], MultiPoly.evaluate

    def counted(self, *args):
        calls.append(1)
        return evaluate(self, *args)

    monkeypatch.setattr(MultiPoly, "evaluate", counted)
    assert count_affine_points(polys, 2, field) == 4096
    assert len(calls) == 1056
    calls.clear()
    assert sum(1 for _ in iter_affine_solutions(polys, 2, field)) == 4096
    assert len(calls) == 1056


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
    assert _fibre_size(field, arith, _trace_mask(arith) if arith.p == 2 else 0, g) == roots


def last_irreducible(k):
    """The monic irreducible of degree k over F_2 that comes last in ``find_irreducible``'s order."""
    tails = itertools.product((1, 0), repeat=k)
    return IntPolynomial(next(f for f in (list(t) + [1] for t in tails) if (k == 1 or f[0]) and _is_irreducible(f, 2)))


@pytest.mark.parametrize("k", range(1, 13))
def test_trace_mask_gives_the_frobenius_sum_trace(k):
    """Tr(u) = parity(u & mask) for every u in F_(2^k), under the default and another modulus."""
    for field in (FiniteField(2, k), FiniteField(2, k, last_irreducible(k))):
        mask = _trace_mask(field)
        assert 0 <= mask < field.size
        assert all((u & mask).bit_count() % 2 == absolute_trace(field, u) for u in field.elements())


def trace_mask_by_newton_loop(field):
    """The trace mask by Newton's identities mod 2, the route ``_trace_mask`` replaced: s_0 = k and
    s_i = i f_(k-i) + sum_(0<j<i) f_(k-j) s_(i-j), f_j the t^j coefficient of the modulus."""
    f, k = field.modulus.coeffs, field.k
    sums = [k & 1]
    for i in range(1, k):
        sums.append((i * f[k - i] + sum(f[k - j] * sums[i - j] for j in range(1, i))) & 1)
    return sum(s << i for i, s in enumerate(sums))  # z^i is the code 2^i


def test_trace_mask_from_ghosts_matches_the_newton_loop():
    """On the default modulus of every F_(2^k), k <= 24, and every irreducible modulus of degree <= 10:
    250 moduli, no field tables built."""
    fields = [FiniteField(2, k) for k in range(1, 25)]
    for k in range(1, 11):
        monics = (list(t) + [1] for t in itertools.product((0, 1), repeat=k))
        fields += [FiniteField(2, k, IntPolynomial(f)) for f in monics if _is_irreducible(f, 2)]
    assert len(fields) == 250
    assert all(_trace_mask(field) == trace_mask_by_newton_loop(field) for field in fields)


@st.composite
def char2_quadratics(draw):
    """(field, g): a monic y^2 + b y + c over F_(2^k), k <= 6, often with b = 0 or c = 0."""
    field = field_of(2, draw(st.integers(1, 6)))
    element = st.one_of(st.just(0), st.integers(0, field.size - 1))
    return field, [draw(element), draw(element), 1]


@settings(max_examples=300, database=None, deadline=None)
@seed(20)
@given(case=char2_quadratics())
def test_char2_fibre_size_matches_a_horner_scan(case):
    field, g = case
    roots = sum(1 for y in field.elements()
                if functools.reduce(lambda acc, c: field.add(field.mul(acc, y), c), reversed(g), 0) == 0)
    assert _fibre_size(field, field, _trace_mask(field), g) == roots


@pytest.mark.parametrize("p,k", FIBRE_FIELDS)
def test_fibre_size_parity_rule_over_the_prime_field(p, k):
    """Over F_p inside F_(p^k): y^2 + y + 1 (p = 2) and y^2 - d, d a non-residue mod p, split iff k is even."""
    field, fp = field_of(p, k), field_of(p, 1)
    if p == 2:
        g = [1, 1, 1]
    else:
        d = next(d for d in range(2, p) if pow(d, (p - 1) // 2, p) == p - 1)
        g = [p - d, 0, 1]
    assert _fibre_size(field, fp, _trace_mask(fp) if p == 2 else 0, g) == (2 if k % 2 == 0 else 0)


# --- the table routes against the FiniteField method-call routes ---


@st.composite
def curves(draw, primes, max_k):
    """(spec, field): a nonsingular y^2 = x^3 + a x + b over F_p, often with a = 0, b = 0 or a root
    x0 of x^3 + a x + b in F_p, and the field F_(p^k)."""
    p = draw(st.sampled_from(primes))
    a = draw(st.one_of(st.just(0), st.integers(-2 * p, 2 * p)))
    shape = draw(st.sampled_from(["any", "b = 0", "root"]))
    if shape == "any":
        b = draw(st.integers(-2 * p, 2 * p))
    elif shape == "b = 0":
        b = p * draw(st.integers(-1, 1))
    else:
        x0 = draw(st.integers(0, p - 1))
        b = -(x0**3 + a * x0)
    assume((4 * a**3 + 27 * b**2) % p)
    return EllipticCurve(p, a, b), field_of(p, draw(st.integers(1, max_k)))


def elliptic_count_by_euler_criterion(spec, field):
    """The affine points of y^2 = f(x), as the sum over x of 1 + f(x)^((q-1)/2), the power read as 0, 1 or -1."""
    a, b, half = field.from_int(spec.a), field.from_int(spec.b), (field.size - 1) // 2
    character = {field.zero: 0, field.one: 1, field.neg(field.one): -1}
    return sum(1 + character[field.pow(field.add(field.mul(x, field.add(field.mul(x, x), a)), b), half)]
               for x in field.elements())


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(case=curves([5, 7, 11, 13], 3))
def test_elliptic_points_match_the_square_table(case):
    spec, field = case
    count = _elliptic_affine_points(spec, field, 10**6)
    assert count == len(elliptic_points_by_square_table(spec, field))
    assert count == elliptic_count_by_euler_criterion(spec, field)


# a = 0 (also as 5), b = 0 (a root at x = 0), a root at x = 1 (1 + 1 + 3), and no root in F_5
@pytest.mark.parametrize("a,b", [(0, 1), (5, 3), (1, 0), (3, 0), (1, 3), (1, 1), (2, 1), (4, 2)])
def test_elliptic_points_over_f625_match_the_square_table(a, b):
    spec, field = EllipticCurve(5, a, b), field_of(5, 4)
    count = _elliptic_affine_points(spec, field, 10**6)
    assert count == len(elliptic_points_by_square_table(spec, field))
    assert count == elliptic_count_by_euler_criterion(spec, field)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(case=curves([5, 7], 1), r=st.integers(1, 2), dmax=st.integers(0, 3))
def test_closed_point_counts_of_curves_match_the_pow_orbit_walk(case, r, dmax):
    spec, _ = case
    dmax = min(dmax, 2) if r == 2 else dmax  # at most F_(7^4)
    assert closed_point_counts(spec, r, dmax) == closed_points_by_pow_orbits(spec, r, dmax)


# a = 0, b = 0, a root at x = 1 and no root in F_5; N_1 = 6, 4, 4 and 9
@pytest.mark.parametrize("a,b", [(0, 1), (1, 0), (1, 3), (1, 1)])
def test_closed_point_counts_over_f25_to_f15625_match_the_pow_orbit_walk(a, b):
    spec = EllipticCurve(5, a, b)
    assert closed_point_counts(spec, 2, 3) == closed_points_by_pow_orbits(spec, 2, 3)


@st.composite
def equation_specs(draw):
    """(spec, r, dmax) with q^(r dmax n) <= 729 for n variables over F_p, p in {2, 3}."""
    p = draw(st.sampled_from([2, 3]))
    nvars = draw(st.integers(1, 2))
    r = draw(st.integers(1, 2))
    dmax = draw(st.integers(0, max(d for d in (1, 2, 3) if p ** (r * d * nvars) <= 729)))
    poly = st.one_of(sparse_polys(nvars, p**r, p), linear_products(nvars, p))
    polys = draw(st.lists(poly, max_size=2))
    return EquationsSpec(p, tuple("xy"[:nvars]), tuple(polys)), r, dmax


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(case=equation_specs())
def test_closed_point_counts_of_equations_match_the_pow_orbit_walk(case):
    spec, r, dmax = case
    assert closed_point_counts(spec, r, dmax) == closed_points_by_pow_orbits(spec, r, dmax)


@st.composite
def evaluations(draw):
    """(f, field, points): f with exponents 0..3, up to q + 2 and near 10^9, coefficients often
    multiples of p, and points of field^n with many zero coordinates."""
    p, k = draw(st.sampled_from([(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2), (3, 3),
                                 (5, 2), (7, 2), (5, 4)]))
    field, nvars = field_of(p, k), draw(st.integers(1, 3))
    exponent = st.one_of(st.integers(0, 3), st.integers(0, field.size + 2), st.integers(10**9 - 5, 10**9 + 5))
    coeff = st.builds(lambda c, m: c * m, st.integers(-10**6, 10**6), st.sampled_from([1, 1, p]))
    f = MultiPoly(nvars, draw(st.dictionaries(st.tuples(*[exponent] * nvars), coeff, max_size=6)))
    coord = st.one_of(st.just(0), st.integers(0, field.size - 1))
    return f, field, draw(st.lists(st.tuples(*[coord] * nvars), min_size=1, max_size=8))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(case=evaluations())
def test_evaluate_matches_the_per_term_route(case):
    f, field, points = case
    prime = field_of(field.p, 1)
    for point in points:  # alternating fields re-prepares the plan each time
        assert f.evaluate(field, point) == evaluate_by_terms(f, field, point)
        small = tuple(c % field.p for c in point)
        assert f.evaluate(prime, small) == evaluate_by_terms(f, prime, small)
