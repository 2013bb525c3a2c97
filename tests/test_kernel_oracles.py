"""Differential tests: the Witt kernel against the routes it replaced.

The series product and inverse, and ``ghost`` and ``ghost_inverse`` over rings
other than ZZ and ZZ[z], run their inner sums through one helper, started from
each recurrence's boundary term,
and ``TruncatedSeries.pow_int`` and ``nth_root`` share the one-pass power
recurrence.  The routes they replaced are kept here as oracles: the four
recurrences as hand-written loops, each sum started from zero; the ghost map
also as the series product t*P' * P^(-1); integer powers by square-and-multiply
(inverting first for a negative exponent); and the n-th root degree by
degree, re-raising the partial root to the n-th power at every step.
``old_routes`` swaps the loops, the powers and the roots in, so a computation
run under it uses the old routes at every nesting level, and the
series-quotient ghost run under it shares no code with the new kernel.
Over ZZ the ghost map and its inverse run on plain int lists (and over ZZ[z]
on packed ints); they, and ``witt_mul`` through them, are held to the loops on
W_N(ZZ) up to N = 80 with coefficients up to 2^256, and on perturbed ghosts.

The cases are Witt vectors and series over ZZ, ZZ[z], W_3(ZZ) and
W_2(W_3(ZZ)); the last, at precision 2, are elements of the three-level
nesting W_2(W_2(W_3(ZZ))).  The n-th root inputs are n-fold Witt sums, half
of them with one coefficient perturbed so that many have no root; on a
non-root, both routes must raise IntegralityError with the same degree and
message.  Powers are checked over ZZ, ZZ[z] and W_3(ZZ) for exponents in
[-40, 40], for constant terms other than 1, and for (1 - t^d)^e with |e| up
to 10^30 against its binomial coefficients.

``sigma_witt`` runs one ghost map of P and lets each F_n read its prefix;
the route it replaced, one ghost map per Frobenius, is kept here verbatim
and compared on vectors over ZZ (random, and Z of random E/F_p), ZZ[z] and
W_2(ZZ), errors and their ``required`` included.  A vector carries ghost
coordinates only from birth (``ghost_inverse`` and truncations of its
outputs, Teichmueller lifts, and sums, negatives and multiples of carrying
vectors): every kind of vector the library makes must carry the ghost of its
own series, W_N(ZZ[z]) products of every form of factor the pointwise product
of their ghosts, and a vector built from coefficients runs the recurrence on each
``ghost`` call, so no call leaves state behind, on the operands or on their
coefficients (a ghost map over W_M(A) runs each coefficient's once, on a copy).
"""

import functools
import math
import operator
from contextlib import contextmanager

import pytest
from hypothesis import assume, given, settings, strategies as st

from wittzeta import witt
from wittzeta.errors import IntegralityError, PrecisionError
from wittzeta.rings import IntPolynomial, TruncatedSeries, ZPOLY, ZZ, binary_power
from wittzeta.sigma import sigma_witt
from wittzeta.varieties import EllipticCurve
from wittzeta.witt import GhostVector, WittRing, WittVector, frobenius, ghost_inverse, witt_mul, witt_scale
from wittzeta.zeta import spec_zeta


def series_mul_by_loop(self: TruncatedSeries, other: TruncatedSeries) -> TruncatedSeries:
    """The series product, each coefficient a sum from zero over i = 0..k."""
    if not isinstance(other, TruncatedSeries):
        return NotImplemented
    ring = self.ring
    if other.ring != ring:
        raise ValueError("series live over different rings")
    n = min(self.prec, other.prec)
    a, b = self.coeffs, other.coeffs
    out = []
    for k in range(n + 1):
        acc = ring.zero
        for i in range(k + 1):
            acc = ring.add(acc, ring.mul(a[i], b[k - i]))
        out.append(acc)
    return TruncatedSeries._make(ring, tuple(out))


def inverse_by_loop(self: TruncatedSeries) -> TruncatedSeries:
    """The series inverse, inv_k = -(s_1*inv_{k-1} + ... + s_k*inv_0) summed from zero."""
    ring = self.ring
    if not ring.eq(self.coeffs[0], ring.one):
        raise ValueError("series inverse requires constant term 1")
    inv = [ring.one]
    for k in range(1, self.prec + 1):
        acc = ring.zero
        for i in range(1, k + 1):
            acc = ring.add(acc, ring.mul(self.coeffs[i], inv[k - i]))
        inv.append(ring.neg(acc))
    return TruncatedSeries._make(ring, tuple(inv))


def ghost_by_loop(p: WittVector) -> GhostVector:
    """bn = n*an - (a1*b_{n-1} + ... + a_{n-1}*b1), the sum started from zero."""
    ring = p.ring
    a = p.series.coeffs
    b = []
    for n in range(1, len(a)):
        acc = ring.zero
        for i in range(1, n):
            acc = ring.add(acc, ring.mul(a[i], b[n - 1 - i]))
        b.append(ring.sub(ring.scalar_mul(a[n], n), acc))
    return GhostVector(ring, b)


def ghost_inverse_by_loop(g: GhostVector) -> WittVector:
    """The Newton recursion n*an = bn + a1*b_{n-1} + ... + a_{n-1}*b1."""
    ring = g.ring
    b = g.coords
    a = [ring.one]
    for n in range(1, len(b) + 1):
        acc = b[n - 1]
        for i in range(1, n):
            acc = ring.add(acc, ring.mul(a[i], b[n - 1 - i]))
        try:
            a.append(ring.divide_exact(acc, n))
        except IntegralityError as exc:
            raise IntegralityError(
                f"no Witt vector has these ghost coordinates: "
                f"the Newton step at degree {n} is not divisible by {n}",
                degree=n,
            ) from exc
    return WittVector(TruncatedSeries._make(ring, tuple(a)))


def ghost_by_series_quotient(p: WittVector) -> GhostVector:
    """Ghost coordinates read off from the series product t*P' * P^(-1)."""
    ring = p.ring
    numer = TruncatedSeries._make(
        ring, tuple(ring.scalar_mul(c, k) for k, c in enumerate(p.series.coeffs))
    )
    quotient = numer * p.series.inverse()
    return GhostVector(ring, quotient.coeffs[1:])


def pow_by_squaring(self: TruncatedSeries, e: int) -> TruncatedSeries:
    """Integer power by square-and-multiply; a negative exponent inverts first."""
    if e < 0:
        return pow_by_squaring(self.inverse(), -e)
    return binary_power(self, e, operator.mul, TruncatedSeries.one(self.ring, self.prec))


def nth_root_by_powering(self: TruncatedSeries, n: int) -> TruncatedSeries:
    """The n-th root degree by degree: q_k = (s_k - [t^k](q_0..q_{k-1})^n) / n."""
    if n <= 0:
        raise ValueError("root index must be a positive integer")
    ring = self.ring
    if not ring.eq(self.coeffs[0], ring.one):
        raise ValueError("series n-th root requires constant term 1")
    if n == 1:
        return self
    root = [ring.one]
    for k in range(1, self.prec + 1):
        partial = TruncatedSeries._make(ring, tuple(root) + (ring.zero,))
        attained = pow_by_squaring(partial, n).coeffs[k]
        residual = ring.sub(self.coeffs[k], attained)
        try:
            root.append(ring.divide_exact(residual, n))
        except IntegralityError as exc:
            raise IntegralityError(
                f"series has no exact {n}-th root: failure at degree {k}", degree=k
            ) from exc
    return TruncatedSeries._make(ring, tuple(root))


OLD_ROUTES = (
    (witt, "ghost", ghost_by_loop),
    (witt, "ghost_inverse", ghost_inverse_by_loop),
    (TruncatedSeries, "__mul__", series_mul_by_loop),
    (TruncatedSeries, "inverse", inverse_by_loop),
    (TruncatedSeries, "pow_int", pow_by_squaring),
    (TruncatedSeries, "nth_root", nth_root_by_powering),
)


@contextmanager
def old_routes():
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in OLD_ROUTES]
    for owner, name, route in OLD_ROUTES:
        setattr(owner, name, route)
    try:
        yield
    finally:
        for owner, name, route in saved:
            setattr(owner, name, route)


def outcome(fn):
    """What fn() returns, or the degree and message of the IntegralityError it raises."""
    try:
        return fn()
    except IntegralityError as exc:
        return ("IntegralityError", exc.degree, str(exc))


def on_both_routes(fn):
    new = outcome(fn)
    with old_routes():
        old = outcome(fn)
    return new, old


W3 = WittRing(ZZ, 3)
W23 = WittRing(W3, 2)


def witt_vectors(ring, prec):
    """Witt vectors of the given precision over ring, small coefficients."""
    return st.lists(elements(ring), min_size=prec, max_size=prec).map(
        lambda cs: WittVector.from_coeffs(ring, cs)
    )


def elements(ring):
    if ring is ZZ:
        return st.integers(-6, 6)
    if ring is ZPOLY:
        return st.lists(st.integers(-4, 4), max_size=3).map(IntPolynomial)
    return witt_vectors(ring.coeff_ring, ring.prec)


# (coefficient ring, largest precision): small where one ring operation
# already nests one or two Witt levels, and the old routes are slow there.
CASES = {"ZZ": (ZZ, 8), "ZZ[z]": (ZPOLY, 5), "W_3(ZZ)": (W3, 4), "W_2(W_3(ZZ))": (W23, 2)}
DIFFERENTIAL = settings(max_examples=25, derandomize=True, database=None, deadline=None)


@pytest.mark.parametrize("case", sorted(CASES))
@DIFFERENTIAL
@given(data=st.data())
def test_ghost_and_witt_mul_match_the_series_quotient_route(case, data):
    ring, max_prec = CASES[case]
    prec = data.draw(st.integers(1, max_prec))
    p = data.draw(witt_vectors(ring, prec))
    q = data.draw(witt_vectors(ring, prec))
    new, old = on_both_routes(lambda: witt.ghost(p).coords)
    assert new == old
    with old_routes():
        assert ghost_by_series_quotient(p).coords == old
    new, old = on_both_routes(lambda: witt_mul(p, q).coeffs)
    assert new == old


def int_coefficients(bits):
    """A draw of integers up to 2^bits in absolute value, the edges +-(2^bits - 1) and small values mixed in."""
    edge = 2**bits - 1
    return st.one_of(st.integers(-edge, edge), st.sampled_from([edge, -edge, 0, 1, -1]), st.integers(-6, 6))


@pytest.mark.parametrize("ring", [ZZ, ZPOLY], ids=["ZZ", "ZZ[z]"])
@settings(DIFFERENTIAL, max_examples=30)
@given(data=st.data())
def test_int_kernels_match_the_ring_handle_loops(ring, data):
    """ghost, witt_mul and ghost_inverse over ZZ (N <= 80) and ZZ[z] (N <= 12, the packed route), coefficients up
    to 2^256 in absolute value, against the loops through the ring handle; ghosts off by delta at degree d raise
    the same IntegralityError (degree and message) on both routes, at d itself when delta is 1."""
    prec = data.draw(st.integers(1, 80 if ring is ZZ else 12))
    coefficient = int_coefficients(data.draw(st.sampled_from([3, 64, 256])))
    if ring is ZPOLY:
        coefficient = st.lists(coefficient, max_size=4).map(IntPolynomial)
    p, q = (WittVector.from_coeffs(ring, data.draw(st.lists(coefficient, min_size=prec, max_size=prec))) for _ in range(2))
    new, old = on_both_routes(lambda: (witt.ghost(p).coords, witt.witt_mul(p, q).coeffs, witt.witt_mul(p, q)._ghost))
    assert new[:2] == old[:2]
    if ring is ZZ:  # the product over ZZ carries its ghosts, the pointwise product
        assert new[2].coords == tuple(map(operator.mul, new[0], witt.ghost(q).coords))
    g, d = list(new[0]), data.draw(st.integers(1, prec))
    delta = data.draw(st.one_of(st.just(1), coefficient))
    g[d - 1] = ring.add(g[d - 1], ring.check(delta))
    new, old = on_both_routes(lambda: witt.ghost_inverse(GhostVector(ring, g)).coeffs)
    assert new == old
    if delta == 1 and d > 1:
        assert new[:2] == ("IntegralityError", d)


@pytest.mark.parametrize("case", sorted(CASES))
@DIFFERENTIAL
@given(data=st.data())
def test_ghost_inverse_matches_the_newton_loop_on_any_coordinates(case, data):
    ring, max_prec = CASES[case]
    prec = data.draw(st.integers(1, max_prec))
    p = data.draw(witt_vectors(ring, prec))
    coords = list(witt.ghost(p).coords)
    if data.draw(st.booleans()):
        k = data.draw(st.integers(0, prec - 1))
        coords[k] = ring.add(coords[k], data.draw(elements(ring)))
    g = GhostVector(ring, coords)
    new, old = on_both_routes(lambda: witt.ghost_inverse(g).coeffs)
    assert new == old


@pytest.mark.parametrize("case", sorted(CASES))
@DIFFERENTIAL
@given(data=st.data())
def test_series_product_and_inverse_match_the_loops(case, data):
    ring, max_prec = CASES[case]
    prec = data.draw(st.integers(0, max_prec))
    s = TruncatedSeries(ring, data.draw(st.lists(elements(ring), min_size=prec + 1, max_size=prec + 1)))
    u = TruncatedSeries(ring, [ring.one] + data.draw(st.lists(elements(ring), min_size=prec, max_size=prec)))
    new, old = on_both_routes(lambda: (s * u).coeffs)
    assert new == old
    new, old = on_both_routes(lambda: (u * s).coeffs)
    assert new == old
    new, old = on_both_routes(lambda: u.inverse().coeffs)
    assert new == old


@pytest.mark.parametrize("case", sorted(CASES))
@DIFFERENTIAL
@given(data=st.data())
def test_nth_root_and_divide_exact_match_the_degree_by_degree_route(case, data):
    ring, max_prec = CASES[case]
    prec = data.draw(st.integers(1, max_prec))
    n = data.draw(st.integers(2, 4))
    x = data.draw(witt_vectors(ring, prec))
    coeffs = list(witt_scale(x, n).series.coeffs)
    if data.draw(st.booleans()):
        k = data.draw(st.integers(1, prec))
        coeffs[k] = ring.add(coeffs[k], data.draw(elements(ring)))
    y = WittVector(TruncatedSeries(ring, coeffs))
    new, old = on_both_routes(lambda: y.series.nth_root(n).coeffs)
    assert new == old
    new, old = on_both_routes(lambda: WittRing(ring, prec).divide_exact(y, n).coeffs)
    assert new == old


@pytest.mark.parametrize("ring", [ZZ, ZPOLY], ids=["ZZ", "ZZ[z]"])
@settings(DIFFERENTIAL, max_examples=60)
@given(data=st.data())
def test_products_and_inverses_of_zero_tailed_series_match_the_loops(ring, data):
    """Products and inverses stop each inner sum at a polynomial operand's last nonzero term."""
    def series(prec, constant=None):
        d = data.draw(st.integers(0, prec))  # zero from degree d + 1 on
        head = data.draw(st.lists(elements(ring), min_size=d, max_size=d))
        first = data.draw(elements(ring)) if constant is None else constant
        return TruncatedSeries(ring, [first] + head + [ring.zero] * (prec - d))

    s, u = series(data.draw(st.integers(0, 30))), series(data.draw(st.integers(0, 30)), ring.one)
    dense = TruncatedSeries(ring, data.draw(st.lists(elements(ring), min_size=31, max_size=31)))
    for x, y in ((s, u), (u, s), (s, dense), (dense, u), (u, u)):
        assert (x * y).coeffs == series_mul_by_loop(x, y).coeffs
    assert u.inverse().coeffs == inverse_by_loop(u).coeffs


def test_series_products_over_a_witt_ring_realize_no_coefficient():
    g = witt.ghost(WittVector.from_coeffs(ZZ, [1, -2, 0]))
    s = TruncatedSeries(W3, [WittVector._of(None, g) for _ in range(5)])
    assert all(c._series is None for c in (s * s).coeffs + s.coeffs)


# (coefficient ring, largest precision) for the power tests
POWER_CASES = {"ZZ": (ZZ, 8), "ZZ[z]": (ZPOLY, 6), "W_3(ZZ)": (W3, 4)}


@pytest.mark.parametrize("case", sorted(POWER_CASES))
@DIFFERENTIAL
@given(data=st.data())
def test_pow_int_matches_square_and_multiply(case, data):
    ring, max_prec = POWER_CASES[case]
    prec = data.draw(st.integers(0, max_prec))
    tail = data.draw(st.lists(elements(ring), min_size=prec, max_size=prec))
    s = TruncatedSeries(ring, [ring.one] + tail)
    e = data.draw(st.integers(-40, 40))
    new, old = on_both_routes(lambda: s.pow_int(e).coeffs)
    assert new == old
    # a constant term other than 1: square-and-multiply for e >= 0, ValueError below
    c = data.draw(elements(ring).filter(lambda c: not ring.eq(c, ring.one)))
    u = TruncatedSeries(ring, [c] + tail)
    e = abs(e) % 9
    new, old = on_both_routes(lambda: u.pow_int(e).coeffs)
    assert new == old
    with pytest.raises(ValueError):
        u.pow_int(-1 - e)


@DIFFERENTIAL
@given(
    d=st.integers(1, 12),
    prec=st.integers(0, 30),
    e=st.one_of(st.integers(-50, 50), st.integers(-(10**30), 10**30)),
)
def test_pow_int_of_one_minus_t_d_is_the_binomial_series(d, prec, e):
    """(1 - t^d)^e = sum_k C(e, k) (-t^d)^k; for e = -a, C(e, k) (-1)^k = C(a+k-1, k)."""
    factor = [0] * (prec + 1)
    factor[0] = 1
    if d <= prec:
        factor[d] = -1
    expected = [0] * (prec + 1)
    for k in range(prec // d + 1):
        expected[d * k] = math.comb(k - e - 1, k) if e < 0 else (-1) ** k * math.comb(e, k)
    assert TruncatedSeries(ZZ, factor).pow_int(e).coeffs == tuple(expected)


def sigma_witt_by_frobenius_loop(p: WittVector, outer_prec: int) -> WittVector:
    """sigma_u(P) in W_M(W_N'(A)), N' = floor(N/M), via outer ghosts.

    The n-th outer ghost coordinate is F_n(P); Frobenius divides precision
    by n, so the inner precision N' is what survives all of F_1..F_M, and
    F_n needs P only up to degree n*N'.  Requires N >= M so that N' >= 1.
    """
    if outer_prec < 1:
        raise ValueError("outer precision must be at least 1")
    if p.prec < outer_prec:
        raise PrecisionError(
            f"sigma_u to outer precision {outer_prec} needs input precision "
            f">= {outer_prec}, got {p.prec}",
            required=outer_prec,
        )
    inner_prec = p.prec // outer_prec
    inner_ring = WittRing(p.ring, inner_prec)
    coords = tuple(frobenius(p.truncate(n * inner_prec), n) for n in range(1, outer_prec + 1))
    return ghost_inverse(GhostVector(inner_ring, coords))


def plain(x):
    """A Witt vector as nested tuples of its precision and coefficients, down to the base ring."""
    if isinstance(x, WittVector):
        return ("W", x.prec, tuple(plain(c) for c in x.series.coeffs))
    return x


def sigma_outcome(route, p, outer_prec):
    """route(p, outer_prec) in plain form, or the class, required and message of its error."""
    try:
        return plain(route(p, outer_prec))
    except PrecisionError as exc:
        return ("PrecisionError", exc.required, str(exc))
    except ValueError as exc:
        return ("ValueError", str(exc))


@st.composite
def zetas_of_elliptic_curves(draw, max_prec):
    """Z(E/F_p, t) for a random nonsingular E, p < 60, from the closed form (it carries no ghost)."""
    p = draw(st.sampled_from([5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]))
    a, b = draw(st.integers(0, p - 1)), draw(st.integers(0, p - 1))
    assume((4 * a**3 + 27 * b**2) % p)
    return spec_zeta(EllipticCurve(p, a, b), draw(st.integers(1, max_prec)))


# (input vectors, largest outer precision) for the sigma_witt oracle
W2 = WittRing(ZZ, 2)
SIGMA_CASES = {
    "ZZ": (st.integers(1, 20).flatmap(lambda n: witt_vectors(ZZ, n)), 6),
    "Z(E/F_p)": (zetas_of_elliptic_curves(30), 6),
    "ZZ[z]": (st.integers(1, 8).flatmap(lambda n: witt_vectors(ZPOLY, n)), 4),
    "W_2(ZZ)": (st.integers(1, 6).flatmap(lambda n: witt_vectors(W2, n)), 3),
}


@pytest.mark.parametrize("case", sorted(SIGMA_CASES))
@settings(DIFFERENTIAL, max_examples=60)
@given(data=st.data())
def test_sigma_witt_matches_one_frobenius_ghost_map_each(case, data):
    """One ghost map for all F_n gives what a ghost map per F_n gave, errors included.

    M divides the input precision, leaves a remainder (the top degrees are
    dropped), or is refused (M above the precision, or M < 1).  The old route
    is fed the input without a ghost, so every F_n runs its own ghost map; the
    new route also gets the same series as a ghost_inverse output, which
    starts out carrying its ghost coordinates.
    """
    vectors, max_outer = SIGMA_CASES[case]
    p = data.draw(vectors)
    shape = data.draw(st.sampled_from(["divides", "remainder", "too short", "below one"]))
    if shape == "too short":
        p = p.truncate(data.draw(st.integers(1, min(p.prec, max_outer))))
        outer = list(range(max_outer + 2, p.prec, -1))
    elif shape == "below one":
        outer = [0, -1]
    else:  # largest first, so that M = 1 is not the usual draw
        outer = [m for m in range(min(max_outer, p.prec), 0, -1) if (p.prec % m == 0) == (shape == "divides")]
    assume(outer)
    outer_prec = data.draw(st.sampled_from(outer))
    old = sigma_outcome(sigma_witt_by_frobenius_loop, p, outer_prec)
    assert sigma_outcome(sigma_witt, p, outer_prec) == old
    assert sigma_outcome(sigma_witt, witt.ghost_inverse(witt.ghost(p)), outer_prec) == old


def plain_ghost(g: GhostVector):
    return g.prec, tuple(plain(c) for c in g.coords)


def ghost_is_the_recurrence(v: WittVector) -> bool:
    """ghost(v) equals the hand-written loop run on v's series, coordinate for coordinate."""
    return plain_ghost(witt.ghost(v)) == plain_ghost(ghost_by_loop(WittVector(v.series)))


@pytest.mark.parametrize("case", sorted(CASES))
@DIFFERENTIAL
@given(data=st.data())
def test_every_vector_is_born_with_its_true_ghost(case, data):
    """Whatever a vector carries from birth is the ghost of its series."""
    ring, max_prec = CASES[case]
    prec = data.draw(st.integers(1, max_prec))
    p = data.draw(witt_vectors(ring, prec))
    q = data.draw(witt_vectors(ring, prec))
    born = witt.ghost_inverse(witt.ghost(p))
    n, k = data.draw(st.integers(1, prec)), data.draw(st.integers(-40, 40))
    made = [
        born,
        born.truncate(data.draw(st.integers(1, prec))),
        witt_mul(p, q),
        witt_mul(born, q).truncate(n),
        p.with_ghost(),
        p.with_ghost().truncate(n),
        witt.witt_pow(p, data.draw(st.integers(0, 3))),
        witt.frobenius(p, n),
        witt.frobenius(born, n),
        WittRing(ring, prec).divide_exact(witt_scale(p, 2), 2),
        witt.witt_neg(p),
        witt.witt_neg(born),
        witt.witt_neg(p.with_ghost()),
        witt_scale(born, k),
        witt_scale(p.with_ghost(), k),
        witt_scale(p, k),
        witt.teichmuller(data.draw(elements(ring)), prec, ring),
    ]
    if prec <= 4:
        made.append(sigma_witt(born, data.draw(st.integers(1, prec))))
    if ring is not W23:  # products over W_2(A) of vectors over A, plain and carrying, and of their negatives
        outer = WittRing(ring, prec)
        made.append(witt_mul(WittVector.from_coeffs(outer, [p, born]), WittVector.from_coeffs(outer, [witt.witt_neg(q), q])))
    if ring is ZPOLY:  # W_N(ZZ[z]) products of realized, carrying and unrealized factors, both orders, mixed precisions
        r = data.draw(witt_vectors(ring, data.draw(st.integers(1, max_prec))))
        factors = []
        for v in (p, r):  # each form with the ghosts of v by the loop, read before any product
            g = ghost_by_loop(v).coords
            factors += [(v, g), (witt.ghost_inverse(witt.ghost(v)), g), (v.with_ghost(), g)]
        for x, gx in factors:
            for y, gy in factors:
                product = witt_mul(x, y)
                assert (product._series is None) == (x._series is None or y._series is None)
                assert product._ghost.coords == tuple(map(operator.mul, gx, gy))
                made.append(product)
    for v in made:
        assert ghost_is_the_recurrence(v)
        inner = v.series.coeffs if isinstance(ring, WittRing) else ()
        assert all(ghost_is_the_recurrence(c) for c in inner if c._ghost is not None)


@pytest.mark.parametrize("case", sorted(CASES))
@DIFFERENTIAL
@given(data=st.data())
def test_sums_and_exact_quotients_of_carrying_vectors_are_born_with_their_true_ghost(case, data):
    """witt_add of two carrying vectors carries the pointwise sum, and divide_exact(x, n) of a
    carrying x carries gh(x)/n; both equal a fresh ghost map of the result's series."""
    ring, max_prec = CASES[case]
    prec = data.draw(st.integers(1, max_prec))
    p, q = (witt.ghost_inverse(witt.ghost(data.draw(witt_vectors(ring, prec)))) for _ in range(2))
    n = data.draw(st.integers(1, 3))
    total = witt.witt_add(p, q.truncate(data.draw(st.integers(1, prec))))
    multiple = functools.reduce(witt.witt_add, [p] * n)
    quotient = WittRing(ring, prec).divide_exact(multiple, n)
    for v in (total, multiple, quotient):
        assert v._ghost is not None
        assert plain_ghost(v._ghost) == plain_ghost(witt.ghost(WittVector(v.series)))
    assert quotient == p
    assert witt.witt_add(p, WittVector(q.series))._ghost is None  # a summand without ghosts gives none


def test_ghost_of_a_vector_with_no_birth_ghost_runs_the_recurrence_every_time(monkeypatch):
    calls = []
    kernel = witt._ghost_ints

    def counting_kernel(a):  # one entry per step of the recurrence over ZZ
        calls.extend([1] * (len(a) - 1))
        return kernel(a)

    monkeypatch.setattr(witt, "_ghost_ints", counting_kernel)
    v = WittVector.from_coeffs(ZZ, [3, -1, 4, 1, -5, 9])
    first = witt.ghost(v)
    once = len(calls)
    assert once == 6
    assert witt.ghost(v) == first
    assert len(calls) == 2 * once
    born = witt.ghost_inverse(first)
    calls.clear()
    assert witt.ghost(born) is first and witt.ghost(born.truncate(4)).coords == first.coords[:4]
    assert calls == []
    carried = v.with_ghost()
    assert len(calls) == once and witt.ghost(carried) == first and len(calls) == once
    witt.ghost(v)
    assert len(calls) == 2 * once  # with_ghost made a copy and left v without a ghost


def ghost_slots(x) -> list:
    """(vector, the ghosts it carries) for x and, recursively, every Witt vector among its realized coefficients."""
    if not isinstance(x, WittVector):
        return []
    inner = [] if x._series is None else [slot for c in x._series.coeffs for slot in ghost_slots(c)]
    return [(x, x._ghost), *inner]


@pytest.mark.parametrize("case", sorted(CASES))
@settings(DIFFERENTIAL, max_examples=12)
@given(data=st.data())
def test_operations_leave_the_ghosts_of_their_operands_as_they_were(case, data):
    """ghost, witt_mul, witt_neg, witt_scale and frobenius store nothing on the vectors they are handed, at any
    nesting level: a ghost map over W_M(A) gives each coefficient its ghosts on a copy."""
    ring, max_prec = CASES[case]
    prec = data.draw(st.integers(1, max_prec))
    p, q = data.draw(witt_vectors(ring, prec)), data.draw(witt_vectors(ring, prec))
    operands = [p, q, witt.ghost_inverse(witt.ghost(q)), p.with_ghost()]
    if ring is not W23:
        outer = WittRing(ring, prec)
        operands += [WittVector.from_coeffs(outer, [p, q]), WittVector.from_coeffs(outer, [q, operands[2]])]
    slots = [slot for v in operands for slot in ghost_slots(v)]
    n, k = data.draw(st.integers(1, prec)), data.draw(st.integers(-5, 5))
    for x in operands:
        witt.ghost(x)
        witt.witt_neg(x)
        witt_scale(x, k)
        frobenius(x, min(n, x.prec))
        for y in operands:
            if x.ring == y.ring:
                witt_mul(x, y)
    assert all(v._ghost is g for v, g in slots)


def test_a_nested_product_runs_one_ghost_map_per_inner_coefficient(monkeypatch):
    """witt_mul over W_6(W_6(ZZ)) of vectors without ghosts: one ghost map over ZZ for each of the 12 inner
    coefficients, none for the products, sums, negatives and multiples built from them."""
    calls = []
    kernel = witt._ghost_ints

    def counting_kernel(a):
        calls.append(len(a) - 1)
        return kernel(a)

    monkeypatch.setattr(witt, "_ghost_ints", counting_kernel)
    inner = WittRing(ZZ, 6)
    p, q = (WittVector.from_coeffs(inner, [WittVector.from_coeffs(ZZ, [(i * j + s) % 7 - 3 for j in range(6)])
                                           for i in range(6)]) for s in (1, 2))
    product = witt_mul(p, q)
    assert calls == [6] * 12
    with old_routes():
        assert plain(product) == plain(witt.witt_mul(p, q))


def test_ghost_inverse_still_refuses_coordinates_of_no_witt_vector():
    with pytest.raises(IntegralityError) as info:
        witt.ghost_inverse(GhostVector(ZZ, [1, 0, 0]))
    assert info.value.degree == 2
    assert str(info.value) == (
        "no Witt vector has these ghost coordinates: the Newton step at degree 2 is not divisible by 2"
    )
