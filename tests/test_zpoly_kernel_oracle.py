"""Differential tests: the packed W_N(ZZ[z]) kernels against the IntPolynomial route they replaced.

Over ZZ[z], ``ghost``, ``ghost_inverse`` and ``witt_mul`` of two realized
vectors run the ZZ recurrences on coefficients packed at z = 2^(8w), w fixed
by the same recurrences run on 1-norms.  The route they replaced, the
recurrences over ``ZPOLY`` with one ``IntPolynomial`` product or sum per
term, is kept here (``old_ghost``, ``old_ghost_inverse``, ``old_witt_mul``,
and ``frobenius``, ``witt_pow``, ``sigma_poly`` and ``macdonald_poincare``
on top of them) and is the oracle: results must agree coefficient by
coefficient, realized or not, and non-integral ghosts must raise
IntegralityError with the same message, degree and cause.

Draws: precision 1..24, coefficient degree 0..12, coefficients of 0..200
bits of both signs mixed with the edges +-(2^b - 1), zero and constant
coefficients; realized, ghost-carrying and unrealized operands; and
W_3(W_4(ZZ[z])) products, whose inner products take the packed route.  Past
precision 6 the coefficients are drawn smaller, which keeps the old route fast.
The slot-edge tests put a value within one bit of its slot (a constant ghost or
coefficient of 2^b - 1 at b = 64, 72, 128, or a product of two 32-bit ones), or
make n*a_n the whole of a ghost coordinate, so a slot one bit narrower than the
bound, or a norm recurrence without the factor n, unpacks a wrong coefficient.
"""

from hypothesis import given, settings, strategies as st

from wittzeta import witt
from wittzeta.errors import IntegralityError
from wittzeta.rings import IntPolynomial, TruncatedSeries, ZPOLY, _conv
from wittzeta.sigma import macdonald_poincare, sigma_poly
from wittzeta.witt import (
    GhostVector, WittRing, WittVector, frobenius, ghost, ghost_inverse, witt_mul, witt_one, witt_pow,
)

ORACLE = settings(max_examples=120, derandomize=True, database=None, deadline=None)


def old_ghost(p: WittVector) -> GhostVector:
    """The ghost map over the coefficient ring's handle: bn = n*an - (a1*b_{n-1} + ... + a_{n-1}*b1)."""
    if p._ghost is not None:
        return p._ghost
    ring, a = p.ring, p._series.coeffs
    b = [ring.zero]
    for n in range(1, len(a)):
        b.append(ring.neg(_conv(ring, a, b, n, ring.scalar_mul(a[n], -n))))
    return GhostVector._make(ring, tuple(b[1:]))


def old_ghost_inverse(g: GhostVector) -> WittVector:
    """The Newton recursion over the coefficient ring's handle, dividing by n with its divide_exact."""
    ring = g.ring
    b, a = (ring.zero,) + g.coords, [ring.one]
    for n in range(1, len(b)):
        try:
            a.append(ring.divide_exact(_conv(ring, a, b, n, b[n]), n))
        except IntegralityError as exc:
            raise IntegralityError(
                f"no Witt vector has these ghost coordinates: "
                f"the Newton step at degree {n} is not divisible by {n}",
                degree=n,
            ) from exc
    return WittVector._of(TruncatedSeries._make(ring, tuple(a)), g)


def old_from_ghost(g: GhostVector, *operands: WittVector) -> WittVector:
    realized = all(v._series is not None for v in operands)
    return old_ghost_inverse(g) if realized else WittVector._of(None, g)


def old_witt_mul(p: WittVector, q: WittVector) -> WittVector:
    prec = min(p.prec, q.prec)
    return old_from_ghost(old_ghost(p.truncate(prec)) * old_ghost(q.truncate(prec)), p, q)


def old_frobenius(p: WittVector, n: int) -> WittVector:
    coords = old_ghost(p).coords[n - 1 : n * (p.prec // n) : n]
    return p if n == 1 else old_from_ghost(GhostVector._make(p.ring, coords), p)


def old_witt_pow(p: WittVector, e: int) -> WittVector:
    if e == 0:
        return witt_one(p.ring, p.prec)
    return old_ghost_inverse(GhostVector._make(p.ring, tuple(c**e for c in old_ghost(p).coords)))


def old_sigma_poly(f: IntPolynomial, prec: int) -> WittVector:
    ghosts = []
    for n in range(1, prec + 1):
        spread = [0] * (n * f.degree + 1)
        spread[::n] = f.coeffs
        ghosts.append(IntPolynomial(spread))
    return old_ghost_inverse(GhostVector(ZPOLY, ghosts))


class OldWittRing(WittRing):
    """W_N(ZZ[z]) whose products take the old route, so nested vectors over it run it at every level."""

    def mul(self, x: WittVector, y: WittVector) -> WittVector:
        return old_witt_mul(x, y)


def coefficients(v: WittVector, realize=old_ghost_inverse) -> list:
    """v's coefficients as plain tuples, an unrealized v realized by the given Newton recursion."""
    series = v._series if v._series is not None else realize(v._ghost)._series
    return [c.coeffs if isinstance(c, IntPolynomial) else coefficients(c) for c in series.coeffs]


def assert_same(new: WittVector, old: WittVector) -> None:
    assert (new._series is None) == (old._series is None)
    if new._series is None:
        assert [c.coeffs for c in new._ghost.coords] == [c.coeffs for c in old._ghost.coords]
    assert coefficients(new, ghost_inverse) == coefficients(old)


@st.composite
def polynomials(draw, max_degree=12, max_bits=200):
    """Zero, constants and polynomials of degree <= max_degree, coefficients of <= max_bits bits of
    both signs mixed with the edges +-(2^b - 1), or all one edge value."""
    degree = draw(st.integers(-1, max_degree))
    b = draw(st.integers(0, max_bits))
    edges = [2**b - 1, -(2**b - 1)]
    if draw(st.booleans()):
        return IntPolynomial([draw(st.sampled_from(edges))] * (degree + 1))
    entry = st.one_of(st.integers(-(2**b - 1), 2**b - 1), st.sampled_from(edges + [0]))
    return IntPolynomial(draw(st.lists(entry, min_size=degree + 1, max_size=degree + 1)))


@st.composite
def vectors(draw, prec, coefficient=None):
    """A vector over ZZ[z] of the given precision: realized, ghost-carrying or unrealized.  Past
    precision 6 its coefficients are of degree <= 3 and of <= 40 bits."""
    if coefficient is None:
        coefficient = polynomials() if prec <= 6 else polynomials(max_degree=3, max_bits=40)
    p = WittVector.from_coeffs(ZPOLY, [draw(coefficient) for _ in range(prec)])
    form = draw(st.sampled_from(["realized", "carrying", "unrealized"]))
    if form == "realized":
        return p
    return WittVector._of(p.series if form == "carrying" else None, old_ghost(p))


precisions = st.integers(1, 24)


def edge_vector(prec: int, bits: int, sign: int = 1) -> WittVector:
    """1 + (2^bits - 1)*t^prec: its last ghost coordinate is prec*(2^bits - 1), the whole of its 1-norm bound."""
    return WittVector.from_coeffs(ZPOLY, [IntPolynomial()] * (prec - 1) + [IntPolynomial([sign * (2**bits - 1)])])


@ORACLE
@given(data=st.data(), prec=precisions)
def test_ghost_and_ghost_inverse_match_the_old_route(data, prec):
    p = data.draw(vectors(prec))
    assert [c.coeffs for c in ghost(p).coords] == [c.coeffs for c in old_ghost(p).coords]
    g = old_ghost(p)
    assert_same(ghost_inverse(g), old_ghost_inverse(g))


def test_ghost_and_ghost_inverse_at_the_slot_edges_match_the_old_route():
    for bits, n, sign in [(64, 1, 1), (64, 1, -1), (72, 1, 1), (128, 1, -1), (62, 4, 1), (61, 8, -1), (120, 2, 1)]:
        p = edge_vector(n, bits, sign)
        assert ghost(p).coords == old_ghost(p).coords
        g = GhostVector(ZPOLY, [IntPolynomial()] * (n - 1) + [IntPolynomial([sign * n * (2**bits - 1)])])
        assert_same(ghost_inverse(g), old_ghost_inverse(g))


@ORACLE
@given(data=st.data(), prec=precisions)
def test_witt_mul_matches_the_old_route(data, prec):
    p = data.draw(vectors(prec))
    q = data.draw(vectors(data.draw(st.integers(1, 24))))
    assert_same(witt_mul(p, q), old_witt_mul(p, q))
    assert_same(witt_mul(q, p), old_witt_mul(q, p))


def test_witt_mul_at_the_slot_edges_matches_the_old_route():
    for bits in (31, 32, 63, 64, 100):
        for sign in (1, -1):
            for n in (1, 2, 3):
                p, q = edge_vector(n, bits), edge_vector(n, bits, sign)
                assert_same(witt_mul(p, q), old_witt_mul(p, q))
                p = WittVector.from_coeffs(ZPOLY, [IntPolynomial([2**bits - 1] * 13)] * n)
                assert_same(witt_mul(p, q), old_witt_mul(p, q))


@ORACLE
@given(data=st.data(), prec=precisions, n=st.integers(1, 6), e=st.integers(0, 3))
def test_frobenius_and_witt_pow_match_the_old_route(data, prec, n, e):
    p = data.draw(vectors(max(prec, n)))
    assert_same(frobenius(p, n), old_frobenius(p, n))
    if p._series is not None:
        assert_same(witt_pow(p, e), old_witt_pow(p, e))


@ORACLE
@given(data=st.data(), prec=precisions)
def test_sigma_poly_and_macdonald_poincare_match_the_old_route(data, prec):
    small = prec > 6  # past precision 6, degree <= 3 and <= 40 bits, as for vectors
    f = data.draw(polynomials(max_degree=3, max_bits=40) if small else polynomials())
    betti = data.draw(st.lists(st.integers(0, 2**40), min_size=1, max_size=4 if small else 13))
    assert_same(sigma_poly(f, prec), old_sigma_poly(f, prec))
    signed = IntPolynomial([-b if i & 1 else b for i, b in enumerate(betti)])
    assert_same(macdonald_poincare(betti, prec), old_sigma_poly(signed, prec))


@settings(ORACLE, max_examples=25)
@given(data=st.data())
def test_nested_products_over_w4_of_zz_z_match_the_old_route(data):
    inner = vectors(4, polynomials(max_degree=4, max_bits=24)).map(lambda v: WittVector(v.series))
    a, b = ([data.draw(inner) for _ in range(3)] for _ in range(2))
    new_ring, old_ring = WittRing(ZPOLY, 4), OldWittRing(ZPOLY, 4)
    p, q = (WittVector.from_coeffs(new_ring, cs) for cs in (a, b))
    old_p, old_q = (WittVector.from_coeffs(old_ring, cs) for cs in (a, b))
    assert coefficients(witt_mul(p, q), ghost_inverse) == coefficients(old_witt_mul(old_p, old_q))


def raised(fn, *args):
    """The IntegralityError fn raises as (message, degree, cause message), else None."""
    try:
        fn(*args)
    except IntegralityError as exc:
        return str(exc), exc.degree, str(exc.__cause__)
    return None


@ORACLE
@given(data=st.data(), prec=st.integers(2, 24))
def test_non_integral_ghosts_raise_as_on_the_old_route(data, prec):
    g = list(old_ghost(data.draw(vectors(prec))).coords)
    d = data.draw(st.integers(2, prec))
    delta = data.draw(st.one_of(st.just(IntPolynomial([1])), polynomials(max_bits=8)))
    g[d - 1] = g[d - 1] + delta
    ghosts = GhostVector(ZPOLY, g)
    got = raised(ghost_inverse, ghosts)
    assert got == raised(old_ghost_inverse, ghosts)
    if delta == 1:  # the Newton sum at degree d moves by 1, so it fails there
        assert got[1] == d


def test_a_ghost_coordinate_off_by_one_fails_at_its_degree():
    p = WittVector.from_coeffs(ZPOLY, [IntPolynomial((k, -k, 3)) for k in range(1, 9)])
    for d in range(2, 9):
        g = list(witt.ghost(p).coords)
        g[d - 1] = g[d - 1] + 1
        message, degree, cause = raised(ghost_inverse, GhostVector(ZPOLY, g))
        assert degree == d and (message, degree, cause) == raised(old_ghost_inverse, GhostVector(ZPOLY, g))
