"""Differential tests: ``IntPolynomial`` products against the coefficient loop.

A product whose shorter operand has at least ``rings._PACK_MIN``
coefficients is one integer product (Kronecker substitution): both operands
are packed at z = 2^(8w), multiplied once, and the product is read back slot
by slot as signed digits.  The double loop every product used to run is kept
here as ``schoolbook_product`` and is the oracle for all of them: lengths
0..70, coefficients of 0..300 bits of both signs, the zero polynomial,
constants, int operands, the sparse spreads f(z^n) that ``sigma_poly``
builds, and slot-edge coefficients +-2^b and +-(2^b - 1).  The all-equal
operands with 2^b - 1 coefficients put an output coefficient within a factor
2 of the slot bound, so a slot one bit narrower than the bound fails them.
"""

from hypothesis import example, given, settings, strategies as st

from wittzeta import rings, witt
from wittzeta.rings import IntPolynomial, ZPOLY
from wittzeta.sigma import sigma_poly
from wittzeta.witt import WittVector, witt_mul

ORACLE = settings(max_examples=300, derandomize=True, database=None, deadline=None)


def schoolbook_product(f: IntPolynomial, g: IntPolynomial) -> tuple:
    """The coefficients of f*g by the double loop over both operands, zero tail removed."""
    if f.is_zero() or g.is_zero():
        return ()
    out = [0] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, a in enumerate(f.coeffs):
        if a:
            for j, b in enumerate(g.coeffs):
                out[i + j] += a * b
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@st.composite
def coefficient_lists(draw, max_len=70, max_bits=300):
    """Coefficients of at most max_bits bits: random ones mixed with the slot edges +-2^b and
    +-(2^b - 1), or all one edge value, which pushes the product's middle coefficients to the bound."""
    n = draw(st.integers(0, max_len))
    b = draw(st.integers(0, max_bits))
    edges = [2**b, 2**b - 1, -(2**b), -(2**b - 1)]
    if draw(st.booleans()):
        return [draw(st.sampled_from(edges))] * n
    entry = st.one_of(st.integers(-(2**b), 2**b), st.sampled_from(edges + [0]))
    return draw(st.lists(entry, min_size=n, max_size=n))


polynomials = coefficient_lists().map(IntPolynomial)


def assert_product(f: IntPolynomial, g: IntPolynomial) -> None:
    want = schoolbook_product(f, g)
    for got in (f * g, g * f):
        assert got.coeffs == want
        assert not got.coeffs or got.coeffs[-1] != 0


@ORACLE
@given(f=polynomials, g=polynomials)
@example(f=IntPolynomial([2**30 - 1] * 9), g=IntPolynomial([-(2**29 - 1)] * 9))  # 64-bit slots: w = 8
@example(f=IntPolynomial([2**30 - 1] * 9), g=IntPolynomial([2**30 - 1] * 9))  # 65 bits: a 64-bit slot overflows
@example(f=IntPolynomial([2**299 - 1] * 70), g=IntPolynomial([-(2**300)] * 70))
def test_products_match_the_schoolbook_loop(f, g):
    assert_product(f, g)


@ORACLE
@given(n=st.integers(1, 64), m=st.integers(1, 64), bits=st.integers(0, 300), sign=st.sampled_from([1, -1]))
def test_all_equal_edge_coefficients_reach_the_slot_bound(n, m, bits, sign):
    f, g = IntPolynomial([2**bits - 1] * n), IntPolynomial([sign * (2**bits - 1)] * m)
    assert_product(f, g)
    assert_product(f, IntPolynomial([sign * 2**bits] * m))


@ORACLE
@given(f=polynomials, k=st.one_of(st.integers(-3, 3), st.integers(-(2**300), 2**300)))
def test_zero_constants_and_int_operands(f, k):
    zero, constant = IntPolynomial(), IntPolynomial((k,))
    assert_product(f, zero)
    assert_product(f, constant)
    assert (f * k).coeffs == (k * f).coeffs == (f * constant).coeffs
    assert (f * k == IntPolynomial()) == (k == 0 or f.is_zero())


@ORACLE
@given(f=coefficient_lists(max_len=8, max_bits=64).map(IntPolynomial), g=polynomials,
       n=st.integers(1, 12), m=st.integers(1, 12))
def test_sparse_spreads_match_the_schoolbook_loop(f, g, n, m):
    def spread(p, step):  # p(z^step), as sigma_poly builds its ghost coordinates
        out = [0] * (step * max(p.degree, 0) + 1)
        out[::step] = p.coeffs or (0,)
        return IntPolynomial(out)

    assert_product(spread(f, n), spread(g, m))
    assert_product(spread(f, n), g)
    assert (spread(f, n) ** 3).coeffs == schoolbook_product(spread(f, n), IntPolynomial(
        schoolbook_product(spread(f, n), spread(f, n))))


def test_products_from_the_cutoff_on_take_the_packed_path(monkeypatch):
    calls = []

    def counted(a, b):
        calls.append((len(a), len(b)))
        return kronecker(a, b)

    kronecker = rings._kronecker
    monkeypatch.setattr(rings, "_kronecker", counted)
    short, long = IntPolynomial(range(1, rings._PACK_MIN + 1)), IntPolynomial(range(-40, 0))
    assert_product(short, long)
    assert calls == [(rings._PACK_MIN, 40)] * 2
    calls.clear()
    assert_product(IntPolynomial(range(1, rings._PACK_MIN)), long)
    assert calls == []
    packed = []

    def counted_kernel(ghosts):
        packed.append(ghosts)
        return kernel(ghosts)

    kernel = witt._zpoly_newton
    monkeypatch.setattr(witt, "_zpoly_newton", counted_kernel)
    p = WittVector.from_coeffs(ZPOLY, [IntPolynomial((k, -k, 3)) for k in range(1, 9)])
    witt_mul(p, p)
    sigma_poly(IntPolynomial((1, -4, 6)), 8)
    assert calls == []  # the W_8(ZZ[z]) kernels multiply packed integers, no IntPolynomial
    assert len(packed) == 2  # one packed Newton recursion each


@ORACLE
@given(f=coefficient_lists(max_len=12, max_bits=40).map(IntPolynomial),
       g=coefficient_lists(max_len=6, max_bits=8).map(IntPolynomial).filter(lambda g: not g.is_zero()),
       r=coefficient_lists(max_len=5, max_bits=8).map(IntPolynomial))
def test_exact_division_undoes_the_product_and_refuses_a_remainder(f, g, r):
    assert (f * g).div_exact(g) == f
    remainder = IntPolynomial(r.coeffs[: g.degree])  # of degree below deg g
    if not remainder.is_zero():
        assert (f * g + remainder).div_exact(g) is None
