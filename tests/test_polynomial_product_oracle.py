"""Differential tests: ``IntPolynomial`` products against the schoolbook loop.

Every product of two polynomials is one coefficient loop that skips the zero
terms of its shorter operand, its zero tail trimmed.  The double loop over both
operands is kept here as ``schoolbook_product`` and is the oracle: lengths
0..70, coefficients of 0..300 bits of both signs, the zero polynomial,
constants, int operands, the sparse spreads f(z^n) that ``sigma_poly`` builds,
and the edge coefficients +-2^b and +-(2^b - 1), all-equal ones among them.
The W_N(ZZ[z]) recurrences multiply no polynomials: ``ghost`` and
``ghost_inverse`` run the ZZ kernels on coefficients packed at z = 2^(8w), and
a probe checks that they, ``witt_mul`` and ``sigma_poly`` make no ring-handle
sum (``_conv``) over ZZ[z].

``div_exact`` is textbook long division, one pass from the top degree.  The
loop it replaced, which re-trims and rescans its remainder on every step, is
kept here as ``retrimming_division`` and is the oracle for the quotient or None:
zero dividends, divisors longer than the dividend, non-monic divisors and
negative leading coefficients, exact products f*g and f*g plus a remainder,
and coefficients of up to 200 bits.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from wittzeta import rings, witt
from wittzeta.rings import IntPolynomial, ZPOLY
from wittzeta.sigma import sigma_poly
from wittzeta.witt import WittVector, ghost, ghost_inverse, witt_add, witt_mul

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
@example(f=IntPolynomial([2**30 - 1] * 9), g=IntPolynomial([-(2**29 - 1)] * 9))  # a product coefficient of 63 bits
@example(f=IntPolynomial([2**30 - 1] * 9), g=IntPolynomial([2**30 - 1] * 9))  # and of 64 bits
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


def test_witt_kernels_over_zz_z_run_packed_with_no_ring_handle_sum(monkeypatch):
    """W_8(ZZ[z]) witt_mul, ghost, ghost_inverse and sigma_poly make no ``_conv`` sum over ZZ[z]: each ghost map
    and each Newton recursion is two int kernel runs, one on 1-norms and one on packed coefficients."""
    conv_rings, kernel_runs = [], []
    conv, ghost_ints, newton_ints = rings._conv, witt._ghost_ints, witt._newton_ints

    def counted_conv(ring, *args):
        conv_rings.append(ring)
        return conv(ring, *args)

    def counted(name, kernel):
        def run(a):
            kernel_runs.append(name)
            return kernel(a)
        return run

    for module in (rings, witt):
        monkeypatch.setattr(module, "_conv", counted_conv)
    monkeypatch.setattr(witt, "_ghost_ints", counted("ghost", ghost_ints))
    monkeypatch.setattr(witt, "_newton_ints", counted("newton", newton_ints))
    p = WittVector.from_coeffs(ZPOLY, [IntPolynomial((k, -k, 3)) for k in range(1, 9)])
    witt_add(p, p)
    assert ZPOLY in conv_rings  # the series product over ZZ[z] runs _conv, so the probe sees it
    conv_rings.clear()
    witt_mul(p, p)
    assert ghost_inverse(ghost(p)) == p
    sigma_poly(IntPolynomial((1, -4, 6)), 8)
    assert ZPOLY not in conv_rings
    assert sorted(kernel_runs) == ["ghost"] * 6 + ["newton"] * 6


@ORACLE
@given(f=coefficient_lists(max_len=12, max_bits=40).map(IntPolynomial),
       g=coefficient_lists(max_len=6, max_bits=8).map(IntPolynomial).filter(lambda g: not g.is_zero()),
       r=coefficient_lists(max_len=5, max_bits=8).map(IntPolynomial))
def test_exact_division_undoes_the_product_and_refuses_a_remainder(f, g, r):
    assert (f * g).div_exact(g) == f
    remainder = IntPolynomial(r.coeffs[: g.degree])  # of degree below deg g
    if not remainder.is_zero():
        assert (f * g + remainder).div_exact(g) is None


def retrimming_division(f: IntPolynomial, g: IntPolynomial) -> "IntPolynomial | None":
    """f/g over the integers, or None, as ``div_exact`` computed it before: the remainder's zero tail
    popped and the whole remainder rescanned on every step."""
    rem = list(f.coeffs)
    quot = [0] * max(len(rem) - len(g.coeffs) + 1, 0)
    lead = g.leading()
    while len(rem) >= len(g.coeffs) and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) < len(g.coeffs):
            break
        shift = len(rem) - len(g.coeffs)
        q, r = divmod(rem[-1], lead)
        if r:
            return None
        quot[shift] = q
        for i, c in enumerate(g.coeffs):
            rem[shift + i] -= q * c
    if any(rem):
        return None
    return IntPolynomial(quot)


def assert_division(f: IntPolynomial, g: IntPolynomial) -> "IntPolynomial | None":
    want, got = retrimming_division(f, g), f.div_exact(g)
    assert (got is None) == (want is None)
    assert got is None or got.coeffs == want.coeffs
    return got


divisors = coefficient_lists(max_len=9, max_bits=200).map(IntPolynomial).filter(lambda g: not g.is_zero())


@ORACLE
@given(f=coefficient_lists(max_len=14, max_bits=200).map(IntPolynomial), g=divisors,
       r=coefficient_lists(max_len=9, max_bits=200).map(IntPolynomial))
@example(f=IntPolynomial(), g=IntPolynomial((5, -3)), r=IntPolynomial())  # a zero dividend
@example(f=IntPolynomial((1, 2)), g=IntPolynomial((1, 0, 0, 7)), r=IntPolynomial((4,)))  # a longer divisor
@example(f=IntPolynomial((3, 0, -6)), g=IntPolynomial((2, -4)), r=IntPolynomial((1,)))  # negative leading term
@example(f=IntPolynomial((7,)), g=IntPolynomial((-(2**200),)), r=IntPolynomial((2**199,)))  # a constant divisor
def test_long_division_matches_the_retrimming_loop(f, g, r):
    assert assert_division(f * g, g) == f
    remainder = IntPolynomial(r.coeffs[: g.degree])  # of degree below deg g
    if not remainder.is_zero():
        assert assert_division(f * g + remainder, g) is None
    assert_division(f * g + r, g)
    assert_division(f, g)
    assert_division(r, g)


def test_division_by_the_zero_polynomial_raises():
    for f in (IntPolynomial(), IntPolynomial((1, 2))):
        with pytest.raises(ZeroDivisionError):
            f.div_exact(IntPolynomial())
