"""sigma_poly by its ghost vector against the Teichmueller-power route it replaced.

``sigma_poly(f, N)`` is the ghost inversion of f(z), f(z^2), ..., f(z^N).  The
oracle is the route it replaced (``sigma_poly_by_teichmuller_powers``): the
Witt sum, over the monomials c*z^i of f, of c copies of the Teichmueller lift
[z^i], each a power of the series 1/(1 - z^i t).  The differential tests draw
f of degree <= 8 with coefficients in [-1000, 1000] (the zero polynomial and
constants included) and N in 1..16, and Betti vectors for
``macdonald_poincare``.
"""
from hypothesis import example, given, settings, strategies as st

import wittzeta.witt as witt
from wittzeta.rings import IntPolynomial, ZPOLY
from wittzeta.sigma import macdonald_poincare, sigma_poly
from wittzeta.witt import WittVector, ghost, teichmuller, witt_add, witt_scale, witt_zero


def sigma_poly_by_teichmuller_powers(f: IntPolynomial | int, prec: int) -> WittVector:
    """sigma_t(f) = f([z]) over ZZ[z]: the product of (1 - z^i t)^(-c_i).

    Teichmueller lifts are multiplicative, so evaluating f on [z] is the
    Witt sum over monomials of c_i copies of [z^i].
    """
    f = ZPOLY.check(f)
    acc = witt_zero(ZPOLY, prec)
    for i, c in enumerate(f.coeffs):
        if c == 0:
            continue
        lift = teichmuller(IntPolynomial.variable(i), prec, ZPOLY)
        acc = witt_add(acc, witt_scale(lift, c))
    return acc


coefficients = st.integers(-1000, 1000)
polynomials = st.one_of(
    st.just(IntPolynomial()),
    coefficients.map(IntPolynomial.constant),
    st.lists(coefficients, min_size=1, max_size=9).map(IntPolynomial),
)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(f=polynomials, prec=st.integers(1, 16))
@example(f=IntPolynomial(), prec=1)
@example(f=IntPolynomial.constant(-1000), prec=16)
@example(f=IntPolynomial([-1000, 1000] * 4 + [-1000]), prec=16)
def test_sigma_poly_equals_the_teichmuller_power_route(f, prec):
    s = sigma_poly(f, prec)
    assert s.prec == prec
    assert s.series.coeffs == sigma_poly_by_teichmuller_powers(f, prec).series.coeffs


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(betti=st.lists(st.integers(0, 1000), min_size=1, max_size=9), prec=st.integers(1, 16))
@example(betti=[1], prec=1)
@example(betti=[1, 0, 0, 0, 0, 0, 0, 0, 1000], prec=16)
def test_macdonald_poincare_equals_the_teichmuller_power_route(betti, prec):
    signed = IntPolynomial(-b if i & 1 else b for i, b in enumerate(betti))
    m = macdonald_poincare(betti, prec)
    assert m.series.coeffs == sigma_poly_by_teichmuller_powers(signed, prec).series.coeffs


def test_ghost_of_sigma_poly_runs_no_ghost_map(monkeypatch):
    f = IntPolynomial((3, -1, 0, 2))
    s = sigma_poly(f, 6)
    calls = []
    kernel = witt._ghost_ints  # the ZZ[z] ghost map runs it on packed coefficients

    def counting_kernel(a):
        calls.append(len(a))
        return kernel(a)

    monkeypatch.setattr(witt, "_ghost_ints", counting_kernel)
    g = ghost(s)
    assert calls == []
    for n in range(1, 7):  # f(z^n) = 3 - z^n + 2 z^(3n)
        assert g.coord(n) == 3 - IntPolynomial.variable(n) + 2 * IntPolynomial.variable(3 * n)
    # a copy without carried ghosts runs the recurrence, so the counter does see ghost maps
    ghost(WittVector(s.series))
    assert calls
