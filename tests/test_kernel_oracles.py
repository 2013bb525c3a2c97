"""Differential tests: the Witt kernel against the routes it replaced.

``ghost`` runs the one-pass recurrence from P*B = t*P' and
``TruncatedSeries.nth_root`` the one-pass power recurrence.  The routes they
replaced are kept here as oracles: the ghost map as the series product
t*P' * P^(-1), and the n-th root degree by degree, re-raising the partial
root to the n-th power at every step.  ``old_routes`` swaps both in, so a
computation run under it uses the old routes at every nesting level.

The cases are Witt vectors and series over ZZ, ZZ[z], W_3(ZZ) and
W_2(W_3(ZZ)); the last, at precision 2, are elements of the three-level
nesting W_2(W_2(W_3(ZZ))).  The n-th root inputs are n-fold Witt sums, half
of them with one coefficient perturbed so that many have no root; on a
non-root, both routes must raise IntegralityError with the same degree and
message.
"""

from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from wittzeta import witt
from wittzeta.errors import IntegralityError
from wittzeta.rings import IntPolynomial, TruncatedSeries, ZPOLY, ZZ
from wittzeta.witt import GhostVector, WittRing, WittVector, witt_mul, witt_scale


def ghost_by_series_quotient(p: WittVector) -> GhostVector:
    """Ghost coordinates read off from the series product t*P' * P^(-1)."""
    ring = p.ring
    numer = TruncatedSeries._make(
        ring, tuple(ring.scalar_mul(c, k) for k, c in enumerate(p.series.coeffs))
    )
    quotient = numer * p.series.inverse()
    return GhostVector(ring, quotient.coeffs[1:])


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
        attained = partial.pow_int(n).coeffs[k]
        residual = ring.sub(self.coeffs[k], attained)
        try:
            root.append(ring.divide_exact(residual, n))
        except IntegralityError as exc:
            raise IntegralityError(
                f"series has no exact {n}-th root: failure at degree {k}", degree=k
            ) from exc
    return TruncatedSeries._make(ring, tuple(root))


@contextmanager
def old_routes():
    saved = witt.ghost, TruncatedSeries.nth_root
    witt.ghost, TruncatedSeries.nth_root = ghost_by_series_quotient, nth_root_by_powering
    try:
        yield
    finally:
        witt.ghost, TruncatedSeries.nth_root = saved


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
    new, old = on_both_routes(lambda: witt_mul(p, q).coeffs)
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

