"""Differential tests: the one Euler product over closed points against the two routes it replaced.

``varieties.euler_product`` expands each factor (1 - t^d)^(-a_d) as
(1 - t)^(-a_d) to degree prec // d and multiplies it in at the terms t^(dk).
Its oracles are the two routes that computed the same product before:
``multiset_counts``, the loop ``brute_sym_count`` ran, which counts
multisets of closed points by sum_k C(a_d+k-1, k) with ``math.comb``, and
``full_length_factor_product``, the route ``euler_product_zeta`` ran, which
raised the full-length series 1 - t^d to the power -a_d.  The closed-point
vectors hold zeros, ones (``pow_int(-1)`` takes the inverse) and a_d up to
q^d/d for q <= 10^4, at precisions up to 40.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

import wittzeta.varieties as varieties
from wittzeta.errors import SpecError
from wittzeta.rings import ZZ, TruncatedSeries
from wittzeta.varieties import (
    CountsSpec,
    EllipticCurve,
    EquationsSpec,
    base_change,
    brute_sym_count,
    closed_point_degree_counts,
    euler_product,
    point_counts,
)
from wittzeta.zeta import euler_product_zeta, zeta_from_counts


def multiset_counts(closed, n):
    """ways[m], the multisets of closed points of total degree m <= n, one degree at a time."""
    ways = [1] + [0] * n
    for d, c in enumerate(closed[:n], start=1):
        ways = [sum(math.comb(c + k - 1, k) * ways[m - d * k] for k in range(m // d + 1)) if c else ways[m]
                for m in range(n + 1)]
    return ways


def full_length_factor_product(closed, prec):
    """The product with every factor (1 - t^d)^(-a_d) raised as a series of full length prec."""
    series = [1] + [0] * prec
    for d, a_d in enumerate(closed[:prec], start=1):
        if a_d == 0:
            continue
        factor = [1] + [0] * prec
        factor[d] = -1
        f = TruncatedSeries(ZZ, factor).pow_int(-a_d).coeffs
        for k in range(prec, d - 1, -1):
            series[k] += sum(f[j] * series[k - j] for j in range(d, k + 1, d))
    return series


@st.composite
def closed_point_vectors(draw):
    prec, q = draw(st.integers(0, 40)), draw(st.integers(2, 10**4))
    degree = st.one_of(st.just(0), st.just(1), st.integers(0, 3), st.integers(0, q))
    closed = [draw(st.one_of(degree, st.integers(0, q**d // d))) for d in range(1, prec + 1)]
    return closed, prec


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(closed_point_vectors())
def test_euler_product_matches_both_routes_it_replaced(case):
    closed, prec = case
    product = euler_product(closed, prec)
    assert len(product) == prec + 1
    for k, (c, ways, full) in enumerate(zip(product, multiset_counts(closed, prec),
                                            full_length_factor_product(closed, prec))):
        assert c == ways == full, k


def test_euler_product_reads_only_the_degrees_up_to_prec():
    assert euler_product([3, 5, 7, 11], 2) == euler_product([3, 5], 2) == multiset_counts([3, 5], 2)
    assert euler_product([], 0) == [1]


def test_euler_product_expands_each_factor_only_to_degree_prec_over_d(monkeypatch):
    lengths = []
    pow_int = TruncatedSeries.pow_int

    def recorded(self, e):
        lengths.append(self.prec)
        return pow_int(self, e)

    monkeypatch.setattr(TruncatedSeries, "pow_int", recorded)
    euler_product([2, 0, 1, 5, 9, 1], 12)
    assert lengths == [12, 4, 3, 2, 2]  # degrees 1, 3, 4, 5, 6; degree 2 has no closed point


def test_euler_product_zeta_matches_the_full_length_route_and_the_ghost_route():
    counts = point_counts(EllipticCurve(101, 2, 3), 16)
    closed = closed_point_degree_counts(counts, 16)
    z = euler_product_zeta(counts, 16)
    assert list(z.coeffs) == full_length_factor_product(closed, 16)[1:]
    assert z == zeta_from_counts(counts, 16)


SPECS = {
    "E/F_5": EllipticCurve(5, 1, 1),
    "E/F_7": EllipticCurve(7, 1, 3),
    "y^2+y=x^3+x/F_2": EquationsSpec.from_strings(2, ("x", "y"), ("y^2 + y - x^3 - x",)),
}


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("name", SPECS)
def test_brute_sym_count_matches_the_multiset_loop(name, r):
    spec = SPECS[name]
    # the oracle's closed points come from the counts route, not from enumeration
    ways = multiset_counts(closed_point_degree_counts(base_change(point_counts(spec, 4 * r), r), 4), 4)
    for n in range(5):
        if spec.q ** (n * r) <= 5**8:  # E/F_7 at n = 4, r = 2 would enumerate F_(7^8), about 17 s
            assert brute_sym_count(spec, n, r) == ways[n], n


@pytest.mark.parametrize("n", [-1, -5])
def test_negative_power_raises_before_any_field_is_built(n, monkeypatch):
    def no_field(*args):
        raise AssertionError("built a field for a negative symmetric power")

    monkeypatch.setattr(varieties, "FiniteField", no_field)
    with pytest.raises(ValueError, match="symmetric power index must be nonnegative"):
        brute_sym_count(SPECS["E/F_5"], n, 1)


@pytest.mark.parametrize("n", [0, 2])
def test_counts_spec_is_refused_by_brute_sym_count(n):
    with pytest.raises(SpecError, match="brute-force enumeration needs an elliptic or equations spec"):
        brute_sym_count(CountsSpec(4, (5, 21)), n, 1)
