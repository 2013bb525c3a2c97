"""Differential tests: rational reconstruction against the route it replaced.

``rational_reconstruct`` reads the denominator off the shortest linear
recurrence of c_1..c_N (Berlekamp-Massey).  The route it replaced is
kept here as an oracle: for each denominator degree k = 0..dmax in turn,
solve the recurrence the coefficients beyond degree dmax must satisfy by
Gauss-Jordan elimination over ``Fraction``, and take the first integral
solution whose re-expansion matches every coefficient.

The cases are random num/den quotients within and just beyond the degree
bound, some with a common linear factor, a constant term other than 1, one
perturbed coefficient, or no nonzero coefficient at all.  Both routes must
return the same num, den and display, or raise the same exception type
with the same message and ``required``.

Berlekamp-Massey itself runs on integers, with a primitive connection
polynomial and no division but the content.  The ``Fraction`` version it
replaced is kept as ``shortest_recurrence_over_q``; the fraction-free one
must return the same length and the same polynomial up to its constant term.

``RationalFunction`` normalisation tries (1 - c*t) for every divisor c of
the leading coefficient; ``_divisors`` lists them from a factorisation.  The
trial-division scan up to sqrt(n) it replaced is kept as its oracle.
"""

import math
from fractions import Fraction
from typing import Sequence

import pytest
from hypothesis import given, settings, strategies as st

from wittzeta.errors import PrecisionError, ReconstructionError
from wittzeta.rings import IntPolynomial, TruncatedSeries, ZZ
from wittzeta.varieties import EllipticCurve
from wittzeta.witt import WittVector
from wittzeta.zeta import RationalFunction, _divisors, _shortest_recurrence, rational_reconstruct, sym_zeta


def solve_exact(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """One exact solution of rows*x = rhs (free variables zero), or None."""
    ncols = len(rows[0]) if rows else 0
    aug = [row[:] + [b] for row, b in zip(rows, rhs)]
    pivot_rows: list[tuple[int, int]] = []
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(aug)) if aug[r][col] != 0), None)
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        inv = 1 / aug[rank][col]
        aug[rank] = [v * inv for v in aug[rank]]
        for r in range(len(aug)):
            if r != rank and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[rank])]
        pivot_rows.append((rank, col))
        rank += 1
    for r in range(rank, len(aug)):
        if aug[r][-1] != 0:
            return None
    solution = [Fraction(0)] * ncols
    for row, col in pivot_rows:
        solution[col] = aug[row][-1]
    return solution


def reconstruct_by_degree_search(
    source: WittVector | TruncatedSeries, dmax: int
) -> RationalFunction:
    """The first denominator degree 0..dmax whose recurrence has an integral fit."""
    series = source.series if isinstance(source, WittVector) else source
    if series.ring != ZZ:
        raise ValueError("rational reconstruction works over integer series")
    if series.coeffs[0] != 1:
        raise ValueError(f"rational reconstruction needs constant term 1, got {series.coeffs[0]}")
    if dmax < 0:
        raise ValueError("degree bound must be nonnegative")
    prec = series.prec
    if prec < 2 * dmax:
        raise PrecisionError(
            f"reconstruction with dmax={dmax} needs precision >= {2 * dmax}, got {prec}",
            required=2 * dmax,
        )
    c = series.coeffs
    for k in range(dmax + 1):
        rows = []
        rhs = []
        for j in range(dmax + 1, prec + 1):
            rows.append([Fraction(c[j - i]) for i in range(1, k + 1)])
            rhs.append(Fraction(-c[j]))
        if k == 0:
            solution: list[Fraction] | None = [] if all(b == 0 for b in rhs) else None
        else:
            solution = solve_exact(rows, rhs)
        if solution is None:
            continue
        if any(v.denominator != 1 for v in solution):
            continue
        den = IntPolynomial([1] + [int(v) for v in solution])
        num_coeffs = [
            sum(den.coefficient(i) * c[j - i] for i in range(0, min(j, k) + 1))
            for j in range(dmax + 1)
        ]
        candidate = RationalFunction(IntPolynomial(num_coeffs), den)
        if candidate.series(prec) == series:
            return candidate
    raise ReconstructionError(
        f"no rational function with degree bound {dmax} matches to precision {prec}; "
        "raise dmax or supply more coefficients",
        required=2 * (dmax + 1),
    )


def outcome(reconstruct, series, dmax):
    """(num, den, display) of the result, or (type, message, required) of the error."""
    try:
        rf = reconstruct(series, dmax)
    except (ValueError, PrecisionError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "required", None)
    return rf.num, rf.den, rf.display()


def assert_routes_agree(series, dmax):
    new = outcome(rational_reconstruct, series, dmax)
    assert new == outcome(reconstruct_by_degree_search, series, dmax)
    return new


def expand(num: list[int], den: list[int], prec: int) -> list[int]:
    """Coefficients 0..prec of num/den, for den with constant term 1."""
    out = []
    for j in range(prec + 1):
        acc = num[j] if j < len(num) else 0
        acc -= sum(den[i] * out[j - i] for i in range(1, min(j, len(den) - 1) + 1))
        out.append(acc)
    return out


@st.composite
def reconstruction_cases(draw):
    dmax = draw(st.integers(0, 8))
    prec = draw(st.integers(2 * dmax, 2 * dmax + 4))
    small = st.integers(-4, 4)
    num = [1] + draw(st.lists(small, max_size=dmax + 1))
    den = [1] + draw(st.lists(small, max_size=dmax + 1))
    if draw(st.booleans()):
        a = draw(st.integers(-3, 3))
        num = [x - a * y for x, y in zip(num + [0], [0] + num)]
        den = [x - a * y for x, y in zip(den + [0], [0] + den)]
    num[0] = draw(st.sampled_from([1] * 6 + [0, 2]))
    coeffs = expand(num, den, prec)
    if draw(st.booleans()):
        k = draw(st.integers(0, prec))
        coeffs[k] += draw(st.integers(-3, 3))
    # about one case in ten; hypothesis favours the bounds of a range
    if draw(st.integers(0, 9)) == 5:
        coeffs = [0] * (prec + 1)
    return TruncatedSeries(ZZ, coeffs), dmax


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(case=reconstruction_cases())
def test_shortest_recurrence_matches_the_degree_search(case):
    series, dmax = case
    assert_routes_agree(series, dmax)


def test_constant_term_kept_out_of_the_recurrence():
    # A recurrence run over c_0..c_N as well would refuse 1 + 3t at dmax=1.
    rf = assert_routes_agree(TruncatedSeries(ZZ, [1, 3, 0]), 1)
    assert rf == (IntPolynomial((1, 3)), IntPolynomial((1,)), "(1+3t)")


@pytest.mark.parametrize(
    "coeffs",
    [[2, 2, 2, 2, 2, 2, 2], [2, 1, 5, -3, 8, 0, 1], [0, 1, 3, 7, 15, 31, 63], [0, 1, 0, 4, 9, -2, 5]],
)
def test_constant_term_other_than_one_is_one_error(coeffs):
    # 2/(1-t) and t/((1-t)(1-2t)) fit a fraction at dmax=2 and the other two
    # fit none; all four get the same error, raised before any work.
    result = assert_routes_agree(TruncatedSeries(ZZ, coeffs), 2)
    assert result == ("ValueError", f"rational reconstruction needs constant term 1, got {coeffs[0]}", None)


@pytest.mark.parametrize("dmax", [12, 30])
def test_sym6_elliptic_curve_over_f5(dmax):
    z = sym_zeta(EllipticCurve(5, 1, 1), 6, 60)
    num, den, _ = assert_routes_agree(z, dmax)
    assert (num.degree, den.degree) == (12, 12)
    assert rational_reconstruct(z, dmax).witt(60) == z


def test_sym6_elliptic_curve_over_f5_below_its_degree():
    z = sym_zeta(EllipticCurve(5, 1, 1), 6, 60)
    kind, _, required = assert_routes_agree(z, 11)
    assert (kind, required) == ("ReconstructionError", 24)


def shortest_recurrence_over_q(seq: Sequence[int]) -> tuple[list[Fraction], int]:
    """Berlekamp-Massey over Q: the shortest (C, L) with C[0] = 1, deg C <= L
    and sum_{i<=L} C[i]*seq[j-i] = 0 for every L <= j < len(seq).
    """
    conn = [Fraction(1)] + [Fraction(0)] * len(seq)
    prev, prev_len, prev_disc = conn[:], 0, Fraction(1)
    length, shift = 0, 1
    for n in range(len(seq)):
        disc = sum(conn[i] * seq[n - i] for i in range(length + 1))
        if disc:
            saved, factor = conn[:], disc / prev_disc
            for i in range(prev_len + 1):
                conn[i + shift] -= factor * prev[i]
            if 2 * length <= n:
                prev, prev_len, prev_disc = saved, length, disc
                length, shift = n + 1 - length, 0
        shift += 1
    return conn[: length + 1], length


def assert_recurrences_agree(seq):
    """The integer recurrence is primitive and is the one over Q up to scale."""
    conn, length = _shortest_recurrence(seq)
    expected, expected_length = shortest_recurrence_over_q(seq)
    assert length == expected_length
    assert conn[0] != 0 and math.gcd(*conn) == 1
    assert [Fraction(c, conn[0]) for c in conn] == expected
    return conn, length


@st.composite
def recurrence_sequences(draw):
    """Zero runs, geometric sequences, and linear recurrences with values up to 10**30."""
    kind = draw(st.sampled_from(["runs", "geometric", "recurrence", "huge"]))
    size = draw(st.integers(0, 24))
    if kind == "runs":
        return [draw(st.sampled_from([0] * 3 + [1, -2, 7])) for _ in range(size)]
    if kind == "geometric":
        a, r = draw(st.integers(-10**6, 10**6)), draw(st.sampled_from([-3, -1, 2, 5, 10**9]))
        return [a * r**k for k in range(size)]
    if kind == "huge":
        return draw(st.lists(st.integers(-10**30, 10**30), max_size=size))
    # den[0]*a(n) = -sum_{i>=1} den[i]*a(n-i), run while a(n) stays integral: with
    # den[0] != +-1 the recurrence over Q is not integral, as for 4, 2, 1
    den = [draw(st.sampled_from([1, 2, 3, -4]))] + draw(st.lists(st.integers(-3, 3), min_size=1, max_size=4))
    seq = draw(st.lists(st.integers(-5, 5), min_size=len(den) - 1, max_size=len(den) - 1))
    while len(seq) < size:
        acc = -sum(c * seq[-i] for i, c in enumerate(den[1:], 1))
        if acc % den[0]:
            break
        seq.append(acc // den[0])
    return seq


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(seq=recurrence_sequences())
def test_fraction_free_recurrence_matches_the_rational_one(seq):
    assert_recurrences_agree(seq)


def test_recurrence_that_is_not_integral_is_refused():
    # 4, 2, 1 satisfies 1 - t/2 over Q: the primitive form 2 - t has conn[0] = 2.
    assert assert_recurrences_agree([4, 2, 1]) == ([2, -1], 1)
    kind, _, required = assert_routes_agree(TruncatedSeries(ZZ, [1, 4, 2, 1]), 1)
    assert (kind, required) == ("ReconstructionError", 4)


@pytest.mark.parametrize("n", range(1, 13))
def test_fraction_free_recurrence_of_sym_powers_of_an_elliptic_curve_over_f5(n):
    z = sym_zeta(EllipticCurve(5, 1, 1), n, 4 * n + 4)
    conn, length = assert_recurrences_agree(z.series.coeffs[1:])
    assert (abs(conn[0]), length) == (1, 2 * n)


def divisors_by_scan(n: int) -> list[int]:
    """Every divisor of |n|, found by testing each d up to sqrt(|n|)."""
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(n=st.one_of(st.integers(-10**7, 10**7),
                   st.builds(pow, st.sampled_from([2, 3, 5, 7, 11, 101, 9973]), st.integers(0, 9))
                   .filter(lambda n: n <= 10**12)))
def test_divisors_from_a_factorisation_match_the_scan(n):
    assert _divisors(n) == divisors_by_scan(n)


def test_divisors_of_a_prime_power_lead_stop_at_its_prime():
    assert _divisors(7**9) == [7**k for k in range(10)]
    assert _divisors(0) == divisors_by_scan(0) == []
