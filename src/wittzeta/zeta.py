"""Zeta functions of varieties over finite fields, as Witt vectors.

The zeta function Z(X, t) = exp(sum_r N_r t^r / r) has integer
coefficients and constant term 1, so its truncation to degree N is an
element of W_N(ZZ) whose ghost coordinates are exactly the point counts
N_1..N_N.  That makes assembly from counts a single ghost inversion
(``zeta_from_counts``, O(N^2)) and gives a second, independent construction
through the Euler product over closed points (``euler_product_zeta``);
the two must agree on any honest count table.  Every route from counts
first runs the one test of honesty, ``closed_point_degree_counts`` (from
varieties, whose enumeration oracles use it and ``euler_product`` too;
``brute_sym_count`` is that product's t^n coefficient): the closed-point
counts a_d must be nonnegative integers.  Their integrality is the
ghost-image criterion, so a table that passes inverts integrally.
``spec_zeta`` needs no table for affine and projective spaces and elliptic
curves: ``varieties.closed_expansion`` expands their ``varieties.closed_form``,
num(t) * prod_{lo<=i<=hi} 1/(1 - q^i t), in O(N) steps, and
``rational_reconstruct`` recovers num/den by Berlekamp-Massey over ZZ.

Symmetric powers are one more spec: ``sym_zeta`` is ``spec_zeta`` of
``varieties.SymPower(X, n)``, which inverts its counts.  Macdonald's formula
reads them off X's closed form by the same expansion at Q = q^r, or else the
ghost inversions of X's counts (N_r, N_2r, ..., N_nr) give them.
Applying the Witt-level sigma operation to Z(X, t), known by its counts
alone (an unrealized vector), then packages every symmetric power at once:
``zeta_generating_series`` returns sigma_u(Z) in W_M(W_N(ZZ)), whose u^n
coefficient equals Z(Sym^n X, t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import PrecisionError, ReconstructionError
from .finitefield import DEFAULT_ENUM_BUDGET
from .rings import IntPolynomial, TruncatedSeries, ZZ
from .sigma import sigma_witt
from .varieties import PointCounts, SymPower, VarietySpec, closed_expansion, closed_form, closed_point_degree_counts
from .varieties import euler_product, point_counts, sym_power_counts  # noqa: F401 (sym_power_counts is re-exported)
from .witt import GhostVector, WittVector, ghost_inverse


def zeta_from_counts(counts: PointCounts, prec: int) -> WittVector:
    """Z(X, t) to precision N: the closed-point test, then one ghost inversion."""
    if prec < 1:
        raise ValueError("precision must be at least 1")
    closed_point_degree_counts(counts, prec)
    return ghost_inverse(GhostVector(ZZ, counts.counts[:prec]))


def spec_zeta(spec: VarietySpec, prec: int, budget: int = DEFAULT_ENUM_BUDGET) -> WittVector:
    """Z(X, t) to precision N: ``closed_expansion`` of ``closed_form`` at Q = q where there is one, else
    ``zeta_from_counts``.  ``closed_form`` charges the budget for E's trace."""
    if prec < 1:
        raise ValueError("precision must be at least 1")
    if (form := closed_form(spec, budget)) is None:
        return zeta_from_counts(point_counts(spec, prec, budget), prec)
    num, lo, hi = form
    return WittVector(TruncatedSeries(ZZ, closed_expansion(num, spec.q, lo, hi, prec)))


def _prime_factors(n: int) -> list[int]:
    """The prime factors of |n| (none of 0 or 1), ascending and repeated by multiplicity: trial division by 2,
    then odd d, stops at the square root of the cofactor."""
    n, factors, d = abs(n), [], 2
    while d * d <= n:
        while n % d == 0:
            n //= d
            factors.append(d)
        d += 1 if d == 2 else 2
    return factors + [n] if n > 1 else factors


def mobius(n: int) -> int:
    """The Moebius function, by trial factorization."""
    if n < 1:
        raise ValueError("mobius is defined on positive integers")
    primes = _prime_factors(n)
    return 0 if len(set(primes)) < len(primes) else (-1) ** len(primes)


def euler_product_zeta(counts: PointCounts, prec: int) -> WittVector:
    """Z(X, t) as the Euler product over closed points of degree <= N (``varieties.euler_product``),
    with no ghost coordinates or Newton steps: an independent route to ``zeta_from_counts``'s vector."""
    if prec < 1:
        raise ValueError("precision must be at least 1")
    return WittVector(TruncatedSeries(ZZ, euler_product(closed_point_degree_counts(counts, prec), prec)))


def sym_zeta(
    spec: VarietySpec, n: int, prec: int, budget: int = DEFAULT_ENUM_BUDGET
) -> WittVector:
    """Z(Sym^n X, t) to precision N: ``spec_zeta`` of ``SymPower(X, n)``, so ``zeta_from_counts`` of its counts,
    which ``point_counts`` reads off X's closed form by Macdonald's formula, or else off X's counts to range n*N."""
    return spec_zeta(SymPower(spec, n), prec, budget)


def zeta_generating_series(
    spec: VarietySpec, outer_prec: int, inner_prec: int, budget: int = DEFAULT_ENUM_BUDGET
) -> WittVector:
    """sigma_u(Z(X, t)) in W_M(W_N(ZZ)): all symmetric powers at once.

    The u^n coefficient of the result equals Z(Sym^n X, t) to precision N
    for every n <= M.  Z(X, t) to precision M*N enters unrealized, by its
    ghosts: the counts N_1..N_MN from ``point_counts``, once they pass the
    closed-point test ``zeta_from_counts`` runs, so ``sigma_witt`` works on
    them pointwise and no series of Z is made.
    """
    if outer_prec < 1 or inner_prec < 1:
        raise ValueError("precisions must be at least 1")
    prec = outer_prec * inner_prec
    counts = point_counts(spec, prec, budget)
    closed_point_degree_counts(counts, prec)
    return sigma_witt(WittVector._of(None, GhostVector(ZZ, counts.counts[:prec])), outer_prec)


def _divisors(n: int) -> list[int]:
    """Divisors of |n| (none of 0), ascending."""
    divisors = {1} if n else set()
    for p in _prime_factors(n):
        divisors |= {x * p for x in divisors}
    return sorted(divisors)


def _linear_factors(poly: IntPolynomial) -> tuple[list[tuple[int, int]], IntPolynomial]:
    """The (c, multiplicity) of each factor (1 - c*t) of poly, for c = d, then -d, for each divisor d
    of its leading coefficient in increasing order, and the cofactor left once they are divided out.
    None are sought when |lead| exceeds 10**12, and the cofactor is then poly itself.
    """
    lead = abs(poly.leading())
    if lead > 10**12:
        return [], poly
    factors: list[tuple[int, int]] = []
    for d in _divisors(lead):
        for c in (d, -d):
            mult, factor = 0, IntPolynomial((1, -c))
            while (quotient := poly.div_exact(factor)) is not None:
                poly, mult = quotient, mult + 1
            if mult:
                factors.append((c, mult))
    return factors, poly


def _render_factors(factors: list[tuple[int, int]]) -> str:
    parts = []
    for c, mult in factors:
        if c == 1:
            base = "(1-t)"
        elif c == -1:
            base = "(1+t)"
        elif c > 0:
            base = f"(1-{c}t)"
        else:
            base = f"(1+{-c}t)"
        parts.append(base if mult == 1 else f"{base}^{mult}")
    return "".join(parts) if parts else "1"


@dataclass(frozen=True)
class RationalFunction:
    """A quotient of integer polynomials in t, both with constant term 1.

    Construction factors den once into factors (1 - c*t), c from the
    divisors of its leading coefficient (none past 10**12), and divides
    each out of num and den as often as both allow; it does not attempt a
    full gcd.  What is left of den's factors is kept, outside the fields,
    for ``display`` when they make up all of den.
    """

    num: IntPolynomial
    den: IntPolynomial

    def __post_init__(self):
        num, den = self.num, self.den
        if num.coefficient(0) != 1 or den.coefficient(0) != 1:
            raise ValueError("numerator and denominator must have constant term 1")
        factors, cofactor = _linear_factors(den)
        kept = []
        for c, mult in factors:
            factor = IntPolynomial((1, -c))
            while mult and (quotient := num.div_exact(factor)) is not None:
                num, den, mult = quotient, den.div_exact(factor), mult - 1
            if mult:
                kept.append((c, mult))
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_den_factors", kept if cofactor.coeffs == (1,) else None)

    def series(self, prec: int) -> TruncatedSeries:
        """Expand to a truncated series over the integers, in O(prec * (deg num + deg den)) steps."""
        num, den = (TruncatedSeries(ZZ, [f.coefficient(k) for k in range(prec + 1)]) for f in (self.num, self.den))
        return num * den.inverse()

    def witt(self, prec: int) -> WittVector:
        return WittVector(self.series(prec))

    def display(self) -> str | None:
        """A factored rendering, when construction split den into factors (1 - c*t)."""
        den_factors = self._den_factors
        if den_factors is None:
            return None
        num_factors, rest = _linear_factors(self.num)
        num_text = _render_factors(num_factors) if rest.coeffs == (1,) else f"({self.num.render('t')})"
        if not den_factors:
            return num_text
        den_text = _render_factors(den_factors)
        if len(den_factors) > 1 or den_factors[0][1] > 1:
            den_text = f"({den_text})"
        return f"{num_text}/{den_text}"

    def __str__(self) -> str:
        shown = self.display()
        if shown is not None:
            return shown
        return f"({self.num.render('t')})/({self.den.render('t')})"


def _shortest_recurrence(seq: Sequence[int]) -> tuple[list[int], int]:
    """Fraction-free Berlekamp-Massey: the shortest (C, L), C primitive, deg C <= L
    and sum_{i<=L} C[i]*seq[j-i] = 0 for every L <= j < len(seq).  Each update
    prev_disc*C - disc*t^shift*B is the one over Q times a nonzero integer (Bareiss),
    so C is the recurrence over Q up to scale, integral exactly when C[0] = +-1.
    """
    conn, prev, prev_disc = [1], [1], 1
    length, shift = 0, 1
    for n in range(len(seq)):
        disc = sum(c * seq[n - i] for i, c in enumerate(conn))
        if disc:
            saved, conn = conn, [prev_disc * c for c in conn] + [0] * (len(prev) + shift - len(conn))
            for i, b in enumerate(prev, shift):
                conn[i] -= disc * b
            content = math.gcd(*conn)
            conn = [c // content for c in conn]
            if 2 * length <= n:
                prev, prev_disc = saved, disc
                length, shift = n + 1 - length, 0
        shift += 1
    return conn, length


def rational_reconstruct(source: WittVector | TruncatedSeries, dmax: int) -> RationalFunction:
    """Recover num/den with degrees <= dmax from a truncated integer series.

    With precision N >= 2*dmax every fraction within the bound that matches
    c_0..c_N is the same rational function.  Its reduced denominator is the
    shortest linear recurrence of c_1..c_N (fraction-free Berlekamp-Massey),
    and it exists exactly when that recurrence has length <= dmax and
    constant term +-1; c_0 stays out, as deg num = dmax can lengthen the
    recurrence of c_0..c_N.  The numerator is the first dmax+1 coefficients
    of den*S, and the result is checked against every known coefficient.
    Needs precision >= 2*dmax and c_0 = 1; any other constant term raises
    ValueError before any work.
    """
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
    conn, length = _shortest_recurrence(series.coeffs[1:])
    if length <= dmax and abs(conn[0]) == 1:
        den = IntPolynomial([conn[0] * v for v in conn])
        den_series = TruncatedSeries(ZZ, [den.coefficient(i) for i in range(dmax + 1)])
        candidate = RationalFunction(IntPolynomial((den_series * series).coeffs), den)
        if candidate.series(prec) == series:
            return candidate
    raise ReconstructionError(
        f"no rational function with degree bound {dmax} matches to precision {prec}; "
        "raise dmax or supply more coefficients",
        required=2 * (dmax + 1),
    )
