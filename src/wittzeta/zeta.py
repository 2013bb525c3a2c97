"""Zeta functions of varieties over finite fields, as Witt vectors.

The zeta function Z(X, t) = exp(sum_r N_r t^r / r) has integer
coefficients and constant term 1, so its truncation to degree N is an
element of W_N(ZZ) whose ghost coordinates are exactly the point counts
N_1..N_N.  That makes assembly a single ghost inversion
(``zeta_from_counts``) and gives a second, independent construction
through the Euler product over closed points (``euler_product_zeta``);
the two must agree on any honest count table.

Symmetric powers ride on the same recursion: the r-th count of Sym^n X is
the degree-n series coefficient obtained by ghost-inverting the subsampled
counts (N_r, N_2r, ..., N_nr).  Applying the Witt-level sigma operation to
Z(X, t) then packages every symmetric power at once:
``zeta_generating_series`` returns sigma_u(Z) in W_M(W_N(ZZ)), whose u^n
coefficient equals Z(Sym^n X, t).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    InconsistentCountsError,
    IntegralityError,
    PrecisionError,
    ReconstructionError,
)
from .finitefield import DEFAULT_ENUM_BUDGET
from .rings import IntPolynomial, TruncatedSeries, ZZ
from .sigma import sigma_witt
from .varieties import PointCounts, VarietySpec, point_counts
from .witt import GhostVector, WittVector, ghost_inverse, witt_one


def zeta_from_counts(counts: PointCounts, prec: int) -> WittVector:
    """Z(X, t) to precision N, by ghost-inverting the count table."""
    if prec < 1:
        raise ValueError("precision must be at least 1")
    if counts.range < prec:
        raise PrecisionError(
            f"zeta to precision {prec} needs counts N_1..N_{prec}, got range {counts.range}",
            required=prec,
        )
    try:
        zeta = ghost_inverse(GhostVector(ZZ, counts.counts[:prec]))
    except IntegralityError as exc:
        raise InconsistentCountsError(
            f"counts are not the point counts of a variety: {exc}", degree=exc.degree
        ) from exc
    closed_point_degree_counts(counts, prec)
    return zeta


def mobius(n: int) -> int:
    """The Moebius function, by trial factorization."""
    if n < 1:
        raise ValueError("mobius is defined on positive integers")
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def closed_point_degree_counts(counts: PointCounts, dmax: int) -> tuple[int, ...]:
    """Closed points of each degree 1..dmax, by Moebius inversion of N_r."""
    if counts.range < dmax:
        raise PrecisionError(
            f"degree-{dmax} closed points need counts to range {dmax}, got {counts.range}",
            required=dmax,
        )
    out = []
    for d in range(1, dmax + 1):
        total = sum(mobius(e) * counts.count(d // e) for e in range(1, d + 1) if d % e == 0)
        a_d, rem = divmod(total, d)
        if rem or a_d < 0:
            raise InconsistentCountsError(
                f"counts admit no consistent closed-point count in degree {d}", degree=d
            )
        out.append(a_d)
    return tuple(out)


def euler_product_zeta(counts: PointCounts, prec: int) -> WittVector:
    """Z(X, t) as the Euler product over closed points of degree <= N.

    Expands prod_d (1 - t^d)^(-a_d) with plain series arithmetic; no ghost
    coordinates or Newton steps are involved, so this is an independent
    route to the same Witt vector as ``zeta_from_counts``.
    """
    if prec < 1:
        raise ValueError("precision must be at least 1")
    degree_counts = closed_point_degree_counts(counts, prec)
    series = TruncatedSeries.one(ZZ, prec)
    for d in range(1, prec + 1):
        a_d = degree_counts[d - 1]
        if a_d == 0:
            continue
        factor = [0] * (prec + 1)
        factor[0] = 1
        factor[d] = -1
        series = series * TruncatedSeries(ZZ, factor).pow_int(-a_d)
    return WittVector(series)


def sym_power_counts(counts: PointCounts, n: int, rmax: int) -> PointCounts:
    """Point counts of Sym^n X over F_{q^r} for r = 1..rmax.

    The r-th count is the degree-n coefficient of Z(X/F_{q^r}, t), read
    off by ghost-inverting the subsampled counts (N_r, N_2r, ..., N_nr);
    it therefore needs the counts of X out to range n*rmax.
    """
    if n < 0:
        raise ValueError("symmetric power index must be nonnegative")
    if rmax < 1:
        raise ValueError("count range must be at least 1")
    if n == 0:
        return PointCounts(counts.q, (1,) * rmax)
    if counts.range < n * rmax:
        raise PrecisionError(
            f"Sym^{n} counts to range {rmax} need input range {n * rmax}, got {counts.range}",
            required=n * rmax,
        )
    out = []
    for r in range(1, rmax + 1):
        sub = tuple(counts.count(r * j) for j in range(1, n + 1))
        try:
            w = ghost_inverse(GhostVector(ZZ, sub))
        except IntegralityError as exc:
            raise InconsistentCountsError(
                f"counts are inconsistent at Sym^{n}, r={r}: {exc}", degree=exc.degree
            ) from exc
        out.append(w.coefficient(n))
    closed_point_degree_counts(counts, n * rmax)
    return PointCounts(counts.q, tuple(out))


def sym_zeta(
    spec: VarietySpec, n: int, prec: int, budget: int = DEFAULT_ENUM_BUDGET
) -> WittVector:
    """Z(Sym^n X, t) to precision N; consumes counts of X to range n*N."""
    if n < 0:
        raise ValueError("symmetric power index must be nonnegative")
    if prec < 1:
        raise ValueError("precision must be at least 1")
    if n == 0:
        return witt_one(ZZ, prec)
    counts = point_counts(spec, n * prec, budget)
    return zeta_from_counts(sym_power_counts(counts, n, prec), prec)


def zeta_generating_series(
    spec: VarietySpec, outer_prec: int, inner_prec: int, budget: int = DEFAULT_ENUM_BUDGET
) -> WittVector:
    """sigma_u(Z(X, t)) in W_M(W_N(ZZ)): all symmetric powers at once.

    The u^n coefficient of the result equals Z(Sym^n X, t) to precision N
    for every n <= M.  Consumes counts of X out to range M*N.
    """
    if outer_prec < 1 or inner_prec < 1:
        raise ValueError("precisions must be at least 1")
    total = outer_prec * inner_prec
    counts = point_counts(spec, total, budget)
    return sigma_witt(zeta_from_counts(counts, total), outer_prec)


def _divisors(n: int) -> list[int]:
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


def _divide_out_linear(
    polys: tuple[IntPolynomial, ...], lead: int
) -> tuple[tuple[IntPolynomial, ...], list[tuple[int, int]]] | None:
    """Divide common factors (1 - c*t) out of polys, for c = d, -d and each
    divisor d of lead in increasing order, as often as every poly allows.

    Returns the quotients and the (c, multiplicity) pairs removed, or None
    when |lead| exceeds 10**12 and the search is not attempted.
    """
    lead = abs(lead)
    if lead > 10**12:
        return None
    factors: list[tuple[int, int]] = []
    for c in _divisors(lead):
        for signed in (c, -c):
            mult = 0
            factor = IntPolynomial((1, -signed))
            while True:
                quotients = tuple(p.div_exact(factor) for p in polys)
                if None in quotients:
                    break
                polys = quotients
                mult += 1
            if mult:
                factors.append((signed, mult))
    return polys, factors


def _factor_reciprocal_roots(poly: IntPolynomial) -> list[tuple[int, int]] | None:
    """Write poly as a product of (1 - c*t) factors, or None if it is not one."""
    found = _divide_out_linear((poly,), poly.leading())
    if found is None:
        return None
    (rest,), factors = found
    if rest != IntPolynomial((1,)):
        return None
    return factors


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

    Construction strips common linear factors found by integer-root
    inspection (best effort); it does not attempt a full gcd.
    """

    num: IntPolynomial
    den: IntPolynomial

    def __post_init__(self):
        num, den = self.num, self.den
        if num.coefficient(0) != 1 or den.coefficient(0) != 1:
            raise ValueError("numerator and denominator must have constant term 1")
        found = _divide_out_linear((num, den), den.leading())
        if found is not None:
            (num, den), _ = found
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def series(self, prec: int) -> TruncatedSeries:
        """Expand to a truncated series over the integers."""
        num_padded = [self.num.coefficient(k) for k in range(prec + 1)]
        den_padded = [self.den.coefficient(k) for k in range(prec + 1)]
        return TruncatedSeries(ZZ, num_padded) * TruncatedSeries(ZZ, den_padded).inverse()

    def witt(self, prec: int) -> WittVector:
        return WittVector(self.series(prec))

    def display(self) -> str | None:
        """A factored rendering, when every denominator root is 1/integer."""
        den_factors = _factor_reciprocal_roots(self.den)
        if den_factors is None:
            return None
        num_factors = _factor_reciprocal_roots(self.num)
        if num_factors is not None:
            num_text = _render_factors(num_factors)
        else:
            num_text = f"({self.num.render('t')})"
        if self.den.degree == 0:
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


def _solve_exact(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
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


def rational_reconstruct(source: WittVector | TruncatedSeries, dmax: int) -> RationalFunction:
    """Recover num/den with degrees <= dmax from a truncated integer series.

    Searches denominator degrees 0..dmax in increasing order, solving the
    linear recurrence the series coefficients must satisfy beyond degree
    dmax; the first denominator that fits (with integer coefficients, ties
    broken by zeroing free variables) wins, and the result is re-expanded
    and checked against every known coefficient.  Needs at least 2*dmax+1
    coefficients, i.e. precision >= 2*dmax.
    """
    series = source.series if isinstance(source, WittVector) else source
    if series.ring != ZZ:
        raise ValueError("rational reconstruction works over integer series")
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
            solution = _solve_exact(rows, rhs)
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
