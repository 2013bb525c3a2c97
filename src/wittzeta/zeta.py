"""Zeta functions of varieties over finite fields, as Witt vectors.

The zeta function Z(X, t) = exp(sum_r N_r t^r / r) has integer
coefficients and constant term 1, so its truncation to degree N is an
element of W_N(ZZ) whose ghost coordinates are exactly the point counts
N_1..N_N.  That makes assembly from counts a single ghost inversion
(``zeta_from_counts``, O(N^2)) and gives a second, independent construction
through the Euler product over closed points (``euler_product_zeta``);
the two must agree on any honest count table.  Every route from counts
first runs the one test of honesty, ``closed_point_degree_counts``: the
closed-point counts a_d must be nonnegative integers.  Their integrality
is the ghost-image criterion, so a table that passes inverts integrally.
``spec_zeta`` needs no table for affine and projective spaces and elliptic
curves: it expands num(t) * prod_{lo<=i<=hi} 1/(1 - q^i t) in O(N) steps, and
``rational_reconstruct`` recovers num/den by Berlekamp-Massey over ZZ.

Symmetric powers ride on the same recursion: the r-th count of Sym^n X is
the degree-n series coefficient obtained by ghost-inverting the subsampled
counts (N_r, N_2r, ..., N_nr).  Applying the Witt-level sigma operation to
Z(X, t) then packages every symmetric power at once:
``zeta_generating_series`` returns sigma_u(Z) in W_M(W_N(ZZ)), whose u^n
coefficient equals Z(Sym^n X, t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import InconsistentCountsError, PrecisionError, ReconstructionError
from .finitefield import DEFAULT_ENUM_BUDGET
from .rings import IntPolynomial, TruncatedSeries, ZZ
from .sigma import sigma_witt
from .varieties import AffineSpace, EllipticCurve, PointCounts, ProjectiveSpace, VarietySpec, point_counts
from .witt import GhostVector, WittVector, ghost_inverse, witt_one


def zeta_from_counts(counts: PointCounts, prec: int) -> WittVector:
    """Z(X, t) to precision N: the closed-point test, then one ghost inversion."""
    if prec < 1:
        raise ValueError("precision must be at least 1")
    if counts.range < prec:
        raise PrecisionError(
            f"zeta to precision {prec} needs counts N_1..N_{prec}, got range {counts.range}",
            required=prec,
        )
    closed_point_degree_counts(counts, prec)
    return ghost_inverse(GhostVector(ZZ, counts.counts[:prec]))


def spec_zeta(spec: VarietySpec, prec: int, budget: int = DEFAULT_ENUM_BUDGET) -> WittVector:
    """Z(X, t) to precision N; closed form for A^d, P^d and E, else ``zeta_from_counts``.

    Z = num(t) * prod_{lo<=i<=hi} 1/(1 - q^i t).  One or two factors (A^d, P^0, P^1, E)
    go into num one at a time, h_k += q^i h_(k-1), with no division; P^d, d >= 2, has
    [d+k choose k]_q = g_k = g_(k-1) (q^(d+k) - 1) / (q^k - 1) at t^k (lo = 0).
    E's num = 1 - a*t + p*t^2 takes a = p + 1 - N_1 from ``point_counts``,
    which charges the budget and checks the Hasse bound."""
    if prec < 1:
        raise ValueError("precision must be at least 1")
    if isinstance(spec, AffineSpace):
        lo, hi, num = spec.dim, spec.dim, (1,)
    elif isinstance(spec, ProjectiveSpace):
        lo, hi, num = 0, spec.dim, (1,)
    elif isinstance(spec, EllipticCurve):
        lo, hi, num = 0, 1, (1, point_counts(spec, 1, budget).counts[0] - spec.p - 1, spec.p)
    else:
        return zeta_from_counts(point_counts(spec, prec, budget), prec)
    q, h = spec.q, (list(num) + [0] * prec)[: prec + 1]
    if hi - lo <= 1:
        for c in (q**i for i in range(lo, hi + 1)):
            for k in range(1, prec + 1):
                h[k] += c * h[k - 1]
    else:
        for k in range(1, prec + 1):
            h[k] = h[k - 1] * (q ** (hi + k) - 1) // (q**k - 1)
    return WittVector(TruncatedSeries(ZZ, h))


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
    """Closed points a_1..a_dmax of each degree: the one test of a count table.

    N_m = sum_{d | m} d*a_d, so one forward pass subtracts each d*a_d from
    N_m for every multiple m of d, in O(N log N) steps; the first degree whose
    a_d is not a nonnegative integer raises InconsistentCountsError."""
    if counts.range < dmax:
        raise PrecisionError(
            f"degree-{dmax} closed points need counts to range {dmax}, got {counts.range}",
            required=dmax,
        )
    rest = list(counts.counts[:dmax])  # rest[d-1] is d*a_d once the pass reaches d
    for d in range(1, dmax + 1):
        if rest[d - 1] % d or rest[d - 1] < 0:
            raise InconsistentCountsError(
                f"counts admit no consistent closed-point count in degree {d}", degree=d
            )
        for m in range(2 * d, dmax + 1, d):
            rest[m - 1] -= rest[d - 1]
    return tuple(rest[d - 1] // d for d in range(1, dmax + 1))


def euler_product_zeta(counts: PointCounts, prec: int) -> WittVector:
    """Z(X, t) as the Euler product over closed points of degree <= N.

    Each factor (1 - t^d)^(-a_d) = sum_k C(a_d+k-1, k) t^(dk) comes from the
    power recurrence of ``pow_int`` in O(N) steps for any a_d ~ q^d/d and is
    multiplied in over its terms t^(dk) only; no ghost coordinates or Newton
    steps are involved: an independent route to ``zeta_from_counts``'s vector.
    """
    if prec < 1:
        raise ValueError("precision must be at least 1")
    series = [1] + [0] * prec
    for d, a_d in enumerate(closed_point_degree_counts(counts, prec), start=1):
        if a_d == 0:
            continue
        factor = [1] + [0] * prec
        factor[d] = -1
        f = TruncatedSeries(ZZ, factor).pow_int(-a_d).coeffs
        for k in range(prec, d - 1, -1):
            series[k] += sum(f[j] * series[k - j] for j in range(d, k + 1, d))
    return WittVector(TruncatedSeries(ZZ, series))


def sym_power_counts(counts: PointCounts, n: int, rmax: int) -> PointCounts:
    """Point counts of Sym^n X over F_{q^r} for r = 1..rmax.

    The r-th count is the degree-n coefficient of Z(X/F_{q^r}, t), read
    off by ghost-inverting the subsampled counts (N_r, N_2r, ..., N_nr);
    it therefore needs the counts of X out to range n*rmax, which pass
    the closed-point test first.
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
    closed_point_degree_counts(counts, n * rmax)
    subsamples = (counts.counts[r - 1 : n * r : r] for r in range(1, rmax + 1))
    return PointCounts(counts.q, tuple(ghost_inverse(GhostVector(ZZ, sub)).coefficient(n) for sub in subsamples))


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
    for every n <= M.  Z(X, t) to precision M*N comes from ``spec_zeta``.
    """
    if outer_prec < 1 or inner_prec < 1:
        raise ValueError("precisions must be at least 1")
    return sigma_witt(spec_zeta(spec, outer_prec * inner_prec, budget), outer_prec)


def _divisors(n: int) -> list[int]:
    """Divisors of |n| (none of 0), ascending; dividing out 2 and odd d stops at sqrt of the cofactor."""
    n = abs(n)
    divisors, d = [1] if n else [], 2
    while d * d <= n:
        power = divisors
        while n % d == 0:
            n //= d
            power = [x * d for x in power]
            divisors = divisors + power
        d += 1 if d == 2 else 2
    if n > 1:
        divisors += [x * n for x in divisors]
    return sorted(divisors)


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
