"""Variety descriptions over finite fields and exact point counting.

Every spec answers "how many points over F_{q^r}" exactly: affine and
projective spaces and elliptic curves from their one ``closed_form``
num(t) / prod_{lo<=i<=hi} (1 - q^i t), products pointwise, equation systems
by the fibres' root counts in finitefield (budget-guarded), and
user-supplied count tables verbatim.  An elliptic num needs the trace over
F_p: up to p = 229 from the affine points counted over F_p, above it from a
baby-step giant-step search on the twists of E by the values f(x), which
stops only when one value of #E is left in the Hasse interval, so it is
exact; Mestre's theorem makes it stop.  One ``closed_expansion`` of the form
gives Z(X, t) at Q = q and, by Macdonald's formula, N_r(Sym^n X) as its u^n
coefficient at Q = q^r; any other ``SymPower(X, n)`` ghost-inverts X's counts.

The module also hosts the enumeration oracle for symmetric powers: count
the points over F_{q^{rd}} for d = 1..dmax (an elliptic curve by the parity
of log f(x) off the field's exp/log/Zech tables, no point listed; an
equation system as its fibre walk yields them), read the closed points of
each degree d off those counts by one divisor pass, N_m = sum_{d | m} d*a_d
(``closed_point_degree_counts``, also the zeta layer's test of a count
table), then take #Sym^n as the t^n coefficient of their Euler product
(``euler_product``).  That route never touches ghost coordinates or
Newton inversion, so it can sit on the other side of an equality test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence, Union, get_args

from .errors import InconsistentCountsError, PrecisionError, SpecError
from .finitefield import (
    DEFAULT_ENUM_BUDGET,
    FiniteField,
    MultiPoly,
    _charge_budget,
    _frobenius_orbits,
    count_affine_points,
    is_prime,
    iter_affine_solutions,
    parse_polynomial,
    prime_power_decompose,
)
from .rings import ZZ, binary_power
from .sigma import sigma_int
from .witt import GhostVector, ghost_inverse

Point = tuple[int, ...]


@dataclass(frozen=True)
class AffineSpace:
    """Affine m-space over F_q."""

    dim: int
    q: int

    def __post_init__(self):
        if self.dim < 0:
            raise SpecError("affine dimension must be nonnegative")
        prime_power_decompose(self.q)


@dataclass(frozen=True)
class ProjectiveSpace:
    """Projective m-space over F_q."""

    dim: int
    q: int

    def __post_init__(self):
        if self.dim < 0:
            raise SpecError("projective dimension must be nonnegative")
        prime_power_decompose(self.q)


@dataclass(frozen=True)
class EllipticCurve:
    """The projective curve y^2 = x^3 + a*x + b over F_p, p prime > 3."""

    p: int
    a: int
    b: int

    def __post_init__(self):
        if self.p <= 3 or not is_prime(self.p):
            raise SpecError("elliptic curves require a prime p > 3")
        if (4 * self.a**3 + 27 * self.b**2) % self.p == 0:
            raise SpecError("singular curve: the discriminant vanishes mod p")

    @property
    def q(self) -> int:
        return self.p


@dataclass(frozen=True)
class ProductSpec:
    """A product of varieties over one common base field."""

    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if not self.factors:
            raise SpecError("a product needs at least one factor")
        if len({spec_field_size(f) for f in self.factors}) > 1:
            raise SpecError("product factors must share the base field")

    @property
    def q(self) -> int:
        return self.factors[0].q


@dataclass(frozen=True)
class CountsSpec:
    """A variety given only by its point counts N_1, N_2, ..."""

    q: int
    counts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "counts", tuple(self.counts))
        prime_power_decompose(self.q)
        if not self.counts:
            raise SpecError("a counts spec needs at least N_1")
        for n in self.counts:
            if not isinstance(n, int) or n < 0:
                raise SpecError("point counts must be nonnegative integers")


@dataclass(frozen=True)
class EquationsSpec:
    """The affine vanishing locus of integer polynomials over F_p."""

    p: int
    variables: tuple[str, ...]
    polys: tuple[MultiPoly, ...]

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "polys", tuple(self.polys))
        if not is_prime(self.p):
            raise SpecError(f"{self.p} is not prime")
        if not self.variables:
            raise SpecError("an equations spec needs at least one variable")
        if len(set(self.variables)) != len(self.variables):
            raise SpecError("variable names must be distinct")
        for f in self.polys:
            if f.nvars != len(self.variables):
                raise SpecError("polynomial arity does not match the variable list")

    @classmethod
    def from_strings(cls, p: int, variables: Sequence[str], polys: Sequence[str]) -> "EquationsSpec":
        names = tuple(variables)
        return cls(p, names, tuple(parse_polynomial(text, names) for text in polys))

    @property
    def q(self) -> int:
        return self.p


@dataclass(frozen=True)
class SymPower:
    """The n-th symmetric power Sym^n of a variety, over the variety's base field."""

    spec: "VarietySpec"
    n: int

    def __post_init__(self):
        spec_field_size(self.spec)
        if self.n < 0:
            raise SpecError("symmetric power index must be nonnegative")

    @property
    def q(self) -> int:
        return self.spec.q


VarietySpec = Union[AffineSpace, ProjectiveSpace, EllipticCurve, ProductSpec, CountsSpec, EquationsSpec, SymPower]


def spec_field_size(spec: VarietySpec) -> int:
    """The size q of the base field the spec is defined over."""
    if not isinstance(spec, get_args(VarietySpec)):
        raise SpecError(f"not a variety spec: {spec!r}")
    return spec.q


@dataclass(frozen=True)
class PointCounts:
    """Exact point counts N_1..N_R of a variety over F_q and extensions."""

    q: int
    counts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "counts", tuple(self.counts))
        for n in self.counts:
            if not isinstance(n, int) or n < 0:
                raise InconsistentCountsError("point counts must be nonnegative integers")

    @property
    def range(self) -> int:
        return len(self.counts)

    def count(self, r: int) -> int:
        """N_r, 1-indexed: the one range gate of a count table.

        r < 1 is a ValueError; r past the range is a PrecisionError with
        required = r, the range the table would need."""
        if r < 1:
            raise ValueError("count index must be at least 1")
        if r > len(self.counts):
            raise PrecisionError(
                f"count N_{r} requested but only range {len(self.counts)} is known",
                required=r,
            )
        return self.counts[r - 1]


def closed_point_degree_counts(counts: PointCounts, dmax: int) -> tuple[int, ...]:
    """Closed points a_1..a_dmax of each degree: the one test of a count table.

    N_m = sum_{d | m} d*a_d, so one forward pass subtracts each d*a_d from
    N_m for every multiple m of d, in O(N log N) steps; the first degree whose
    a_d is not a nonnegative integer raises InconsistentCountsError.  A table
    shorter than dmax raises PrecisionError from ``PointCounts.count`` first."""
    if dmax < 0:
        raise ValueError("closed-point degree bound must be nonnegative")
    if dmax:
        counts.count(dmax)
    rest = list(counts.counts[:dmax])  # rest[d-1] is d*a_d once the pass reaches d
    for d in range(1, dmax + 1):
        if rest[d - 1] % d or rest[d - 1] < 0:
            raise InconsistentCountsError(
                f"counts admit no consistent closed-point count in degree {d}", degree=d
            )
        for m in range(2 * d, dmax + 1, d):
            rest[m - 1] -= rest[d - 1]
    return tuple(rest[d - 1] // d for d in range(1, dmax + 1))


def euler_product(closed: Sequence[int], prec: int) -> list[int]:
    """t^0..t^prec of prod_d (1 - t^d)^(-a_d), a_d = closed[d-1]: the Euler product over closed points.

    Each factor (1 - t)^(-a_d) is ``sigma_int(a_d, prec // d)``, one power recurrence however
    large a_d is, and is multiplied in at the terms t^(dk) only."""
    series = [1] + [0] * prec
    for d, a_d in enumerate(closed[:prec], start=1):
        if a_d:
            f = sigma_int(a_d, prec // d).series.coeffs
            for m in range(prec, d - 1, -1):  # downward, so series[m - d*k] is still the old product
                series[m] += sum(f[k] * series[m - d * k] for k in range(1, m // d + 1))
    return series


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
    closed_point_degree_counts(counts, n * rmax)
    subsamples = (counts.counts[r - 1 : n * r : r] for r in range(1, rmax + 1))
    return PointCounts(counts.q, tuple(ghost_inverse(GhostVector(ZZ, sub)).coefficient(n) for sub in subsamples))


def _ec_add(u: Point | None, v: Point | None, a: int, p: int) -> Point | None:
    """u + v on y^2 = x^3 + a*x + b over F_p, in affine coordinates; None is the point at infinity."""
    if u is None or v is None:
        return v if u is None else u
    (x1, y1), (x2, y2) = u, v
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        slope = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        slope = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (slope * slope - x1 - x2) % p
    return x3, (slope * (x1 - x3) - y1) % p


def _annihilators(pt: Point, a: int, p: int, lo: int, hi: int, m: int) -> set[int] | None:
    """Every M in [lo, hi] with [M]pt = O, by m baby steps, or None if pt has order at most 2m + 1."""
    add = lambda u, v: _ec_add(u, v, a, p)  # noqa: E731
    baby, jp = {}, pt  # x([j]pt) -> j for j = 1..m
    for j in range(1, m + 1):
        baby[jp[0]] = j
        jp = add(jp, pt)
        if jp is None or jp[0] in baby:  # [j+1]pt is O or [+-i]pt with i <= j
            return None
    # The order exceeds 2m + 1, so the windows [c - m, c + m] tile the Hasse interval
    # and each holds at most one M: [c]pt = O gives M = c; [c]pt = +-[j]pt gives M = c - j
    # or c + j, and one scalar multiplication tells which.
    found, stride = set(), binary_power(pt, 2 * m + 1, add, None)
    giant = binary_power(pt, lo + m, add, None)
    for c in range(lo + m, hi + m + 1, 2 * m + 1):
        if giant is None:
            found.add(c)
        elif giant[0] in baby:
            j = baby[giant[0]]
            found.add(c - j if binary_power(pt, c - j, add, None) is None else c + j)
        giant = add(giant, stride)
    return {n for n in found if lo <= n <= hi}


def elliptic_trace(spec: EllipticCurve, budget: int = DEFAULT_ENUM_BUDGET) -> int:
    """The Frobenius trace a = p + 1 - N_1, exactly.

    For p <= 229, p minus the number of affine points that
    ``_elliptic_affine_points`` counts over F_p, charged 2p.  Above it,
    Shanks-Mestre baby-step giant-step (Cohen, GTM 138, section 7.4; Schoof
    1995, section 3), charged the group operations of one point's search.
    For x = 0, 1, ... with f = f(x) = x^3 + a*x + b != 0, P = (f*x, f^2) lies on
    y^2 = x^3 + a*f^2*x + b*f^3, the twist of E by f: isomorphic to E when f
    is a square, else to the quadratic twist E', and #E + #E' = 2p + 2.  Each P of
    order above 2m + 1 yields every M in the Hasse interval with [M]P = O
    (2p + 2 - M on E'), and one candidate set keeps their intersection, which
    always holds #E.  The trace is returned only when one candidate is left,
    so it cannot be wrong.  The search ends by Mestre's theorem: for p > 229,
    E or E' has a point whose order has a single multiple in the interval.
    """
    p = spec.p
    if p <= 229:
        return p - _elliptic_affine_points(spec, FiniteField._prime(p), budget)
    a, b = spec.a % p, spec.b % p
    w = math.isqrt(4 * p)  # #E lies in [lo, hi] = p + 1 -+ floor(2 sqrt p), and 4p is no square
    lo, hi, m = p + 1 - w, p + 1 + w, math.isqrt(w)
    # m baby steps, one giant step per window of 2m + 1, three scalar multiplications
    _charge_budget(m + len(range(lo + m, hi + m + 1, 2 * m + 1)) + 6 * hi.bit_length(), budget)
    candidates: set[int] | None = None
    for x in range(p):
        f = (x * (x * x + a) + b) % p
        if f == 0:
            continue
        found = _annihilators((f * x % p, f * f % p), a * f * f % p, p, lo, hi, m)
        if found is not None:  # on E' (f no square), #E = 2p + 2 - #E'
            found = found if pow(f, (p - 1) // 2, p) == 1 else {2 * p + 2 - n for n in found}
            candidates = found if candidates is None else candidates & found
            if len(candidates) == 1:
                return p + 1 - candidates.pop()
    raise AssertionError("Mestre's theorem bounds the search for p > 229")


def closed_form(spec: VarietySpec, budget: int = DEFAULT_ENUM_BUDGET) -> tuple[tuple[int, ...], int, int] | None:
    """(num, lo, hi) with Z(X, t) = num(t) / prod_{lo<=i<=hi} (1 - q^i t) for A^d, P^d and E, else None.

    A^d is 1/(1 - q^d t), P^d is 1/((1 - t)...(1 - q^d t)), and E is
    (1 - a*t + p*t^2)/((1 - t)(1 - p*t)) with a from ``elliptic_trace``.
    ``closed_expansion`` is the one reader of this format."""
    if isinstance(spec, AffineSpace):
        return (1,), spec.dim, spec.dim
    if isinstance(spec, ProjectiveSpace):
        return (1,), 0, spec.dim
    if isinstance(spec, EllipticCurve):
        return (1, -elliptic_trace(spec, budget), spec.p), 0, 1
    return None


def closed_expansion(num: Sequence[int], Q: int, lo: int, hi: int, n: int) -> list[int]:
    """u^0..u^n of num(u) / prod_{lo<=i<=hi} (1 - Q^i u): the one expansion of a ``closed_form``.

    One or two factors (hi - lo <= 1) go into num one at a time, h_k += Q^i h_(k-1), with no division.
    More are P^d's (d = hi >= 2), by Gaussian quotients h_k = [d+k choose k]_Q = h_(k-1) (Q^(d+k) - 1) /
    (Q^k - 1): that branch holds for num = 1, lo = 0 only."""
    h = (list(num) + [0] * n)[: n + 1]
    if hi - lo <= 1:
        for c in (Q**i for i in range(lo, hi + 1)):
            for k in range(1, n + 1):
                h[k] += c * h[k - 1]
    else:
        for k in range(1, n + 1):
            h[k] = h[k - 1] * (Q ** (hi + k) - 1) // (Q**k - 1)
    return h


def point_counts(spec: VarietySpec, rmax: int, budget: int = DEFAULT_ENUM_BUDGET) -> PointCounts:
    """N_1..N_rmax for the given variety, exactly.

    A closed form num(t) / prod_{lo<=i<=hi} (1 - q^i t) gives Sym^n X (X itself is n = 1) by Macdonald's
    formula: N_r(Sym^n X) is the u^n coefficient of Z(X/F_{q^r}, u) = (1 - s_r u + c_2^r u^2) / prod_i
    (1 - q^(ir) u), the ``closed_expansion`` that ``zeta.spec_zeta`` runs at r = 1.  s_r is the power sum of
    the reciprocal roots of num = 1 + c_1 t + c_2 t^2 (s_0 = deg num, s_1 = -c_1, s_r = -c_1 s_(r-1) - c_2 s_(r-2)),
    checked against the Weil bound s_r^2 <= (deg num)^2 q^r at every r.  Sym^n of any other X reads X's counts
    to range n*rmax through ``sym_power_counts``."""
    if rmax < 1:
        raise ValueError("count range must be at least 1")
    base, n = (spec.spec, spec.n) if isinstance(spec, SymPower) else (spec, 1)
    if (form := closed_form(base, budget) if n else ((1,), 0, 0)) is not None:  # Sym^0 X is a point, A^0
        num, lo, hi = form
        c1, c2 = (num + (0, 0))[1:3]
        deg, q, qr, counts = len(num) - 1, spec.q, 1, []
        s_prev, s, c2r = deg, -c1, 1
        for r in range(1, rmax + 1):
            qr, c2r = qr * q, c2r * c2
            if s * s > deg * deg * qr:
                raise InconsistentCountsError(f"Weil bound violated at r={r}: |trace| exceeds {deg}*q^(r/2)")
            counts.append(closed_expansion((1, -s, c2r), qr, lo, hi, n)[n])
            s_prev, s = s, -c1 * s - c2 * s_prev
    elif isinstance(spec, SymPower):
        counts = sym_power_counts(point_counts(base, n * rmax, budget), n, rmax).counts
    elif isinstance(spec, ProductSpec):
        counts = tuple(map(math.prod, zip(*(point_counts(f, rmax, budget).counts for f in spec.factors))))
    elif isinstance(spec, CountsSpec):
        PointCounts(spec.q, spec.counts).count(rmax)  # the range gate: N_rmax must be known
        counts = spec.counts[:rmax]
    elif isinstance(spec, EquationsSpec):
        counts = tuple(count_affine_points(spec.polys, len(spec.variables), FiniteField(spec.p, r), budget)
                       for r in range(1, rmax + 1))
    else:
        raise SpecError(f"not a variety spec: {spec!r}")
    return PointCounts(spec.q, counts)


def base_change(counts: PointCounts, r: int) -> PointCounts:
    """Counts of the same variety viewed over F_{q^r}: subsample N_{r*m}."""
    if r < 1:
        raise ValueError("base-change degree must be at least 1")
    counts.count(r)  # the range gate: N_r must be known
    return PointCounts(counts.q**r, counts.counts[r - 1 :: r])


def _elliptic_affine_points(spec: EllipticCurve, field: FiniteField, budget: int) -> int:
    """The number of affine points of the curve over the field.  q is odd, so over x lie 1 point if
    f(x) = x (x^2 + a) + b is 0, 2 if l = log_g f(x) is even and none if l is odd.  Over F_p f(x) is a
    residue, read with a table of squares.  Over F_q it is read in logs off the field's tables at x = 0
    and at one x per Frobenius orbit (``_frobenius_orbits``), counted times the orbit's size: a and b
    lie in F_p, so f(x^p) = f(x)^p, and p is odd, so log f(x^p) = p l mod (q - 1) has l's parity."""
    _charge_budget(2 * field.size, budget)
    p, m = field.p, field.size - 1
    a, b = spec.a % p, spec.b % p
    if field.k == 1:
        weight = [1] + [0] * m  # points over x by the residue f(x): 1 at 0, 2 at a nonzero square
        for y in range(1, (p + 1) // 2):
            weight[y * y % p] = 2
        return sum(weight[(x * (x * x + a) + b) % p] for x in range(p))
    _, log, zech = field._tables or field._build()
    la, lb = log[a], log[b]  # -1 for a zero coefficient, as log[0] = -1
    count = 1 if lb < 0 else 0 if lb % 2 else 2  # x = 0, where f(x) = b
    for lx, size in zip(*_frobenius_orbits(p, field.k, 1)):  # x = g^lx, one nonzero x per orbit
        if la < 0:  # s = log(x^2 + a), -1 for 0, by a Zech add
            s = 2 * lx
        else:
            s = la + n if (n := zech[(2 * lx - la) % m]) >= 0 else -1
        if s < 0:  # l = log f(x), as f(x) = b where x^2 + a = 0
            l = lb
        elif lb < 0:
            l = lx + s
        else:
            l = lb + n if (n := zech[(lx + s - lb) % m]) >= 0 else -1
        count += size if l < 0 else 0 if l % 2 else 2 * size
    return count


def _enumerations(spec: VarietySpec, r: int, dmax: int, budget: int) -> Iterator[int]:
    """N_(rd) for d = 1..dmax, each field F_{p^(rd)} built and searched in turn: an elliptic curve's
    affine points plus its one rational point at infinity, an equations spec's points as
    ``iter_affine_solutions`` yields them.  r >= 1, dmax >= 0 and the spec kind (only those two
    enumerate) are checked at once."""
    if r < 1 or dmax < 0:
        raise ValueError(f"enumeration needs r >= 1 and dmax >= 0, got r = {r}, dmax = {dmax}")
    if not isinstance(spec, (EllipticCurve, EquationsSpec)):
        raise SpecError("brute-force enumeration needs an elliptic or equations spec")
    fields = (FiniteField(spec.p, r * d) for d in range(1, dmax + 1))
    if isinstance(spec, EllipticCurve):
        return (_elliptic_affine_points(spec, field, budget) + 1 for field in fields)
    nvars = len(spec.variables)
    return (sum(1 for _ in iter_affine_solutions(spec.polys, nvars, field, budget)) for field in fields)


def point_count_by_enumeration(
    spec: VarietySpec, r: int, budget: int = DEFAULT_ENUM_BUDGET
) -> int:
    """N_r by direct enumeration over F_{p^r}; elliptic includes infinity."""
    [count] = _enumerations(spec, r, 1, budget)
    return count


def closed_point_counts(
    spec: VarietySpec, r: int, dmax: int, budget: int = DEFAULT_ENUM_BUDGET
) -> tuple[int, ...]:
    """Closed points of X/F_{q^r} of each degree 1..dmax, from enumerated counts.

    The degree-d count enumerates X(F_{q^{rd}}), points at infinity
    included, for N_d of X/F_{q^r}; as N_m = sum_{d | m} d*a_d, one
    divisor pass, ``closed_point_degree_counts`` at base q^r, reads off
    the closed points a_d of degree d.
    """
    counts = tuple(_enumerations(spec, r, dmax, budget))
    return closed_point_degree_counts(PointCounts(spec.q**r, counts), dmax)


def brute_sym_count(
    spec: VarietySpec, n: int, r: int, budget: int = DEFAULT_ENUM_BUDGET
) -> int:
    """N_r of Sym^n X, whose points are the multisets of closed points of X/F_{q^r} of total degree n:
    the t^n coefficient of the Euler product (``euler_product``) over the closed points that
    ``closed_point_counts`` reads off the enumerated counts; no ghost arithmetic is involved."""
    if n < 0:
        raise ValueError("symmetric power index must be nonnegative")
    return euler_product(closed_point_counts(spec, r, n, budget), n)[n]
