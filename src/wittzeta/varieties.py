"""Variety descriptions over finite fields and exact point counting.

Every spec answers "how many points over F_{q^r}" exactly: affine and
projective spaces by closed formula, elliptic curves by one brute-force
count over the prime field followed by the trace recursion, products
pointwise, explicit equation systems by root counting in one variable
(budget-guarded), and user-supplied count tables verbatim.

The module also hosts the enumeration oracle for symmetric powers: group
the points over F_{q^{rd}} (tuples of int field codes) into Frobenius
orbits to count closed points of each degree d, then count multisets of
closed points with total degree n.  That route never touches ghost
coordinates or Newton inversion, so it can sit on the other side of an
equality test from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

from .errors import BudgetError, InconsistentCountsError, PrecisionError, SpecError
from .finitefield import (
    DEFAULT_ENUM_BUDGET,
    FiniteField,
    MultiPoly,
    count_affine_points,
    is_prime,
    iter_affine_solutions,
    parse_polynomial,
    prime_power_decompose,
)

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
        qs = {spec_field_size(f) for f in self.factors}
        if len(qs) > 1:
            raise SpecError("product factors must share the base field")

    @property
    def q(self) -> int:
        return spec_field_size(self.factors[0])


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
        parsed = tuple(parse_polynomial(text, names) for text in polys)
        return cls(p, names, parsed)

    @property
    def q(self) -> int:
        return self.p


VarietySpec = Union[AffineSpace, ProjectiveSpace, EllipticCurve, ProductSpec, CountsSpec, EquationsSpec]


def spec_field_size(spec: VarietySpec) -> int:
    """The size q of the base field the spec is defined over."""
    if isinstance(spec, (AffineSpace, ProjectiveSpace, CountsSpec)):
        return spec.q
    if isinstance(spec, (EllipticCurve, EquationsSpec)):
        return spec.p
    if isinstance(spec, ProductSpec):
        return spec.q
    raise SpecError(f"not a variety spec: {spec!r}")


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
        """N_r, 1-indexed."""
        if not 1 <= r <= len(self.counts):
            raise PrecisionError(
                f"count N_{r} requested but only range {len(self.counts)} is known",
                required=r,
            )
        return self.counts[r - 1]


def elliptic_trace(spec: EllipticCurve, budget: int = DEFAULT_ENUM_BUDGET) -> int:
    """The Frobenius trace a = p + 1 - N_1, from one brute-force count."""
    p = spec.p
    if 2 * p > budget:
        raise BudgetError(
            f"enumeration needs {2 * p} steps, budget is {budget}",
            required=2 * p,
            budget=budget,
        )
    a, b, cnt = spec.a, spec.b, bytearray(p)  # cnt[r] = #{y : y^2 = r} = 1 + (r | p)
    for y in range(1, (p + 1) // 2):
        cnt[y * y % p] = 2
    cnt[0] = 1
    return p - sum(cnt[(x * (x * x + a) + b) % p] for x in range(p))


def _elliptic_counts(spec: EllipticCurve, rmax: int, budget: int) -> tuple[int, ...]:
    """N_r = q^r + 1 - s_r with s_r = a*s_{r-1} - q*s_{r-2}, s_0 = 2."""
    q = spec.p
    a = elliptic_trace(spec, budget)
    s_prev, s = 2, a
    counts = []
    for r in range(1, rmax + 1):
        if s * s > 4 * q**r:
            raise InconsistentCountsError(
                f"Weil bound violated at r={r}: |trace| exceeds 2*q^(r/2)"
            )
        counts.append(q**r + 1 - s)
        s_prev, s = s, a * s - q * s_prev
    return tuple(counts)


def point_counts(spec: VarietySpec, rmax: int, budget: int = DEFAULT_ENUM_BUDGET) -> PointCounts:
    """N_1..N_rmax for the given variety, exactly."""
    if rmax < 1:
        raise ValueError("count range must be at least 1")
    if isinstance(spec, AffineSpace):
        return PointCounts(spec.q, tuple(spec.q ** (spec.dim * r) for r in range(1, rmax + 1)))
    if isinstance(spec, ProjectiveSpace):
        return PointCounts(
            spec.q,
            tuple(sum(spec.q ** (i * r) for i in range(spec.dim + 1)) for r in range(1, rmax + 1)),
        )
    if isinstance(spec, EllipticCurve):
        return PointCounts(spec.p, _elliptic_counts(spec, rmax, budget))
    if isinstance(spec, ProductSpec):
        factor_counts = [point_counts(f, rmax, budget) for f in spec.factors]
        combined = tuple(
            math.prod(fc.count(r) for fc in factor_counts) for r in range(1, rmax + 1)
        )
        return PointCounts(spec.q, combined)
    if isinstance(spec, CountsSpec):
        if len(spec.counts) < rmax:
            raise PrecisionError(
                f"counts spec knows N_1..N_{len(spec.counts)} but range {rmax} was requested",
                required=rmax,
            )
        return PointCounts(spec.q, spec.counts[:rmax])
    if isinstance(spec, EquationsSpec):
        nvars = len(spec.variables)
        out = [count_affine_points(spec.polys, nvars, FiniteField(spec.p, r), budget)
               for r in range(1, rmax + 1)]
        return PointCounts(spec.p, tuple(out))
    raise SpecError(f"not a variety spec: {spec!r}")


def base_change(counts: PointCounts, r: int) -> PointCounts:
    """Counts of the same variety viewed over F_{q^r}: subsample N_{r*m}."""
    if r < 1:
        raise ValueError("base-change degree must be at least 1")
    new_range = counts.range // r
    if new_range < 1:
        raise PrecisionError(
            f"base change by {r} needs count range >= {r}, got {counts.range}",
            required=r,
        )
    return PointCounts(counts.q**r, tuple(counts.count(r * m) for m in range(1, new_range + 1)))


def _elliptic_affine_points(spec: EllipticCurve, field: FiniteField, budget: int) -> list[Point]:
    """All affine points of the curve over the field, via a square table."""
    work = 2 * field.size
    if work > budget:
        raise BudgetError(
            f"enumeration needs {work} steps, budget is {budget}",
            required=work,
            budget=budget,
        )
    a, b = field.from_int(spec.a), field.from_int(spec.b)
    roots: dict[int, list[int]] = {}
    for y in field.elements():
        roots.setdefault(field.mul(y, y), []).append(y)
    return [(x, y) for x in field.elements()  # x^3 + a x + b = x (x^2 + a) + b
            for y in roots.get(field.add(field.mul(x, field.add(field.mul(x, x), a)), b), ())]


def _enumerable_prime(spec: VarietySpec) -> int:
    if isinstance(spec, (EllipticCurve, EquationsSpec)):
        return spec.p
    raise SpecError("brute-force enumeration needs an elliptic or equations spec")


def _affine_points(spec: VarietySpec, field: FiniteField, budget: int) -> list[Point]:
    if isinstance(spec, EllipticCurve):
        return _elliptic_affine_points(spec, field, budget)
    return list(iter_affine_solutions(spec.polys, len(spec.variables), field, budget))


def point_count_by_enumeration(
    spec: VarietySpec, r: int, budget: int = DEFAULT_ENUM_BUDGET
) -> int:
    """N_r by direct enumeration over F_{p^r}; elliptic includes infinity."""
    field = FiniteField(_enumerable_prime(spec), r)
    n = len(_affine_points(spec, field, budget))
    return n + 1 if isinstance(spec, EllipticCurve) else n


def closed_point_counts(
    spec: VarietySpec, r: int, dmax: int, budget: int = DEFAULT_ENUM_BUDGET
) -> tuple[int, ...]:
    """Closed points of X/F_{q^r} of each degree 1..dmax, by orbit counting.

    The degree-d count enumerates X(F_{q^{rd}}) and groups it into orbits
    of the q^r-power Frobenius; the orbits of size exactly d are the
    closed points of degree d.  The single elliptic point at infinity is
    rational over the prime field, hence a degree-1 closed point.
    """
    p = _enumerable_prime(spec)
    frob_exp = p**r
    out = []
    for d in range(1, dmax + 1):
        field = FiniteField(p, r * d)
        points = _affine_points(spec, field, budget)
        seen: set[Point] = set()
        orbits = 0
        for pt in points:
            if pt not in seen:
                orbit = [pt]
                while (cur := tuple(field.pow(c, frob_exp) for c in orbit[-1])) != pt:
                    orbit.append(cur)
                seen.update(orbit)
                orbits += len(orbit) == d
        if d == 1 and isinstance(spec, EllipticCurve):
            orbits += 1
        out.append(orbits)
    return tuple(out)


def brute_sym_count(
    spec: VarietySpec, n: int, r: int, budget: int = DEFAULT_ENUM_BUDGET
) -> int:
    """N_r of the n-th symmetric power, counted as multisets of closed points.

    A point of Sym^n X over F_{q^r} is a multiset of closed points of
    X/F_{q^r} with degrees summing to n, so the count is a finite sum of
    products of multiset coefficients; no series or ghost arithmetic is
    involved.
    """
    if n < 0:
        raise ValueError("symmetric power index must be nonnegative")
    if n == 0:
        return 1
    degree_counts = closed_point_counts(spec, r, n, budget)
    ways = [1] + [0] * n
    for d in range(1, n + 1):
        c = degree_counts[d - 1]
        nxt = [0] * (n + 1)
        for total in range(n + 1):
            k = 0
            while d * k <= total:
                prev = ways[total - d * k]
                if prev:
                    sets = 1 if k == 0 else math.comb(c + k - 1, k)
                    nxt[total] += sets * prev
                k += 1
        ways = nxt
    return ways[n]
