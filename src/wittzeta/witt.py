"""Truncated big Witt vectors over a torsion-free coefficient ring.

A Witt vector of precision N over a ring A is a truncated power series
1 + a1*t + ... + aN*t^N with constant term 1.  Witt addition is series
multiplication, the zero element is the series 1, and negation is series
inversion.  The ghost coordinates of P are the coefficients b1..bN of
t*P'/P; sending P to its ghost vector turns Witt addition and Witt
multiplication into pointwise operations, which is how multiplication and
Frobenius are computed here: move to ghost coordinates, operate pointwise,
and move back.  Both ways run the identity P*B = t*P' at degree n,

    n*an = bn + a1*b_{n-1} + ... + a_{n-1}*b1,

solved for bn by the ghost map and for an by its inverse, the Newton
recursion, which divides by n in A: inversion is exact precisely over rings
with exact division by positive integers (``wittzeta.rings.Ring.divide_exact``).

``WittRing`` packages W_N(A) itself as such a ring (division by n is an
n-th root of the series), so the whole construction nests: Witt vectors
over W_M(A) work with no extra code, and equality, multiplication and
ghost coordinates all recurse through the same handful of primitives.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from .errors import IntegralityError, PrecisionError
from .rings import Ring, TruncatedSeries, ZZ

Element = Any


class WittVector:
    """A truncated series with constant term 1, under Witt-ring operations.

    The arithmetic operators follow Witt-ring semantics: ``+`` multiplies
    the underlying series, ``-`` inverts it, ``*`` is the Witt product
    characterized by [a]*[b] = [ab] on Teichmueller lifts.  Comparison of
    vectors with different precision is allowed and compares coefficients
    up to the common precision.
    """

    __slots__ = ("series",)

    def __init__(self, series: TruncatedSeries):
        if series.prec < 1:
            raise ValueError("a Witt vector needs precision at least 1")
        if not series.ring.eq(series.coeffs[0], series.ring.one):
            raise ValueError("a Witt vector is a series with constant term 1")
        self.series = series

    @classmethod
    def from_coeffs(cls, ring: Ring, coeffs: Sequence[Element]) -> "WittVector":
        """Build 1 + c1*t + ... + cN*t^N from the coefficients c1..cN."""
        checked = tuple(ring.check(c) for c in coeffs)
        return cls(TruncatedSeries(ring, (ring.one,) + checked))

    @property
    def ring(self) -> Ring:
        return self.series.ring

    @property
    def prec(self) -> int:
        return self.series.prec

    @property
    def coeffs(self) -> tuple:
        """The coefficients a1..aN, constant term omitted."""
        return self.series.coeffs[1:]

    def coefficient(self, k: int) -> Element:
        return self.series.coefficient(k)

    def truncate(self, prec: int) -> "WittVector":
        if prec < 1:
            raise ValueError("precision must be at least 1")
        return WittVector(self.series.truncate(prec))

    def __add__(self, other: "WittVector") -> "WittVector":
        if not isinstance(other, WittVector):
            return NotImplemented
        return witt_add(self, other)

    def __neg__(self) -> "WittVector":
        return witt_neg(self)

    def __sub__(self, other: "WittVector") -> "WittVector":
        if not isinstance(other, WittVector):
            return NotImplemented
        return witt_add(self, witt_neg(other))

    def __mul__(self, other: "WittVector") -> "WittVector":
        if not isinstance(other, WittVector):
            return NotImplemented
        return witt_mul(self, other)

    def __pow__(self, e: int) -> "WittVector":
        return witt_pow(self, e)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WittVector):
            return NotImplemented
        return self.series == other.series

    __hash__ = None  # type: ignore[assignment]

    def __str__(self) -> str:
        return str(self.series)

    def __repr__(self) -> str:
        return f"WittVector({self.series!r})"


class GhostVector:
    """Ghost coordinates b1..bN of a Witt vector, indexed from 1.

    Addition and multiplication are pointwise; they mirror the Witt-ring
    operations under the ghost map.
    """

    __slots__ = ("ring", "coords")

    def __init__(self, ring: Ring, coords: Sequence[Element]):
        cs = tuple(ring.check(c) for c in coords)
        if not cs:
            raise ValueError("a ghost vector needs at least one coordinate")
        self.ring = ring
        self.coords = cs

    @property
    def prec(self) -> int:
        return len(self.coords)

    def coord(self, n: int) -> Element:
        """The n-th ghost coordinate, 1-indexed."""
        if not 1 <= n <= len(self.coords):
            raise IndexError(f"ghost index {n} is outside 1..{len(self.coords)}")
        return self.coords[n - 1]

    def _pointwise(self, other: "GhostVector", op: Callable) -> "GhostVector":
        if self.ring != other.ring:
            raise ValueError("ghost vectors live over different rings")
        n = min(len(self.coords), len(other.coords))
        return GhostVector(self.ring, tuple(op(a, b) for a, b in zip(self.coords[:n], other.coords[:n])))

    def __add__(self, other: "GhostVector") -> "GhostVector":
        if not isinstance(other, GhostVector):
            return NotImplemented
        return self._pointwise(other, self.ring.add)

    def __mul__(self, other: "GhostVector") -> "GhostVector":
        if not isinstance(other, GhostVector):
            return NotImplemented
        return self._pointwise(other, self.ring.mul)

    def __neg__(self) -> "GhostVector":
        return GhostVector(self.ring, tuple(self.ring.neg(c) for c in self.coords))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GhostVector):
            return NotImplemented
        if self.ring != other.ring:
            return False
        n = min(len(self.coords), len(other.coords))
        return all(self.ring.eq(a, b) for a, b in zip(self.coords[:n], other.coords[:n]))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"GhostVector({self.ring!r}, {self.coords!r})"


def witt_zero(ring: Ring, prec: int) -> WittVector:
    """The additive identity of W_N(A): the series 1."""
    return WittVector(TruncatedSeries.one(ring, prec))


def teichmuller(a: Element, prec: int, ring: Ring = ZZ) -> WittVector:
    """The multiplicative lift [a] = 1/(1 - a*t), coefficients a^n."""
    a = ring.check(a)
    coeffs = [ring.one]
    for _ in range(prec):
        coeffs.append(ring.mul(coeffs[-1], a))
    return WittVector(TruncatedSeries._make(ring, tuple(coeffs)))


def witt_one(ring: Ring, prec: int) -> WittVector:
    """The multiplicative identity [1] of W_N(A)."""
    return teichmuller(ring.one, prec, ring)


def witt_add(p: WittVector, q: WittVector) -> WittVector:
    return WittVector(p.series * q.series)


def witt_neg(p: WittVector) -> WittVector:
    return WittVector(p.series.inverse())

def witt_sub(p: WittVector, q: WittVector) -> WittVector:
    return witt_add(p, witt_neg(q))


def witt_scale(p: WittVector, k: int) -> WittVector:
    """The k-fold Witt sum of p, i.e. the k-th power of the series."""
    return WittVector(p.series.pow_int(k))


def ghost(p: WittVector) -> GhostVector:
    """Ghost coordinates b1..bN of t*P'/P, by one pass of the recurrence
    bn = n*an - (a1*b_{n-1} + ... + a_{n-1}*b1) read off from P*B = t*P'."""
    ring = p.ring
    a = p.series.coeffs
    b = []
    for n in range(1, len(a)):
        acc = ring.zero
        for i in range(1, n):
            acc = ring.add(acc, ring.mul(a[i], b[n - 1 - i]))
        b.append(ring.sub(ring.scalar_mul(a[n], n), acc))
    return GhostVector(ring, b)


def ghost_inverse(g: GhostVector) -> WittVector:
    """The unique Witt vector with the given ghost coordinates.

    Runs the Newton recursion n*an = bn + a1*b_{n-1} + ... + a_{n-1}*b1;
    the n-th step divides by n in the coefficient ring and raises
    IntegralityError (carrying n) if the coordinates are not the ghost
    vector of anything.
    """
    ring = g.ring
    b = g.coords
    a = [ring.one]
    for n in range(1, len(b) + 1):
        acc = b[n - 1]
        for i in range(1, n):
            acc = ring.add(acc, ring.mul(a[i], b[n - 1 - i]))
        try:
            a.append(ring.divide_exact(acc, n))
        except IntegralityError as exc:
            raise IntegralityError(
                f"no Witt vector has these ghost coordinates: "
                f"the Newton step at degree {n} is not divisible by {n}",
                degree=n,
            ) from exc
    return WittVector(TruncatedSeries._make(ring, tuple(a)))


def witt_mul(p: WittVector, q: WittVector) -> WittVector:
    """The Witt product, computed through ghost coordinates."""
    prec = min(p.prec, q.prec)
    if p.prec != prec:
        p = p.truncate(prec)
    if q.prec != prec:
        q = q.truncate(prec)
    return ghost_inverse(ghost(p) * ghost(q))


def witt_pow(p: WittVector, e: int) -> WittVector:
    """The e-th Witt-ring power of p, for e >= 0."""
    if e < 0:
        raise ValueError("negative Witt powers are not defined")
    if e == 0:
        return witt_one(p.ring, p.prec)
    g = ghost(p)
    powered = GhostVector(p.ring, tuple(_ring_pow(p.ring, c, e) for c in g.coords))
    return ghost_inverse(powered)


def _ring_pow(ring: Ring, x: Element, e: int) -> Element:
    result = ring.one
    while e:
        if e & 1:
            result = ring.mul(result, x)
        e >>= 1
        if e:
            x = ring.mul(x, x)
    return result


def frobenius(p: WittVector, n: int) -> WittVector:
    """The n-th Frobenius F_n, with gh_m(F_n P) = gh_{mn}(P).

    The output has precision floor(N/n); n larger than the precision is
    rejected because the result would carry no coefficients at all.
    """
    if n < 1:
        raise ValueError("Frobenius index must be a positive integer")
    if n == 1:
        return p
    out_prec = p.prec // n
    if out_prec == 0:
        raise PrecisionError(
            f"Frobenius F_{n} of a precision-{p.prec} vector has precision 0",
            required=n,
        )
    g = ghost(p)
    sub = tuple(g.coord(n * m) for m in range(1, out_prec + 1))
    return ghost_inverse(GhostVector(p.ring, sub))


def map_coefficients(p: WittVector, fn: Callable[[Element], Element], ring: Ring) -> WittVector:
    """Apply a ring map coefficient-wise, landing in the given ring."""
    coeffs = tuple(ring.check(fn(c)) for c in p.series.coeffs[1:])
    return WittVector(TruncatedSeries(ring, (ring.one,) + coeffs))


class WittRing(Ring):
    """W_N(A) as a coefficient ring, so that Witt constructions nest.

    Exact division by a positive integer n is the n-th root of the
    underlying series, which exists exactly when the element is an n-fold
    Witt sum.  Elements used as coefficients must share this ring's
    precision; mixed inner precision is rejected by ``check``.
    """

    def __init__(self, coeff_ring: Ring, prec: int):
        if prec < 1:
            raise ValueError("Witt-ring precision must be at least 1")
        self.coeff_ring = coeff_ring
        self.prec = prec
        self._zero = witt_zero(coeff_ring, prec)
        self._one = witt_one(coeff_ring, prec)

    @property
    def zero(self) -> WittVector:
        return self._zero

    @property
    def one(self) -> WittVector:
        return self._one

    def add(self, x: WittVector, y: WittVector) -> WittVector:
        return witt_add(x, y)

    def neg(self, x: WittVector) -> WittVector:
        return witt_neg(x)

    def mul(self, x: WittVector, y: WittVector) -> WittVector:
        return witt_mul(x, y)

    def eq(self, x: WittVector, y: WittVector) -> bool:
        return x == y

    def scalar_mul(self, x: WittVector, k: int) -> WittVector:
        return witt_scale(x, k)

    def divide_exact(self, x: WittVector, n: int) -> WittVector:
        if n <= 0:
            raise ValueError("divisor must be a positive integer")
        try:
            return WittVector(x.series.nth_root(n))
        except IntegralityError as exc:
            raise IntegralityError(
                f"Witt vector is not divisible by {n} in W_{self.prec}", degree=exc.degree
            ) from exc

    def check(self, x: Element) -> WittVector:
        if not isinstance(x, WittVector):
            raise TypeError(f"expected WittVector, got {type(x).__name__}")
        if x.ring != self.coeff_ring:
            raise TypeError("Witt vector has the wrong coefficient ring")
        if x.prec != self.prec:
            raise TypeError(
                f"mixed precision: expected {self.prec}, got {x.prec}"
            )
        return x

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WittRing):
            return NotImplemented
        return self.coeff_ring == other.coeff_ring and self.prec == other.prec

    def __hash__(self) -> int:
        return hash((WittRing, self.coeff_ring, self.prec))

    def __repr__(self) -> str:
        return f"W_{self.prec}({self.coeff_ring!r})"
