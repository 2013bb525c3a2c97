"""Truncated big Witt vectors over a torsion-free coefficient ring.

A Witt vector of precision N over a ring A is a truncated power series
1 + a1*t + ... + aN*t^N with constant term 1.  Witt addition is series
multiplication, the zero element is the series 1, and negation is series
inversion.  The ghost coordinates of P are the coefficients b1..bN of
t*P'/P; sending P to its ghost vector turns Witt addition and Witt
multiplication into pointwise operations, which is how multiplication and
Frobenius are computed here: move to ghost coordinates, operate pointwise,
and move back (free for a vector made by ``ghost_inverse``, which keeps its
ghost vector).  Both ways run the identity P*B = t*P' at degree n,

    n*an = bn + a1*b_{n-1} + ... + a_{n-1}*b1,

solved for bn by the ghost map and for an by its inverse, the Newton
recursion, which divides by n in A: inversion is exact precisely over rings
with exact division by positive integers (``wittzeta.rings.Ring.divide_exact``).

``WittRing`` packages W_N(A) itself as such a ring (division by n is an
n-th root of the series), so the whole construction nests: Witt vectors
over W_M(A) work with no extra code, and equality, multiplication and
ghost coordinates all recurse through the same handful of primitives.

A vector may also be unrealized, known by its ghost vector alone (those of
an integral vector, so realizing it cannot raise).  Sums, products,
Frobenius images and truncations with an unrealized operand stay pointwise
and unrealized; realized operands give realized results, eagerly.

Over ZZ the two recurrences run on plain ints, one C-level sum of products a
step; over ZZ[z], on coefficients packed at z = 2^(8w) (Kronecker substitution),
w fixed first by running them on 1-norms: ||f*g|| <= ||f||*||g||, ||f + g|| <=
||f|| + ||g||, and an exact division by n divides the norm by n.  Other rings run
them through the ring handle.  ``_ghost_map`` and ``_newton`` alone choose by ring.
"""

from __future__ import annotations

import sys
from operator import mul
from typing import Any, Callable, Iterable, Sequence

from .errors import IntegralityError, PrecisionError
from .rings import ZZ, IntegerRing, IntPolynomial, IntPolynomialRing, Ring, TruncatedSeries, _conv, binary_power

Element = Any


class WittVector:
    """A truncated series with constant term 1, under Witt-ring operations.

    The arithmetic operators follow Witt-ring semantics: ``+`` multiplies
    the underlying series, ``-`` inverts it, ``*`` is the Witt product
    characterized by [a]*[b] = [ab] on Teichmueller lifts.  Comparison of
    vectors with different precision is allowed and compares coefficients
    up to the common precision.  Vectors from ``ghost_inverse``, ``with_ghost``, ``teichmuller``
    (so ``witt_one``), Witt products, Frobenius images and powers, their truncations, and sums,
    negatives, multiples and exact quotients (``WittRing.divide_exact``) of carrying vectors
    carry ghost coordinates from birth, never set later.
    """

    __slots__ = ("_series", "_ghost")

    def __init__(self, series: TruncatedSeries):
        if series.prec < 1:
            raise ValueError("a Witt vector needs precision at least 1")
        if not series.ring.eq(series.coeffs[0], series.ring.one):
            raise ValueError("a Witt vector is a series with constant term 1")
        self._series = series
        self._ghost = None

    @classmethod
    def _of(cls, series: TruncatedSeries | None, g: "GhostVector | None") -> "WittVector":
        """An unchecked vector the library makes from its series, its ghosts g (an integral vector's), or both."""
        v = object.__new__(cls)
        v._series, v._ghost = series, g
        return v

    @property
    def series(self) -> TruncatedSeries:
        """The series; an unrealized vector makes it by ``ghost_inverse`` on the first read and keeps it."""
        if self._series is None:
            self._series = ghost_inverse(self._ghost)._series
        return self._series

    @classmethod
    def from_coeffs(cls, ring: Ring, coeffs: Iterable[Element]) -> "WittVector":
        """Build 1 + c1*t + ... + cN*t^N from the coefficients c1..cN."""
        return cls(TruncatedSeries(ring, (ring.one, *coeffs)))

    @property
    def ring(self) -> Ring:
        return (self._ghost if self._series is None else self._series).ring

    @property
    def prec(self) -> int:
        return (self._ghost if self._series is None else self._series).prec

    @property
    def coeffs(self) -> tuple:
        """The coefficients a1..aN, constant term omitted."""
        return self.series.coeffs[1:]

    def coefficient(self, k: int) -> Element:
        return self.series.coefficient(k)

    def truncate(self, prec: int) -> "WittVector":
        if prec < 1:
            raise ValueError("precision must be at least 1")
        if prec > self.prec:
            raise ValueError(f"cannot extend precision {self.prec} to {prec}")
        if prec == self.prec:
            return self
        # the ghost map is triangular: the first prec coordinates are the truncation's
        g = None if self._ghost is None else GhostVector._make(self.ring, self._ghost.coords[:prec])
        return WittVector._of(None if self._series is None else self._series.truncate(prec), g)

    def with_ghost(self) -> "WittVector":
        """This vector unrealized, known by its ghost coordinates: one ghost map, unless it has them."""
        return self if self._series is None else WittVector._of(None, ghost(self))

    def __add__(self, other: "WittVector") -> "WittVector":
        if not isinstance(other, WittVector):
            return NotImplemented
        return witt_add(self, other)

    def __neg__(self) -> "WittVector":
        return witt_neg(self)

    def __sub__(self, other: "WittVector") -> "WittVector":
        if not isinstance(other, WittVector):
            return NotImplemented
        return witt_sub(self, other)

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

    @classmethod
    def _make(cls, ring: Ring, coords: tuple) -> "GhostVector":
        """Construct without re-validating coordinates (internal fast path)."""
        g = object.__new__(cls)
        g.ring, g.coords = ring, coords
        return g

    @property
    def prec(self) -> int:
        return len(self.coords)

    def coord(self, n: int) -> Element:
        """The n-th ghost coordinate, 1-indexed."""
        if not 1 <= n <= len(self.coords):
            raise IndexError(f"ghost index {n} is outside 1..{len(self.coords)}")
        return self.coords[n - 1]

    def _pointwise(self, other: "GhostVector", op: Callable) -> "GhostVector":
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("ghost vectors live over different rings")
        return GhostVector._make(self.ring, tuple(map(op, self.coords, other.coords)))

    def __add__(self, other: "GhostVector") -> "GhostVector":
        if not isinstance(other, GhostVector):
            return NotImplemented
        return self._pointwise(other, self.ring.add)

    def __mul__(self, other: "GhostVector") -> "GhostVector":
        if not isinstance(other, GhostVector):
            return NotImplemented
        return self._pointwise(other, self.ring.mul)

    def __neg__(self) -> "GhostVector":
        return GhostVector._make(self.ring, tuple(map(self.ring.neg, self.coords)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GhostVector):
            return NotImplemented
        if self.ring is not other.ring and self.ring != other.ring:
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
    """The multiplicative lift [a] = 1/(1 - a*t), coefficients a^n, born with them as its ghost coordinates."""
    if prec < 1:
        raise ValueError("a Witt vector needs precision at least 1")
    a = ring.check(a)
    coeffs = [ring.one]
    for _ in range(prec):
        coeffs.append(ring.mul(coeffs[-1], a))
    return WittVector._of(TruncatedSeries._make(ring, tuple(coeffs)), GhostVector._make(ring, tuple(coeffs[1:])))


def witt_one(ring: Ring, prec: int) -> WittVector:
    """The multiplicative identity [1] of W_N(A)."""
    return teichmuller(ring.one, prec, ring)


def witt_add(p: WittVector, q: WittVector) -> WittVector:
    """The series product; born with the pointwise ghost sum when both summands carry ghosts.
    The ghost sum alone, unrealized, when a summand is unrealized.  Mixed rings raise first."""
    if p.ring is not q.ring and p.ring != q.ring:
        raise ValueError("Witt vectors live over different rings")
    if p._series is None or q._series is None:
        return WittVector._of(None, ghost(p) + ghost(q))
    g = None if p._ghost is None or q._ghost is None else p._ghost + q._ghost
    return WittVector._of(p._series * q._series, g)


def witt_neg(p: WittVector) -> WittVector:
    """The series inverse, born with -gh(p) when p carries ghosts; -gh(p) alone, unrealized, when p is unrealized."""
    return WittVector._of(None if p._series is None else p._series.inverse(), None if p._ghost is None else -p._ghost)


def witt_sub(p: WittVector, q: WittVector) -> WittVector:
    return witt_add(p, witt_neg(q))


def witt_scale(p: WittVector, k: int) -> WittVector:
    """The k-fold Witt sum of p, the k-th power of the series; ghosts and realization as in ``witt_neg``."""
    g = None if p._ghost is None else GhostVector._make(p.ring, tuple(p.ring.scalar_mul(c, k) for c in p._ghost.coords))
    return WittVector._of(None if p._series is None else p._series.pow_int(k), g)


_NOT_A_GHOST = "no Witt vector has these ghost coordinates: the Newton step at degree {0} is not divisible by {0}"


def _newton_step(ring: Ring, s: Element, n: int) -> Element:
    """s/n in ring for the Newton step at degree n, its IntegralityError raised again as the step's."""
    try:
        return ring.divide_exact(s, n)
    except IntegralityError as exc:
        raise IntegralityError(_NOT_A_GHOST.format(n), degree=n) from exc


def _width(bits: int) -> int:
    """Bytes a slot needs for signed values of at most bits bits: 8*w - 1 > bits, at least 8 (64-bit words)."""
    return max(8, (bits + 8) >> 3)


def _pack(cs: Sequence[int], k: int) -> int:
    """The polynomial with coefficients cs at z = 2^k, by Horner shifts."""
    x = 0
    for c in reversed(cs):
        x = (x << k) + c
    return x


def _unpack(x: int, w: int) -> IntPolynomial:
    """The polynomial of the signed w-byte slots of x, all below 2^(8w-1) in absolute value.  2^(8w-1) added to
    each slot makes them nonnegative, so one to_bytes splits x (as 64-bit words at w = 8): linear in the slots."""
    n = x.bit_length() // (8 * w) + 1
    bias, half = int.from_bytes((bytes(w - 1) + b"\x80") * n, "little"), 1 << (8 * w - 1)  # half in every slot
    raw = (x + bias).to_bytes(w * n, "little")
    if w == 8 and sys.byteorder == "little":  # raw is n native 64-bit words
        return IntPolynomial._make([v - half for v in memoryview(raw).cast("Q")])
    return IntPolynomial._make([int.from_bytes(raw[i : i + w], "little") - half for i in range(0, w * n, w)])


def _ghost_map(ring: Ring, a: Sequence[Element]) -> list:
    """[0, b1, ..., bN] from a = (1, a1, ..., aN) by bn = n*an - (a1*b_{n-1} + ... + a_{n-1}*b1).  Over ZZ on ints;
    over ZZ[z] on ints packed at z = 2^(8w), w fixed by the pass on minus the 1-norms, whose terms all have one sign."""
    if type(ring) is IntegerRing:
        return _ghost_ints(a)
    if type(ring) is IntPolynomialRing:
        w = _width(max(map(abs, _ghost_ints([-sum(map(abs, c.coeffs)) for c in a]))).bit_length())
        return [ring.zero, *(_unpack(x, w) for x in _ghost_ints([_pack(c.coeffs, 8 * w) for c in a])[1:])]
    b = [ring.zero]  # b[0] is never read
    for n in range(1, len(a)):
        b.append(ring.neg(_conv(ring, a, b, n, ring.scalar_mul(a[n], -n))))
    return b


def _newton(ring: Ring, b: Sequence[Element]) -> list:
    """[1, a1, ..., aN] from b = (0, b1, ..., bN) by n*an = bn + a1*b_{n-1} + ... + a_{n-1}*b1.  Over ZZ on ints;
    over ZZ[z] on ints packed at z = 2^(8w), w fixed by the sums on the 1-norms, each packed sum (true up to the
    first inexact one) unpacked and divided by n."""
    if type(ring) is IntegerRing:
        a, sums = _newton_ints(b)
        for n, s in enumerate(sums, 1):
            if s % n:
                raise IntegralityError(_NOT_A_GHOST.format(n), degree=n)
        return a
    if type(ring) is IntPolynomialRing:
        w = _width(max(_newton_ints([sum(map(abs, c.coeffs)) for c in b])[1]).bit_length())
        sums = _newton_ints([_pack(c.coeffs, 8 * w) for c in b])[1]
        return [ring.one, *(_newton_step(ring, _unpack(s, w), n) for n, s in enumerate(sums, 1))]
    a = [ring.one]
    for n in range(1, len(b)):
        a.append(_newton_step(ring, _conv(ring, a, b, n, b[n]), n))
    return a


def _ghost_ints(a: Sequence[int]) -> list:
    """``_ghost_map`` over ZZ on plain ints: each inner sum is one C-level sum of products."""
    b = [0]
    for n in range(1, len(a)):
        b.append(n * a[n] - sum(map(mul, a[1:n], b[n - 1 : 0 : -1])))
    return b


def _newton_ints(b: Sequence[int]) -> tuple:
    """``_newton`` over ZZ on plain ints, each step rounded down: ([1, a1, ..., aN], [s1, ..., sN]), an = sn // n."""
    a, sums = [1], []
    for n in range(1, len(b)):
        sums.append(s := b[n] + sum(map(mul, a[1:n], b[n - 1 : 0 : -1])))
        a.append(s // n)
    return a, sums


def ghost(p: WittVector) -> GhostVector:
    """Ghost coordinates b1..bN of t*P'/P: those p was born with, else (storing nothing on p) one pass of
    bn = n*an - (a1*b_{n-1} + ... + a_{n-1}*b1) from P*B = t*P'; over W_M(A) with each coefficient's own
    ghost map run once, for a copy that carries it."""
    if p._ghost is not None:
        return p._ghost
    ring, a = p.ring, p._series.coeffs
    if isinstance(ring, WittRing):  # a[0] is never read
        a = [a[0], *(c if c._ghost is not None else WittVector._of(c._series, ghost(c)) for c in a[1:])]
    return GhostVector._make(ring, tuple(_ghost_map(ring, a)[1:]))


def ghost_inverse(g: GhostVector) -> WittVector:
    """The unique Witt vector with the given ghost coordinates, which it keeps: the Newton recursion n*an = bn +
    a1*b_{n-1} + ... + a_{n-1}*b1, whose n-th step divides by n and raises IntegralityError (carrying n) if the
    coordinates are not the ghost vector of anything."""
    ring = g.ring
    return WittVector._of(TruncatedSeries._make(ring, tuple(_newton(ring, (ring.zero, *g.coords)))), g)


def _from_ghost(g: GhostVector, *operands: WittVector) -> WittVector:
    """ghost_inverse(g) when every operand is realized, else g unrealized: realized in, realized out."""
    return ghost_inverse(g) if all(v._series is not None for v in operands) else WittVector._of(None, g)


def witt_mul(p: WittVector, q: WittVector) -> WittVector:
    """The Witt product through ghost coordinates, born with their pointwise product; unrealized when a
    factor is.  Mixed rings raise first."""
    if p.ring is not q.ring and p.ring != q.ring:
        raise ValueError("Witt vectors live over different rings")
    prec = min(p.prec, q.prec)
    return _from_ghost(ghost(p.truncate(prec)) * ghost(q.truncate(prec)), p, q)


def witt_pow(p: WittVector, e: int) -> WittVector:
    """The e-th Witt-ring power of p, for e >= 0."""
    if e < 0:
        raise ValueError("negative Witt powers are not defined")
    if e == 0:
        return witt_one(p.ring, p.prec)
    g = ghost(p)
    powered = GhostVector._make(p.ring, tuple(binary_power(c, e, p.ring.mul, p.ring.one) for c in g.coords))
    return ghost_inverse(powered)


def frobenius(p: WittVector, n: int) -> WittVector:
    """The n-th Frobenius F_n, with gh_m(F_n P) = gh_{mn}(P).

    The output has precision floor(N/n) and is unrealized when p is; n larger
    than the precision is rejected because the result would carry no coefficients at all.
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
    return _from_ghost(GhostVector._make(p.ring, ghost(p).coords[n - 1 : n * out_prec : n]), p)


def map_coefficients(p: WittVector, fn: Callable[[Element], Element], ring: Ring) -> WittVector:
    """Apply a ring map coefficient-wise, landing in the given ring."""
    return WittVector.from_coeffs(ring, map(fn, p.coeffs))


class WittRing(Ring):
    """W_N(A) as a coefficient ring, so that Witt constructions nest.

    Exact division by a positive integer n is the n-th root of the
    underlying series (realized first), which exists exactly when the
    element is an n-fold Witt sum.  Elements used as coefficients must share
    this ring's precision; mixed inner precision is rejected by ``check``.
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
            root = x.series.nth_root(n)
        except IntegralityError as exc:
            raise IntegralityError(
                f"Witt vector is not divisible by {n} in W_{self.prec}", degree=exc.degree
            ) from exc
        g, div = x._ghost, self.coeff_ring.divide_exact  # the ghost map is additive: gh(x) = n*gh(y)
        g = None if g is None else GhostVector._make(g.ring, tuple(div(c, n) for c in g.coords))
        return WittVector._of(root, g)

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
