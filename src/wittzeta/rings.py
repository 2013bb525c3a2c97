"""Exact arithmetic substrate: commutative rings and truncated power series.

A ring is represented by a small handle object (a ``Ring`` subclass) whose
methods operate on plain element values: Python ``int`` for the integers,
``IntPolynomial`` for integer polynomials, ``WittVector`` for a Witt ring
(see ``wittzeta.witt``).  Keeping elements as plain values lets the Witt
construction nest: the coefficient ring of a truncated series may itself be
a Witt ring.

Beyond the usual operations, every ring here supports exact division by a
positive integer (``divide_exact``), a partial operation that raises
``IntegralityError`` if the quotient does not exist in the ring.  That is
the only extra structure ghost-coordinate inversion needs, and it is what
restricts the library to torsion-free coefficient rings.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Iterable, Sequence

from .errors import IntegralityError

Element = Any


class Ring(ABC):
    """Commutative ring with identity, operating on plain element values."""

    @property
    @abstractmethod
    def zero(self) -> Element: ...

    @property
    @abstractmethod
    def one(self) -> Element: ...

    @abstractmethod
    def add(self, x: Element, y: Element) -> Element: ...

    @abstractmethod
    def neg(self, x: Element) -> Element: ...

    @abstractmethod
    def mul(self, x: Element, y: Element) -> Element: ...

    @abstractmethod
    def eq(self, x: Element, y: Element) -> bool: ...

    @abstractmethod
    def divide_exact(self, x: Element, n: int) -> Element:
        """Return the unique y with n*y == x, or raise IntegralityError."""

    def check(self, x: Element) -> Element:
        """Validate (and possibly coerce) a candidate element."""
        return x

    def sub(self, x: Element, y: Element) -> Element:
        return self.add(x, self.neg(y))

    def is_zero(self, x: Element) -> bool:
        return self.eq(x, self.zero)

    def scalar_mul(self, x: Element, k: int) -> Element:
        """k-fold sum of x, by binary doubling; k may be zero or negative."""
        if k < 0:
            return self.neg(self.scalar_mul(x, -k))
        acc = self.zero
        base = x
        while k:
            if k & 1:
                acc = self.add(acc, base)
            k >>= 1
            if k:
                base = self.add(base, base)
        return acc

    def from_int(self, k: int) -> Element:
        return self.scalar_mul(self.one, k)


class IntegerRing(Ring):
    """The ring of arbitrary-precision integers, elements are plain ``int``."""

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def add(self, x: int, y: int) -> int:
        return x + y

    def neg(self, x: int) -> int:
        return -x

    def mul(self, x: int, y: int) -> int:
        return x * y

    def eq(self, x: int, y: int) -> bool:
        return x == y

    def scalar_mul(self, x: int, k: int) -> int:
        return x * k

    def from_int(self, k: int) -> int:
        return k

    def divide_exact(self, x: int, n: int) -> int:
        if n <= 0:
            raise ValueError("divisor must be a positive integer")
        q, r = divmod(x, n)
        if r:
            raise IntegralityError(f"{x} is not divisible by {n}")
        return q

    def check(self, x: Element) -> int:
        if not isinstance(x, int):
            raise TypeError(f"expected an integer, got {type(x).__name__}")
        return x

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntegerRing)

    def __hash__(self) -> int:
        return hash(IntegerRing)

    def __repr__(self) -> str:
        return "ZZ"


class IntPolynomial:
    """Integer polynomial stored as ascending coefficients, no trailing zeros.

    The zero polynomial has an empty coefficient tuple and degree -1.
    Arithmetic accepts plain ints wherever a polynomial is expected.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, int):
                raise TypeError("coefficients must be integers")
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def constant(cls, n: int) -> "IntPolynomial":
        return cls((n,))

    @classmethod
    def variable(cls, power: int = 1) -> "IntPolynomial":
        """The monomial z**power."""
        if power < 0:
            raise ValueError("power must be nonnegative")
        return cls((0,) * power + (1,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    @staticmethod
    def _coerce(x: "IntPolynomial | int") -> "IntPolynomial":
        if isinstance(x, IntPolynomial):
            return x
        if isinstance(x, int):
            return IntPolynomial((x,))
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    __radd__ = __add__

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        return (-self) + other

    def __mul__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.is_zero() or o.is_zero():
            return IntPolynomial()
        out = [0] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "IntPolynomial":
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result = IntPolynomial((1,))
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = IntPolynomial((other,))
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def evaluate(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def div_exact(self, other: "IntPolynomial") -> "IntPolynomial | None":
        """Exact quotient self/other over the integers, or None."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quot = [0] * max(len(rem) - len(other.coeffs) + 1, 0)
        lead = other.leading()
        while len(rem) >= len(other.coeffs) and any(rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) < len(other.coeffs):
                break
            shift = len(rem) - len(other.coeffs)
            q, r = divmod(rem[-1], lead)
            if r:
                return None
            quot[shift] = q
            for i, c in enumerate(other.coeffs):
                rem[shift + i] -= q * c
        if any(rem):
            return None
        return IntPolynomial(quot)

    def render(self, var: str = "z") -> str:
        if self.is_zero():
            return "0"
        parts: list[str] = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                term = str(mag)
            else:
                head = var if k == 1 else f"{var}^{k}"
                term = head if mag == 1 else f"{mag}*{head}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"IntPolynomial({self.coeffs!r})"


class IntPolynomialRing(Ring):
    """The polynomial ring over the integers in one variable."""

    @property
    def zero(self) -> IntPolynomial:
        return IntPolynomial()

    @property
    def one(self) -> IntPolynomial:
        return IntPolynomial((1,))

    def add(self, x: IntPolynomial, y: IntPolynomial) -> IntPolynomial:
        return x + y

    def neg(self, x: IntPolynomial) -> IntPolynomial:
        return -x

    def mul(self, x: IntPolynomial, y: IntPolynomial) -> IntPolynomial:
        return x * y

    def eq(self, x: IntPolynomial, y: IntPolynomial) -> bool:
        return x == y

    def scalar_mul(self, x: IntPolynomial, k: int) -> IntPolynomial:
        return x * k

    def from_int(self, k: int) -> IntPolynomial:
        return IntPolynomial((k,))

    def divide_exact(self, x: IntPolynomial, n: int) -> IntPolynomial:
        if n <= 0:
            raise ValueError("divisor must be a positive integer")
        out = []
        for c in x.coeffs:
            q, r = divmod(c, n)
            if r:
                raise IntegralityError(f"coefficient {c} is not divisible by {n}")
            out.append(q)
        return IntPolynomial(out)

    def check(self, x: Element) -> IntPolynomial:
        if isinstance(x, int):
            return IntPolynomial((x,))
        if not isinstance(x, IntPolynomial):
            raise TypeError(f"expected IntPolynomial, got {type(x).__name__}")
        return x

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntPolynomialRing)

    def __hash__(self) -> int:
        return hash(IntPolynomialRing)

    def __repr__(self) -> str:
        return "ZZ[z]"


ZZ = IntegerRing()
ZPOLY = IntPolynomialRing()


class TruncatedSeries:
    """Power series over a ring, exact coefficients for degrees 0..prec.

    Arithmetic between two series is carried out at the minimum of their
    precisions and the result records that precision.  Equality likewise
    compares coefficients only up to the common precision, so it is an
    equality of truncations, not of underlying series.
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: Ring, coeffs: Sequence[Element]):
        cs = tuple(ring.check(c) for c in coeffs)
        if not cs:
            raise ValueError("a truncated series needs at least the constant term")
        self.ring = ring
        self.coeffs = cs

    @classmethod
    def _make(cls, ring: Ring, coeffs: tuple) -> "TruncatedSeries":
        """Construct without re-validating coefficients (internal fast path)."""
        s = object.__new__(cls)
        s.ring = ring
        s.coeffs = coeffs
        return s

    @classmethod
    def one(cls, ring: Ring, prec: int) -> "TruncatedSeries":
        return cls._make(ring, (ring.one,) + (ring.zero,) * prec)

    @property
    def prec(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> Element:
        if not 0 <= k <= self.prec:
            raise IndexError(f"degree {k} is outside the stored range 0..{self.prec}")
        return self.coeffs[k]

    def truncate(self, prec: int) -> "TruncatedSeries":
        if prec > self.prec:
            raise ValueError(f"cannot extend precision {self.prec} to {prec}")
        if prec < 0:
            raise ValueError("precision must be nonnegative")
        return TruncatedSeries._make(self.ring, self.coeffs[: prec + 1])

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        ring = self.ring
        if other.ring != ring:
            raise ValueError("series live over different rings")
        n = min(self.prec, other.prec)
        a, b = self.coeffs, other.coeffs
        out = []
        for k in range(n + 1):
            acc = ring.zero
            for i in range(k + 1):
                acc = ring.add(acc, ring.mul(a[i], b[k - i]))
            out.append(acc)
        return TruncatedSeries._make(ring, tuple(out))

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse; the constant term must be 1."""
        ring = self.ring
        if not ring.eq(self.coeffs[0], ring.one):
            raise ValueError("series inverse requires constant term 1")
        inv = [ring.one]
        for k in range(1, self.prec + 1):
            acc = ring.zero
            for i in range(1, k + 1):
                acc = ring.add(acc, ring.mul(self.coeffs[i], inv[k - i]))
            inv.append(ring.neg(acc))
        return TruncatedSeries._make(ring, tuple(inv))

    def pow_int(self, e: int) -> "TruncatedSeries":
        """Integer power; negative exponents invert first (constant term 1)."""
        if e < 0:
            return self.inverse().pow_int(-e)
        result = TruncatedSeries.one(self.ring, self.prec)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def nth_root(self, n: int) -> "TruncatedSeries":
        """The series q with q**n == self and constant term 1.

        One pass of the power recurrence (Knuth, TAOCP vol. 2, 4.7)
        n*k*q_k = sum_{i=1..k} ((n+1)*i - n*k)*s_i*q_{k-i}.  Over a torsion-free
        ring its right side is k times the residual s_k - [t^k](q_0..q_{k-1})^n,
        so the division by n*k fails exactly where that residual is not
        divisible by n; IntegralityError carries that degree k.
        """
        if n <= 0:
            raise ValueError("root index must be a positive integer")
        ring = self.ring
        s = self.coeffs
        if not ring.eq(s[0], ring.one):
            raise ValueError("series n-th root requires constant term 1")
        if n == 1:
            return self
        root = [ring.one]
        for k in range(1, self.prec + 1):
            acc = ring.zero
            for i in range(1, k + 1):
                term = ring.mul(s[i], root[k - i])
                acc = ring.add(acc, ring.scalar_mul(term, (n + 1) * i - n * k))
            try:
                root.append(ring.divide_exact(acc, n * k))
            except IntegralityError as exc:
                raise IntegralityError(
                    f"series has no exact {n}-th root: failure at degree {k}", degree=k
                ) from exc
        return TruncatedSeries._make(ring, tuple(root))

    def at_minus_t(self) -> "TruncatedSeries":
        """Substitute -t for t, negating the odd-degree coefficients."""
        ring = self.ring
        return TruncatedSeries._make(
            ring, tuple(ring.neg(c) if k & 1 else c for k, c in enumerate(self.coeffs))
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if self.ring != other.ring:
            return False
        n = min(self.prec, other.prec)
        return all(self.ring.eq(self.coeffs[k], other.coeffs[k]) for k in range(n + 1))

    __hash__ = None  # type: ignore[assignment]

    def __str__(self) -> str:
        terms = []
        for k, c in enumerate(self.coeffs):
            if self.ring.is_zero(c):
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append(f"({c})*t")
            else:
                terms.append(f"({c})*t^{k}")
        body = " + ".join(terms) if terms else "0"
        return f"{body} + O(t^{self.prec + 1})"

    def __repr__(self) -> str:
        return f"TruncatedSeries({self.ring!r}, {self.coeffs!r})"
