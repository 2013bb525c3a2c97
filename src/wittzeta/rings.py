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

The dense O(N^2) series recurrences (series product and inverse here, and
the ghost map and its Newton inverse of ``wittzeta.witt`` over rings other than
ZZ and ZZ[z], which run on plain ints) share one inner sum, ``_conv``, through
the ring handle from each recurrence's boundary term; none multiplies by a
constant term known to be 1, and over ZZ and ZZ[z] a product or inverse stops
each sum at a polynomial operand's last nonzero term.
"""

from __future__ import annotations

import operator
from abc import ABC, abstractmethod
from typing import Any, Callable, Iterable, Sequence

from .errors import IntegralityError

Element = Any


def binary_power(x: Element, e: int, mul: Callable[[Element, Element], Element], one: Element) -> Element:
    """x to the power e >= 0 under an associative mul with identity one.

    Left-to-right square-and-multiply (von zur Gathen & Gerhard, ch. 4):
    bit_length(e) - 1 squarings and a product by x for each further set bit.
    Ring powers, k-fold sums (mul = add, one = zero) and powers modulo a
    polynomial all run here.
    """
    if e < 0:
        raise ValueError("binary_power needs a nonnegative exponent")
    if e == 0:
        return one
    result = x
    for bit in bin(e)[3:]:
        result = mul(result, result)
        if bit == "1":
            result = mul(result, x)
    return result


def _conv(ring: "Ring", a: Sequence[Element], b: Sequence[Element], n: int, acc: Element) -> Element:
    """acc + a[1]*b[n-1] + ... + a[n-1]*b[1]: the inner sum of every dense series
    recurrence, started from its boundary term, with the ring's add and mul bound once."""
    add, mul = ring.add, ring.mul
    for i in range(1, n):
        acc = add(acc, mul(a[i], b[n - i]))
    return acc


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
        return binary_power(x, k, self.add, self.zero)

    def from_int(self, k: int) -> Element:
        return self.scalar_mul(self.one, k)


class IntegerRing(Ring):
    """The ring of arbitrary-precision integers, elements are plain ``int``."""

    zero, one = 0, 1
    add, neg, mul, eq, scalar_mul = operator.add, operator.neg, operator.mul, operator.eq, operator.mul
    from_int = operator.index

    def divide_exact(self, x: int, n: int) -> int:
        if n <= 0:
            raise ValueError("divisor must be a positive integer")
        q, r = divmod(x, n)
        if r:
            raise IntegralityError(f"a {x.bit_length()}-bit integer is not divisible by {n}")
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
    Arithmetic accepts plain ints wherever a polynomial is expected; a product
    is the coefficient loop, skipping zero terms of its shorter operand.  Results
    of arithmetic are built by ``_make``; only the constructor validates.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        if not all(isinstance(c, int) for c in cs):
            raise TypeError("coefficients must be integers")
        self.coeffs = IntPolynomial._make(cs).coeffs

    @classmethod
    def _make(cls, cs: list) -> "IntPolynomial":
        """The polynomial of the integers cs with their zero tail popped, unvalidated (internal fast path)."""
        while cs and cs[-1] == 0:
            cs.pop()
        f = object.__new__(cls)
        f.coeffs = tuple(cs)
        return f

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

    def __add__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        if isinstance(other, int):
            other = IntPolynomial._make([other])
        elif not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial._make(out)

    __radd__ = __add__

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial._make([-c for c in self.coeffs])

    def __sub__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        return self + (-other) if isinstance(other, (int, IntPolynomial)) else NotImplemented

    def __rsub__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        return (-self) + other

    def __mul__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        if isinstance(other, int):
            return IntPolynomial._make([c * other for c in self.coeffs] if other else [])
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) > len(b):
            a, b = b, a
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return IntPolynomial._make(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "IntPolynomial":
        if e < 0:
            raise ValueError("negative power of a polynomial")
        return binary_power(self, e, operator.mul, IntPolynomial((1,)))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = IntPolynomial._make([other])
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:  # a constant hashes as the int it equals
        return hash(self.coeffs) if len(self.coeffs) > 1 else hash(self.leading())

    def evaluate(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def div_exact(self, other: "IntPolynomial") -> "IntPolynomial | None":
        """Exact quotient self/other over ZZ, or None: long division from the top (Knuth, TAOCP vol. 2, 4.6.1)."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem, b = list(self.coeffs), other.coeffs
        quot = [0] * max(len(rem) - len(b) + 1, 0)
        for k in reversed(range(len(quot))):  # term k of the quotient clears rem's degree k + deg b
            q, r = divmod(rem[k + len(b) - 1], b[-1])
            if r:
                return None
            quot[k] = q
            for i, c in enumerate(b, k):
                rem[i] -= q * c
        return None if any(rem) else IntPolynomial._make(quot)

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

    zero, one = IntPolynomial(), IntPolynomial((1,))
    add, neg, mul, eq, scalar_mul = operator.add, operator.neg, operator.mul, operator.eq, operator.mul

    def divide_exact(self, x: IntPolynomial, n: int) -> IntPolynomial:
        if n <= 0:
            raise ValueError("divisor must be a positive integer")
        out = []
        for c in x.coeffs:
            q, r = divmod(c, n)
            if r:
                raise IntegralityError(f"a {c.bit_length()}-bit coefficient is not divisible by {n}")
            out.append(q)
        return IntPolynomial._make(out)

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


def _support(cs: tuple) -> tuple:
    """cs up to its last term that is not == 0 (the constant term kept): over ZZ and ZZ[z], its last nonzero
    term.  A Witt vector never == 0, so no Witt-vector coefficient is realized to test it."""
    m = len(cs)
    while m > 1 and cs[m - 1] == 0:
        m -= 1
    return cs[:m]


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
        if other.ring is not ring and other.ring != ring:
            raise ValueError("series live over different rings")
        a, b, add, mul = self.coeffs, other.coeffs, ring.add, ring.mul
        s, t = _support(a), _support(b)  # each up to its last nonzero term
        if len(t) < len(s):
            a, b, s = b, a, t
        out, m = [mul(a[0], b[0])], len(s)
        for k in range(1, min(self.prec, other.prec) + 1):  # past s, the sum over s[1..m-1] reads b[k-m+1..k-1]
            acc = add(mul(a[0], b[k]), mul(a[k], b[0])) if k < m else mul(a[0], b[k])
            out.append(_conv(ring, a, b, k, acc) if k < m else _conv(ring, s, b[k - m : k], m, acc))
        return TruncatedSeries._make(ring, tuple(out))

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse; the constant term must be 1."""
        ring = self.ring
        if not ring.eq(self.coeffs[0], ring.one):
            raise ValueError("series inverse requires constant term 1")
        s, inv = _support(self.coeffs), [ring.one]
        m = len(s)  # past s, the sum over s[1..m-1] reads inv[k-m+1..k-1], from zero
        for k in range(1, self.prec + 1):
            acc = _conv(ring, s, inv, k, s[k]) if k < m else _conv(ring, s, inv[k - m : k], m, ring.zero)
            inv.append(ring.neg(acc))
        return TruncatedSeries._make(ring, tuple(inv))

    def _power(self, num: int, den: int) -> "TruncatedSeries":
        """self**(num/den), constant term 1, from s*q' = (num/den)*s'*q (Knuth, TAOCP
        vol. 2, 4.7): den*k*q_k = sum_{i=1..k} ((num+den)*i - den*k)*s_i*q_{k-i}.
        Only nonzero s_i are visited, so 1 - t^d costs O(N) steps for any num.  An
        inexact division (never for den = 1) raises IntegralityError at degree k."""
        ring, zero = self.ring, self.ring.zero
        terms = [(i, c) for i, c in enumerate(self.coeffs) if i and not ring.eq(c, zero)]
        out = [ring.one]
        for k in range(1, self.prec + 1):
            acc = zero
            for i, c in terms:
                if i > k:
                    break
                acc = ring.add(acc, ring.scalar_mul(ring.mul(c, out[k - i]), (num + den) * i - den * k))
            try:
                out.append(ring.divide_exact(acc, den * k))
            except IntegralityError as exc:
                msg = f"series has no exact {den}-th root: failure at degree {k}"
                raise IntegralityError(msg, degree=k) from exc
        return TruncatedSeries._make(ring, tuple(out))

    def pow_int(self, e: int) -> "TruncatedSeries":
        """Integer power.  For constant term 1: the inverse at e = -1, square-and-
        multiply for 0 <= e <= 2 (both cheaper there), else one pass of the power
        recurrence.  Another constant term allows e >= 0, by square-and-multiply."""
        if e == -1:
            return self.inverse()
        if not 0 <= e <= 2 and self.ring.eq(self.coeffs[0], self.ring.one):
            return self._power(e, 1)
        if e < 0:
            raise ValueError("a negative power requires constant term 1")
        return binary_power(self, e, operator.mul, TruncatedSeries.one(self.ring, self.prec))

    def nth_root(self, n: int) -> "TruncatedSeries":
        """The series q with q**n == self and constant term 1: the power recurrence
        with exponent 1/n.  Its right side at degree k is k times the residual
        s_k - [t^k](q_0..q_{k-1})^n, so the division by n*k fails exactly where
        that residual is not divisible by n; IntegralityError carries that k."""
        if n <= 0:
            raise ValueError("root index must be a positive integer")
        if not self.ring.eq(self.coeffs[0], self.ring.one):
            raise ValueError("series n-th root requires constant term 1")
        return self if n == 1 else self._power(1, n)

    def at_minus_t(self) -> "TruncatedSeries":
        """Substitute -t for t, negating the odd-degree coefficients."""
        ring = self.ring
        return TruncatedSeries._make(
            ring, tuple(ring.neg(c) if k & 1 else c for k, c in enumerate(self.coeffs))
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if self.ring is not other.ring and self.ring != other.ring:
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
