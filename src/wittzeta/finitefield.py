"""Finite field extensions, and affine point counting and enumeration by fibres.

An element of F_{p^k} is an int code: the residue c_0 + c_1 z + ... +
c_{k-1} z^(k-1) modulo a monic irreducible of degree k is the integer
c_0 + c_1 p + ... + c_{k-1} p^(k-1) in 0..q-1, so ``elements()`` is
``range(q)``.  Prime fields compute on residues; an extension field
multiplies, inverts, raises to powers (Frobenius included) and adds by
exp/log/Zech tables, built in O(q) steps on its first such operation or read
from a process-wide memo of at most ``_TABLE_CAP`` elements, oldest use out first.
The orbits of F_q under x -> x^(p^e), as cosets of l -> p^e l on logs, are kept
beside them under the same cap (``_frobenius_orbits``).

The default modulus for every (p, k) is the lexicographically smallest
monic irreducible, by ascending coefficient tuple, so field construction
is deterministic across runs; for k >= 2 the search starts at c0 = 1, as
every candidate with c0 = 0 is divisible by z.  Univariate polynomials
over a field are lists of codes for the irreducibility test, the table
builder and the fibre walk, which counts and lists an affine system by the
gcd g in y of its polynomials at the other variables.  It visits one value
of those per orbit of x -> x^p (``_orbit_points``) and weights the fibre
by the orbit's size, since x -> x^p maps a fibre onto the next one in the
orbit.  A quadratic g in characteristic 2 is sized by an absolute trace,
the parity of the code's bits under one mask per walk (``_trace_mask``).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
from array import array
from typing import Any, Callable, Iterator, Sequence

from .errors import BudgetError, SpecError
from .rings import IntPolynomial, binary_power

DEFAULT_ENUM_BUDGET = 1 << 24
_PARSE_PRODUCT_CAP = 1 << 20
_PARSE_COEFF_BITS = 1 << 12
_TABLE_CAP = 1 << 16  # field elements, summed over the memo's fields: about 2 MB of tables
_TABLES: dict[tuple, tuple[array, array, array]] = {}  # (p, k, modulus coeffs), least recently used first
_ORBITS: dict[tuple[int, int, int], tuple[array, array]] = {}  # (p, k, e), least recently used first

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact below psi_13; above it, ValueError unless a base divides n."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= 3317044064679887385961981:  # psi_13, the least strong pseudoprime to all bases
        raise ValueError(f"cannot prove {n} prime: it is at least psi_13 = 3317044064679887385961981")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _integer_root(n: int, k: int) -> int:
    """Floor of the k-th root of a nonnegative integer: Newton's method from a 40-bit float seed."""
    if n < 0 or k < 1:
        raise ValueError("nonnegative radicand and positive index required")
    if k == 1 or n < 2:
        return n
    shift = max(n.bit_length() // k - 40, 0)
    x = int(2 ** (math.log2(n >> k * shift) / k)) + 1 << shift
    x = ((k - 1) * x + n // x ** (k - 1)) // k  # at least the root, by AM-GM, whatever the seed
    while (y := ((k - 1) * x + n // x ** (k - 1)) // k) < x:
        x = y
    return x


def prime_power_decompose(q: int) -> tuple[int, int]:
    """Write q as p**k with p prime, or raise SpecError.

    q = r**e with r no perfect power, by exact roots at prime exponents; the exact
    roots of q are the r**j with j | e, so is_prime on them in rising order gives
    the verdict of trying every exponent from bit_length(q) down to 1."""
    if q < 2:
        raise SpecError(f"{q} is not a prime power")
    r, e, k = q, 1, 2
    while k <= r.bit_length():
        t = next(t for t in itertools.count(k + 1, k) if is_prime(t))  # r**((t-1)/k) is 0 or 1 mod t
        root = _integer_root(r, k) if pow(r % t, (t - 1) // k, t) < 2 else 0
        if root**k == r:
            r, e = root, e * k  # a root of r is no l-th power for a prime l < k either
        else:
            k = next(n for n in itertools.count(k + 1) if is_prime(n))
    for j in range(1, e + 1):
        if e % j == 0 and is_prime(r**j):
            return r**j, e // j
    raise SpecError(f"{q} is not a prime power")


# --- polynomials over a FiniteField, as trimmed ascending element lists ---


def _ftrim(field: FiniteField, a: list) -> list:
    while a and a[-1] == field.zero:
        a.pop()
    return a


def _fmul(field: FiniteField, a: list, b: list) -> list:
    """Product of two trimmed polynomials (a field has no zero divisors)."""
    if not a or not b:
        return []
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(x, y))
    return out


def _fmod(field: FiniteField, a: list, m: list) -> list:
    """Remainder of a modulo a monic m."""
    r, d = list(a), len(m) - 1
    while len(r) > d:
        c = field.neg(r.pop())
        if c != field.zero:
            shift = len(r) - d
            for i in range(d):
                r[shift + i] = field.add(r[shift + i], field.mul(c, m[i]))
    return _ftrim(field, r)


def _fgcd(field: FiniteField, a: list, b: list) -> list:
    """Monic gcd of a monic or zero a and any b; [] when both are zero."""
    while b:
        if b[-1] != field.one:
            inv = field.inv(b[-1])
            b = [field.mul(c, inv) for c in b]
        a, b = b, _fmod(field, a, b)
    return a


def _fpowmod(field: FiniteField, a: list, e: int, m: list) -> list:
    """a^e modulo a monic m of degree >= 1."""
    return binary_power(a, e, lambda u, v: _fmod(field, _fmul(field, u, v), m), [field.one])


def _common_roots(field: FiniteField, m: list, b: list) -> int:
    """deg gcd(m, b - y) for a monic m."""
    h = itertools.zip_longest(b, (field.zero, field.one), fillvalue=field.zero)
    return len(_fgcd(field, m, _ftrim(field, [field.sub(u, v) for u, v in h]))) - 1


def _is_irreducible(f: Sequence[int], p: int) -> bool:
    """Whether a monic f of degree >= 1 over F_p is irreducible: no factor of
    degree i <= deg/2, i.e. gcd(f, y^(p^i) - y) = 1 for each such i (Ben-Or).
    """
    fp = FiniteField._prime(p)
    b = [fp.zero, fp.one]
    for _ in range((len(f) - 1) // 2):
        b = _fpowmod(fp, b, p, f)
        if _common_roots(fp, f, b):
            return False
    return True


def find_irreducible(p: int, k: int) -> IntPolynomial:
    """Lexicographically smallest monic irreducible of degree k over F_p.

    Candidates are ordered by their ascending coefficient tuple
    (c0, ..., c_{k-1}), so the result is deterministic; for k = 1 this is
    the polynomial z itself.  For k >= 2 every candidate with c0 = 0 is
    divisible by z, so the search starts at c0 = 1.  p and k are checked on
    every call; the search is remembered for the last 1,024 (p, k) asked.
    """
    if not is_prime(p):
        raise SpecError(f"{p} is not prime")
    if k < 1:
        raise SpecError("extension degree must be at least 1")
    return _first_irreducible(p, k)


@functools.lru_cache(maxsize=1024)
def _first_irreducible(p: int, k: int) -> IntPolynomial:
    tails = itertools.product(range(1 if k > 1 else 0, p), *[range(p)] * (k - 1))
    return IntPolynomial(next(f for f in (list(t) + [1] for t in tails) if _is_irreducible(f, p)))


def _memo(memo: dict, key: tuple, build: Callable[[], Any]) -> Any:
    """memo[key], put back as the most recently used entry, or build() on a miss.  A value built for a
    field of q = key[0]**key[1] elements is kept if q fits ``_TABLE_CAP``, after the oldest entries go
    while their fields' sizes and q, summed, pass the cap; a larger field's value is never kept."""
    if (value := memo.pop(key, None)) is None:
        value, q = build(), key[0] ** key[1]
        if q > _TABLE_CAP:
            return value
        while sum(p**k for p, k, *_ in memo) + q > _TABLE_CAP:
            del memo[next(iter(memo))]
    memo[key] = value
    return value


def _frobenius_orbits(p: int, k: int, e: int) -> tuple[array, array]:
    """(logs, sizes): the least l and the size of each coset of l -> p^e l mod p^k - 1.  These are the
    orbits of the nonzero elements of F_(p^k) under x -> x^(p^e), as logs to any primitive element;
    kept in ``_ORBITS`` by ``_memo``."""
    def build() -> tuple[array, array]:
        m = p**k - 1
        step, seen, logs, sizes = p**e % m, bytearray(m), array("l"), array("l")
        for l in range(m):
            if not seen[l]:  # l starts a new cycle of the permutation l -> step * l
                j, c = l, 0
                while not seen[j]:
                    seen[j], j, c = 1, j * step % m, c + 1
                logs.append(l)
                sizes.append(c)
        return logs, sizes

    return _memo(_ORBITS, (p, k, e), build)


def _orbit_points(field: FiniteField, m: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """(x, w): one point x of each orbit of F_q^m under sigma: x -> x^p on every coordinate, and its
    orbit's size w.  x_1 takes one element of each orbit under sigma, then x_2 one of each orbit under
    x_1's stabiliser sigma^e, e the size of x_1's orbit, and so on: w is the product of the sizes.
    Prime fields, and every coordinate after sigma^e fixes F_q (k | e), run over all of F_q in code order."""
    def extend(x: tuple[int, ...], e: int, w: int) -> Iterator[tuple[tuple[int, ...], int]]:
        if e % field.k == 0 or len(x) == m:
            for tail in itertools.product(field.elements(), repeat=m - len(x)):
                yield x + tail, w
            return
        exp = (field._tables or field._build())[0]
        logs, sizes = _frobenius_orbits(field.p, field.k, e)
        for y, c in itertools.chain([(0, 1)], zip(map(exp.__getitem__, logs), sizes)):
            if len(x) + 1 == m:
                yield x + (y,), w * c
            else:
                yield from extend(x + (y,), e * c, w * c)

    return extend((), 1, 1)


class FiniteField:
    """F_{p^k}; the element c_0 + c_1 z + ... + c_{k-1} z^(k-1) is the int
    code c_0 + c_1 p + ... + c_{k-1} p^(k-1) in 0..q-1.

    The modulus may be supplied explicitly (it is verified to be monic,
    reduced and irreducible) and defaults to ``find_irreducible(p, k)``.
    Prime fields compute on residues.  Extension fields multiply, invert
    and raise to powers by exp/log tables of a primitive element g, and add
    by its Zech table, read on first use from the module's memo or built in
    O(q) steps and O(q) words; no instance is cached, only moduli and tables.
    """

    __slots__ = ("p", "k", "modulus", "size", "_tables")

    zero, one = 0, 1

    def __init__(self, p: int, k: int, modulus: IntPolynomial | None = None):
        if modulus is None:
            modulus = find_irreducible(p, k)  # which proves p prime and checks k
        elif not is_prime(p):
            raise SpecError(f"{p} is not prime")
        elif k < 1:
            raise SpecError("extension degree must be at least 1")
        elif modulus.degree != k or modulus.leading() != 1:
            raise SpecError(f"modulus must be monic of degree {k}")
        elif any(not 0 <= c < p for c in modulus.coeffs):
            raise SpecError("modulus coefficients must be reduced mod p")
        elif not _is_irreducible(list(modulus.coeffs), p):
            raise SpecError(f"modulus {modulus} is reducible over F_{p}")
        self.p, self.k, self.modulus, self.size = p, k, modulus, p**k
        self._tables: tuple[array, array, array] | None = None

    @classmethod
    def _prime(cls, p: int) -> "FiniteField":
        """F_p for a known prime p, without ``__init__`` (internal fast path)."""
        field = object.__new__(cls)
        field.p, field.k, field.modulus, field.size, field._tables = p, 1, IntPolynomial((0, 1)), p, None
        return field

    def _build(self) -> tuple[array, array, array]:
        """The field's tables, read from ``_TABLES`` or tabulated (see ``_memo``), and kept on the field."""
        self._tables = _memo(_TABLES, (self.p, self.k, self.modulus.coeffs), self._tabulate)
        return self._tables

    def _tabulate(self) -> tuple[array, array, array]:
        """exp (twice over), log and Zech tables (1 + g^n = g^zech[n], or 0
        where zech[n] = -1) of a primitive g.  Walking zmul, z times every
        code, gives <z> of order r and index s; the first u in code order
        with u^j outside <z> for 0 < j < s spans the cosets u^j<z>.  With
        u^s = z^w, g = u z^t is primitive for the least t with gcd(w + s t, r)
        = 1 (by the CRT one exists), and g^(j + s v) = u^j z^((w + s t) v + t j).
        The tables are shared through ``_TABLES`` and never written after this.
        """
        p, k, q = self.p, self.k, self.size
        m, fp, f = q - 1, FiniteField._prime(p), list(self.modulus.coeffs)
        zmul: list[int] = []
        for c in range(p):  # z*(a + c z^(k-1)) = z*a - c*(f - z^k) for every a < p^(k-1)
            wrap = [(-c * fi) % p for fi in f[:k]]
            shifted = [0]
            for i, d in enumerate(wrap[1:]):
                shifted = [(e + d) % p * p**i + v for e in range(p) for v in shifted]
            zmul += [p * v + wrap[0] for v in shifted]
        log, x, r = array("l", [-1]) * q, 1, 0
        while log[x] < 0:  # log[z^i] = i for now; log[x] is set before x moves on
            log[x], x, r = r, zmul[x], r + 1
        s = m // r
        for u in range(p, q):
            ud = _ftrim(fp, [u // p**i % p for i in range(k)])
            reps, x, xd = [1], u, ud
            while log[x] < 0:  # x = u^len(reps), with coefficient list xd
                reps.append(x)
                xd = _fmod(fp, _fmul(fp, xd, ud), f)
                x = sum(c * p**i for i, c in enumerate(xd))
            if len(reps) == s:
                break
        t = next(t for t in range(r) if math.gcd(log[x] + s * t, r) == 1)
        w = log[x] + s * t
        exp = array("l", [0]) * m
        for j, x in enumerate(reps):
            coset = list(itertools.accumulate(range(r - 1), lambda y, _: zmul[y], initial=x))
            exp[j::s] = array("l", [coset[(w * v + t * j) % r] for v in range(r)])
        for n, x in enumerate(exp):
            log[x] = n
        exp += exp
        return exp, log, array("l", (log[x + 1 if x % p < p - 1 else x + 1 - p] for x in exp[:m]))

    def from_int(self, n: int) -> int:
        return n % self.p

    def add(self, x: int, y: int) -> int:
        if self.k == 1:
            return (x + y) % self.p
        if not x or not y:
            return x or y
        exp, log, zech = self._tables or self._build()
        a = log[x]
        n = zech[log[y] - a]  # a negative index wraps to the difference mod q-1
        return exp[a + n] if n >= 0 else 0

    def neg(self, x: int) -> int:
        return self.mul(x, self.p - 1)  # p - 1 is the code of -1

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def mul(self, x: int, y: int) -> int:
        if self.k == 1:
            return x * y % self.p
        if not x or not y:
            return 0
        exp, log, _ = self._tables or self._build()
        return exp[log[x] + log[y]]

    def pow(self, x: int, e: int) -> int:
        if not x:
            if e < 0:
                raise ZeroDivisionError("inverse of zero in a finite field")
            return 0 if e else 1
        if self.k == 1:
            return pow(x, e, self.p)
        exp, log, _ = self._tables or self._build()
        return exp[log[x] * e % (self.size - 1)]

    def inv(self, x: int) -> int:
        return self.pow(x, -1)

    def elements(self) -> range:
        """All field elements, in ascending code order."""
        return range(self.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteField):
            return NotImplemented
        return (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)

    def __hash__(self) -> int:
        return hash((self.p, self.k, self.modulus))

    def __repr__(self) -> str:
        return f"FiniteField({self.p}, {self.k})"


class MultiPoly:
    """Sparse multivariate integer polynomial: exponent tuple -> coefficient."""

    __slots__ = ("nvars", "terms", "_plan")

    def __init__(self, nvars: int, terms: dict[tuple[int, ...], int] | None = None):
        if nvars < 1:
            raise ValueError("a multivariate polynomial needs at least one variable")
        clean: dict[tuple[int, ...], int] = {}
        for exps, c in (terms or {}).items():
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps!r} for {nvars} variables")
            if c:
                clean[tuple(exps)] = c
        self.nvars = nvars
        self.terms = clean
        self._plan: tuple | None = None  # (field, terms, tables) of the last field evaluated over

    @classmethod
    def constant(cls, nvars: int, c: int) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "MultiPoly":
        exps = [0] * nvars
        exps[index] = 1
        return cls(nvars, {tuple(exps): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        out = dict(self.terms)
        for exps, c in other.terms.items():
            out[exps] = out.get(exps, 0) + c
        return MultiPoly(self.nvars, out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return MultiPoly(self.nvars, out)

    def __pow__(self, e: int) -> "MultiPoly":
        if e < 0:
            raise ValueError("negative power of a polynomial")
        return binary_power(self, e, operator.mul, MultiPoly.constant(self.nvars, 1))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.nvars, tuple(sorted(self.terms.items()))))

    def evaluate(self, field: FiniteField, point: Sequence[int]) -> int:
        """The value at a point, as a code.  Terms are prepared once per field (the plan slot keeps
        the last): coefficient residue, or its log on F_q, and the positions of the nonzero exponents
        e, reduced to (e - 1) mod (q - 1) + 1.  A call then does integer arithmetic only: residues and
        pow(x, e, p) on F_p, log sums and Zech adds on F_q (a zero coordinate zeroes its term)."""
        if self._plan is None or self._plan[0] is not field:
            m, tables = field.size - 1, None if field.k == 1 else field._tables or field._build()
            self._plan = (field, [(c % field.p if tables is None else tables[1][c % field.p],
                                   [(i, (e - 1) % m + 1) for i, e in enumerate(exps) if e])
                                  for exps, c in self.terms.items() if c % field.p], tables)
        _, terms, tables = self._plan
        if tables is None:
            p = field.p
            return sum(c * math.prod(pow(point[i], e, p) for i, e in xs) for c, xs in terms) % p
        (exp, log, zech), m, acc = tables, field.size - 1, -1  # acc = log of the sum, -1 for zero
        for lc, xs in terms:
            for i, e in xs:
                if (lx := log[point[i]]) < 0:
                    break
                lc += e * lx
            else:  # acc + g^lc by the Zech table, n < 0 where the two cancel
                acc = lc % m if acc < 0 else (acc + n) % m if (n := zech[(lc - acc) % m]) >= 0 else -1
        return exp[acc] if acc >= 0 else 0

    def __repr__(self) -> str:
        return f"MultiPoly({self.nvars}, {self.terms!r})"


# --- minimal expression grammar: integers, variables, + - * ^, parentheses ---


# \d is str.isdecimal, what int() reads (str.isdigit would pass superscripts too); \w is str.isalnum or "_"
_TOKEN = re.compile(r"\s*(?:(\d+)|(\w+)|([-+*^()])|(\S))")


def _tokenize(text: str) -> list[tuple[str, str | int]]:
    tokens: list[tuple[str, str | int]] = []
    for digits, word, op, other in _TOKEN.findall(text):
        if digits:
            try:
                tokens.append(("int", int(digits)))
            except ValueError as exc:
                raise SpecError(f"a {len(digits)}-digit literal in a polynomial is past the int/str digit limit") from exc
        elif op:
            tokens.append((op, op))
        elif word and (word[0].isalpha() or word[0] == "_"):
            tokens.append(("name", word))
        else:  # a word must start with a letter or "_", not with a numeral such as ² or ½
            raise SpecError(f"unexpected character {(word or other)[0]!r} in polynomial {text!r}")
    return tokens


def parse_polynomial(text: str, varnames: Sequence[str]) -> MultiPoly:
    """Parse an expression over the named variables into a MultiPoly.

    Expanding products and powers may take at most ``_PARSE_PRODUCT_CAP``
    term products in all, and no product may have a coefficient of more
    than ``_PARSE_COEFF_BITS`` bits, both bounded before each product is
    formed; past either cap the parse raises SpecError instead of running
    without bound.
    """
    nvars = len(varnames)
    index = {name: i for i, name in enumerate(varnames)}
    tokens = _tokenize(text)
    pos = 0
    products = 0

    def times(f: MultiPoly, g: MultiPoly) -> MultiPoly:
        nonlocal products
        products += len(f.terms) * len(g.terms)
        if products > _PARSE_PRODUCT_CAP:
            raise SpecError(
                f"expanding polynomial {text!r} needs more than {_PARSE_PRODUCT_CAP} term products"
            )
        bits = sum(max((abs(c).bit_length() for c in h.terms.values()), default=0) for h in (f, g))
        if bits + min(len(f.terms), len(g.terms)).bit_length() > _PARSE_COEFF_BITS:
            raise SpecError(f"expanding polynomial {text!r} needs coefficients past {_PARSE_COEFF_BITS} bits")
        return f * g

    def peek() -> str:
        return tokens[pos][0] if pos < len(tokens) else ""

    def take(kind: str) -> Any:
        nonlocal pos
        if peek() != kind:
            raise SpecError(f"expected {kind!r} at token {pos} in polynomial {text!r}")
        value = tokens[pos][1]
        pos += 1
        return value

    def parse_expr() -> MultiPoly:
        node = parse_term()
        while peek() in ("+", "-"):
            op = take(peek())
            rhs = parse_term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def parse_term() -> MultiPoly:
        node = parse_unary()
        while peek() == "*":
            take("*")
            node = times(node, parse_unary())
        return node

    def parse_unary() -> MultiPoly:
        if peek() == "-":
            take("-")
            return -parse_unary()
        return parse_power()

    def parse_power() -> MultiPoly:
        base = parse_atom()
        if peek() == "^":
            take("^")
            return binary_power(base, take("int"), times, MultiPoly.constant(nvars, 1))
        return base

    def parse_atom() -> MultiPoly:
        kind = peek()
        if kind == "int":
            return MultiPoly.constant(nvars, take("int"))
        if kind == "name":
            name = take("name")
            if name not in index:
                raise SpecError(f"unknown variable {name!r} in polynomial {text!r}")
            return MultiPoly.variable(nvars, index[name])
        if kind == "(":
            take("(")
            node = parse_expr()
            take(")")
            return node
        raise SpecError(f"unexpected end of polynomial {text!r}")

    try:
        result = parse_expr()
    except RecursionError as exc:
        raise SpecError("polynomial is nested too deeply to parse") from exc
    if pos != len(tokens):
        raise SpecError(f"trailing tokens in polynomial {text!r}")
    return result


def _charge_budget(required: int, budget: int) -> None:
    """The one enumeration budget gate: refuse a search space of size required past budget."""
    if required > budget:
        raise BudgetError(f"the search space has size {required}, budget is {budget}",
                          required=required, budget=budget)


def _fibres(polys: Sequence[MultiPoly], nvars: int, field: FiniteField, budget: int) -> tuple:
    """(v, size, fibres), the walk shared by counting and enumeration; checks arity and budget (q^n) first.

    The variable y = x_v of least degree stays symbolic: one pass splits each polynomial into sum_j c_j y^j
    (y^q = y on F_q, so j < q), one MultiPoly c_j per j with summed integer coefficients.  fibres yields
    (rest, weight, g) for one value rest of the other variables per Frobenius orbit (``_orbit_points``),
    weight the orbit's size and g the monic gcd over arith of the specialised polynomials, [] if all
    vanish.  The c_j have integer coefficients, so the fibre over rest^p is the p-th power of the fibre over
    rest: every point of the orbit has a fibre of g's size.  size is ``_fibre_size`` bound to (field,
    arith, mask), mask ``_trace_mask(arith)`` once per walk if p = 2.  In one variable arith is F_p inside
    F_q (no F_q table).
    """
    if nvars < 1:
        raise ValueError("need at least one variable")
    if any(f.nvars != nvars for f in polys):
        raise ValueError("polynomial arity does not match the variable count")
    _charge_budget(field.size**nvars, budget)
    v = min(range(nvars), key=lambda i: max((e[i] for f in polys for e in f.terms), default=0))
    coeffs = []
    for f in polys:
        by_power: dict[int, dict[tuple[int, ...], int]] = {}
        for exps, c in f.terms.items():
            part = by_power.setdefault(min(exps[v], (exps[v] - 1) % (field.size - 1) + 1), {})
            rest = exps[:v] + (0,) + exps[v + 1:]
            part[rest] = part.get(rest, 0) + c
        coeffs.append([MultiPoly(nvars, by_power.get(j)) for j in range(max(by_power, default=-1) + 1)])
    arith = field if nvars > 1 else FiniteField._prime(field.p)
    size = functools.partial(_fibre_size, field, arith, _trace_mask(arith) if field.p == 2 else 0)

    def walk() -> Iterator[tuple[tuple[int, ...], int, list]]:
        for rest, weight in _orbit_points(field, nvars - 1):
            point, g = rest[:v] + (0,) + rest[v:], []
            for cs in coeffs:
                g = _fgcd(arith, g, _ftrim(arith, [c.evaluate(arith, point) for c in cs]))
            yield rest, weight, g

    return v, size, walk()


def _trace_mask(field: FiniteField) -> int:
    """The mask whose bit i is Tr_(F_q/F_2)(z^i), q = 2^k: the trace is F_2-linear on the code bits,
    so Tr(u) is the parity of u & mask.  Tr(z^i) is the i-th power sum s_i of the modulus's roots, so
    Newton's identities mod 2 give s_0 = k and s_i = i f_(k-i) + sum_(0<j<i) f_(k-j) s_(i-j), where
    f_j is the t^j coefficient of the modulus."""
    f, k = field.modulus.coeffs, field.k
    sums = [k & 1]
    for i in range(1, k):
        sums.append((i * f[k - i] + sum(f[k - j] * sums[i - j] for j in range(1, i))) & 1)
    return sum(s << i for i, s in enumerate(sums))  # z^i is the code 2^i


def _fibre_size(field: FiniteField, arith: FiniteField, mask: int, g: list) -> int:
    """F_q-roots of a fibre's gcd g over arith, F_q = F_(|arith|^m): all of F_q if g = [], deg g if
    deg g <= 1, deg gcd(g, y^q - y) if deg g >= 3.  y^2 + b y + c has one if b^2 - 4c (p odd) or b
    (p = 2) is 0, else two if b^2 - 4c is a square in arith or m is even (p odd), or if the trace
    Tr_(F_q/F_2)(c/b^2) = m Tr_(arith/F_2)(c/b^2) is 0 (p = 2, as for y^2 + y + u; Tr_(arith/F_2)(u) is
    the parity of u & mask, mask = ``_trace_mask(arith)``, unread for odd p), else none.
    """
    if len(g) > 3:
        return _common_roots(arith, g, _fpowmod(arith, [0, 1], field.size, g))
    if len(g) < 3:
        return len(g) - 1 if g else field.size
    c, b = g[:2]
    m = field.k // arith.k
    if arith.p == 2:
        if not b:
            return 1
        return 0 if (arith.mul(c, arith.pow(b, -2)) & mask).bit_count() * m % 2 else 2
    d = arith.sub(arith.mul(b, b), arith.mul(arith.from_int(4), c))
    if not d:
        return 1
    return 2 if m % 2 == 0 or arith.pow(d, (arith.size - 1) // 2) == 1 else 0


def iter_affine_solutions(polys: Sequence[MultiPoly], nvars: int, field: FiniteField,
                          budget: int = DEFAULT_ENUM_BUDGET) -> Iterator[tuple[int, ...]]:
    """Yield every point of the affine vanishing locus once, Frobenius orbit by orbit (see ``_fibres``).
    Each representative fibre is scanned once: the y in code order, all of F_q if g = [], else the roots
    of g by a Horner scan that stops at the fibre's size (or deg g).  Each point found is followed by its
    weight - 1 images under x -> x^p, coordinatewise: the points over the rest of the orbit.  Refuses
    q^n past the budget."""
    v, size, fibres = _fibres(polys, nvars, field, budget)
    add, mul, p = field.add, field.mul, field.p
    for rest, weight, g in fibres:
        left = size(g) if len(g) <= 3 else len(g) - 1
        for y in field.elements():
            if not left:
                break
            acc = 0
            for c in reversed(g):
                acc = add(mul(acc, y), c)
            if not acc:
                left -= 1
                point = rest[:v] + (y,) + rest[v:]
                yield point
                for _ in range(weight - 1):
                    point = tuple(field.pow(x, p) for x in point)
                    yield point


def count_affine_points(polys: Sequence[MultiPoly], nvars: int, field: FiniteField,
                        budget: int = DEFAULT_ENUM_BUDGET) -> int:
    """Number of solutions of the system over the field: the fibre sizes of ``_fibres``, each
    times its orbit's weight, summed.  The budget caps q^n, the size of the searched space."""
    _, size, fibres = _fibres(polys, nvars, field, budget)
    return sum(weight * size(g) for _, weight, g in fibres)
