"""Independent plain-integer routes used to verify every benchmark output.

Nothing here imports ``wittzeta``.  Each function works on plain Python
ints and lists, so a defect in the library cannot hide behind the same
defect in its checker.  Series are lists of coefficients; a Witt vector
is its list a1..aN with the constant term 1 left implicit.
"""

from __future__ import annotations

import math


def ghosts(a: list[int]) -> list[int]:
    """Ghost coordinates by the recurrence b_n = n*a_n - sum a_i*b_(n-i)."""
    b: list[int] = []
    for n in range(1, len(a) + 1):
        acc = n * a[n - 1]
        for i in range(1, n):
            acc -= a[i - 1] * b[n - 1 - i]
        b.append(acc)
    return b


def ghost_grid(outer: list[list[int]]) -> list[list[int]]:
    """Double ghost grid G[n-1][m-1] of a vector in W_M(W_N(ZZ)).

    The inner ghost map is a ring map W_N(ZZ) -> ZZ^N, so the outer ghost
    recurrence runs pointwise on the inner ghost vectors.
    """
    inner = [ghosts(c) for c in outer]
    grid: list[list[int]] = []
    for n in range(1, len(inner) + 1):
        acc = [n * x for x in inner[n - 1]]
        for i in range(1, n):
            acc = [x - y * z for x, y, z in zip(acc, inner[i - 1], grid[n - 1 - i])]
        grid.append(acc)
    return grid


def poly_eval(coeffs: list[int], z: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def series_mul(a: list[int], b: list[int], n: int) -> list[int]:
    """Product of two series truncated to degrees 0..n."""
    out = [0] * (n + 1)
    for i, x in enumerate(a[: n + 1]):
        if x:
            for j, y in enumerate(b[: n + 1 - i]):
                out[i + j] += x * y
    return out


def series_div(num: list[int], den: list[int], n: int) -> list[int]:
    """num/den to degrees 0..n; den must have constant term 1."""
    if den[0] != 1:
        raise ValueError("denominator needs constant term 1")
    num = list(num[: n + 1]) + [0] * (n + 1 - len(num[: n + 1]))
    out: list[int] = []
    for k in range(n + 1):
        acc = num[k]
        for i in range(1, min(k, len(den) - 1) + 1):
            acc -= den[i] * out[k - i]
        out.append(acc)
    return out


def trace_counts(q: int, s1: int, rmax: int) -> list[int]:
    """Traces s_1..s_rmax of a genus-1 curve: s_r = s_1*s_(r-1) - q*s_(r-2)."""
    out = []
    s_prev, s = 2, s1
    for _ in range(rmax):
        out.append(s)
        s_prev, s = s, s1 * s - q * s_prev
    return out


def elliptic_counts(q: int, s1: int, rmax: int) -> list[int]:
    """N_r = q^r + 1 - s_r for the projective curve."""
    return [q**r + 1 - s for r, s in enumerate(trace_counts(q, s1, rmax), 1)]


def short_weierstrass_trace(p: int, a: int, b: int) -> int:
    """s_1 = p + 1 - #E(F_p) for y^2 = x^3 + a*x + b, by a table of squares."""
    roots = [0] * p
    for y in range(p):
        roots[y * y % p] += 1
    affine = sum(roots[(x * x * x + a * x + b) % p] for x in range(p))
    return p - affine


def short_weierstrass_counts(p: int, a: int, b: int, rmax: int) -> list[int]:
    """N_1..N_rmax of the projective curve y^2 = x^3 + a*x + b over F_p."""
    return elliptic_counts(p, short_weierstrass_trace(p, a, b), rmax)


def weierstrass_value(coef: tuple[int, ...], x: int, y: int) -> int:
    """y^2 + a1*x*y + a3*y - x^3 - a2*x^2 - a4*x - a6."""
    a1, a2, a3, a4, a6 = coef
    return y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6


def weierstrass_discriminant(coef: tuple[int, ...]) -> int:
    a1, a2, a3, a4, a6 = coef
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def weierstrass_trace(p: int, coef: tuple[int, ...]) -> int:
    """s_1 = p - #(affine points over F_p), by plain enumeration."""
    affine = sum(
        1 for x in range(p) for y in range(p) if weierstrass_value(coef, x, y) % p == 0
    )
    return p - affine


def weierstrass_affine_counts(p: int, coef: tuple[int, ...], rmax: int) -> list[int]:
    """Affine points q^r - s_r of a nonsingular Weierstrass curve, r = 1..rmax."""
    traces = trace_counts(p, weierstrass_trace(p, coef), rmax)
    return [p**r - s for r, s in enumerate(traces, 1)]


def mobius(n: int) -> int:
    result, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    return -result if n > 1 else result


def closed_points(counts: list[int], dmax: int) -> list[int]:
    """Closed points of degree 1..dmax from N_1..N_dmax, by Moebius inversion."""
    out = []
    for d in range(1, dmax + 1):
        total = sum(mobius(d // e) * counts[e - 1] for e in range(1, d + 1) if d % e == 0)
        q, r = divmod(total, d)
        if r or q < 0:
            raise ValueError(f"counts give no closed-point count in degree {d}")
        out.append(q)
    return out


def multiset_count(closed: list[int], n: int) -> int:
    """Multisets of closed points of total degree n: [u^n] prod (1-u^d)^(-c_d)."""
    ways = [1] + [0] * n
    for d, c in enumerate(closed[:n], 1):
        nxt = [0] * (n + 1)
        for total in range(n + 1):
            for k in range(total // d + 1):
                if ways[total - d * k]:
                    nxt[total] += (math.comb(c + k - 1, k) if k else 1) * ways[total - d * k]
        ways = nxt
    return ways[n]


def sym_counts(counts: list[int], n: int, rmax: int) -> list[int]:
    """N_r(Sym^n X) for r = 1..rmax from N_1..N_(n*rmax) of X."""
    return [
        multiset_count(closed_points([counts[r * e - 1] for e in range(1, n + 1)], n), n)
        for r in range(1, rmax + 1)
    ]


def sym_elliptic_zeta(q: int, s1: int, n: int, prec: int) -> list[int]:
    """Z(Sym^n E, t) to degree prec, coefficients 1..prec, in closed form.

    Sym^n E is a P^(n-1)-bundle over E for n >= 1, so
    Z(Sym^n E, t) = prod_(i<n) Z(E, q^i t) with
    Z(E, t) = (1 - s1*t + q*t^2) / ((1 - t)(1 - q*t)).
    """
    num, den = [1], [1]
    for i in range(n):
        num = series_mul(num, [1, -s1 * q**i, q ** (2 * i + 1)], prec)
        den = series_mul(den, series_mul([1, -(q**i)], [1, -(q ** (i + 1))], prec), prec)
    return series_div(num, den, prec)[1:]
