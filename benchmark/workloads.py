"""The three seeded workloads: problem classes, input generation, checks.

A workload is a fixed cycle of problem classes.  Cycle i draws its inputs
from a generator seeded by (workload, seed, i), so the same seed gives the
same problems and every run solves whole cycles in the same class mix.
Each problem is solved once, cold.  ``run`` is the timed call into the
library; ``raw`` turns its output into plain ints outside the timed
region, and ``check`` compares those against ``oracles``, which never
touches the library.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from typing import Any, Callable, NamedTuple

import oracles as ora


class Problem(NamedTuple):
    cls: str
    run: Callable[[], Any]
    raw: Callable[[Any], Any]
    check: Callable[[Any], bool]


# --- plain views of library values ---


def witt_raw(v) -> list:
    """Coefficients a1..aN as ints, lists of ints (ZZ[z]) or nested lists."""
    return [_elem_raw(c) for c in v.coeffs]


def _elem_raw(c):
    if isinstance(c, int):
        return c
    if hasattr(c, "series"):
        return witt_raw(c)
    return list(c.coeffs)


def _doc_ints(doc):
    """Decimal strings of a CLI JSON document back to ints, recursively."""
    if isinstance(doc, dict):
        return {k: v if k == "display" else _doc_ints(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_doc_ints(x) for x in doc]
    if isinstance(doc, str):
        return int(doc)
    return doc


def cli_problem(cls: str, wz, argv: list[str], check: Callable[[Any], bool]) -> Problem:
    """A request to ``wittzeta.cli.main`` with stdout captured.

    The raw view keeps the exact stdout text beside its decoded document,
    so comparing raw views compares the bytes a CLI user would see.
    """
    cli = wz.cli

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def raw(out):
        code, text = out
        if code != 0:
            raise RuntimeError(f"wittzeta {argv[0]} exited with code {code}")
        return {"doc": _doc_ints(json.loads(text)), "stdout": text}

    return Problem(cls, run, raw, lambda r: check(r["doc"]))


def _small(rng: random.Random, n: int) -> list[int]:
    return [rng.randint(-10, 10) for _ in range(n)]


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


def _prime_between(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        n = rng.randrange(lo, hi)
        if _is_prime(n):
            return n


def _prime_log_uniform(rng: random.Random, lo: int, hi: int) -> int:
    """A prime in [lo, hi) near a log-uniform draw, so costs that grow with
    log p spread evenly instead of piling up at one size."""
    while True:
        n = int(lo * (hi / lo) ** rng.random())
        while n < hi:
            if _is_prime(n):
                return n
            n += 1


def _curve(rng: random.Random, p: int) -> tuple[int, int]:
    """Random (a, b) with y^2 = x^3 + a*x + b nonsingular over F_p."""
    while True:
        a, b = rng.randrange(p), rng.randrange(p)
        if (4 * a**3 + 27 * b * b) % p:
            return a, b


def _elliptic(rng: random.Random, lo: int, hi: int) -> tuple[int, int, int]:
    """A random nonsingular y^2 = x^3 + a*x + b over F_p, lo <= p < hi."""
    p = _prime_between(rng, lo, hi)
    return (p, *_curve(rng, p))


def _elliptic_doc(p: int, a: int, b: int) -> str:
    return json.dumps({"type": "elliptic", "p": p, "a": a, "b": b})


# --- witt-arith: many Witt operations on small coefficients ---


def _mul(n: int):
    def make(rng, wz):
        a, b = _small(rng, n), _small(rng, n)
        p, q = wz.WittVector.from_coeffs(wz.ZZ, a), wz.WittVector.from_coeffs(wz.ZZ, b)
        want = [x * y for x, y in zip(ora.ghosts(a), ora.ghosts(b))]
        return Problem(f"mul{n}", lambda: wz.witt_mul(p, q), witt_raw,
                       lambda r: ora.ghosts(r) == want)
    return make


def _roundtrip(n: int):
    def make(rng, wz):
        a = _small(rng, n)
        p = wz.WittVector.from_coeffs(wz.ZZ, a)

        def run():
            g = wz.ghost(p)
            return g, wz.ghost_inverse(g)
        return Problem(f"roundtrip{n}", run,
                       lambda out: [list(out[0].coords), witt_raw(out[1])],
                       lambda r: r[0] == ora.ghosts(a) and r[1] == a)
    return make


def _frob(n: int):
    def make(rng, wz):
        a = _small(rng, n)
        k = rng.choice((2, 3, 5))
        p = wz.WittVector.from_coeffs(wz.ZZ, a)
        g = ora.ghosts(a)
        want = [g[k * m - 1] for m in range(1, n // k + 1)]
        return Problem(f"frob{n}", lambda: wz.frobenius(p, k), witt_raw,
                       lambda r: ora.ghosts(r) == want)
    return make


def _zpoly_mul(n: int):
    points = (2, 3, -5)

    def make(rng, wz):
        a = [_small(rng, 3) for _ in range(n)]
        b = [_small(rng, 3) for _ in range(n)]

        def vec(cs):
            return wz.WittVector.from_coeffs(wz.ZPOLY, [wz.IntPolynomial(c) for c in cs])
        p, q = vec(a), vec(b)

        def at(cs, z):
            return ora.ghosts([ora.poly_eval(c, z) for c in cs])
        want = [[x * y for x, y in zip(at(a, z), at(b, z))] for z in points]
        return Problem(f"zpoly_mul{n}", lambda: wz.witt_mul(p, q), witt_raw,
                       lambda r: [at(r, z) for z in points] == want)
    return make


def _macdonald(n: int):
    points = (2, 3)

    def make(rng, wz):
        betti = [1] + [rng.randint(0, 6) for _ in range(rng.randint(1, 4))]
        signed = [-b if i & 1 else b for i, b in enumerate(betti)]
        want = [[ora.poly_eval(signed, z**m) for m in range(1, n + 1)] for z in points]
        return Problem(f"macdonald{n}", lambda: wz.macdonald_poincare(betti, n), witt_raw,
                       lambda r: [ora.ghosts([ora.poly_eval(c, z) for c in r]) for z in points] == want)
    return make


def _nested_mul(m: int, n: int):
    def make(rng, wz):
        inner = wz.WittRing(wz.ZZ, n)
        a = [_small(rng, n) for _ in range(m)]
        b = [_small(rng, n) for _ in range(m)]

        def vec(cs):
            return wz.WittVector.from_coeffs(inner, [wz.WittVector.from_coeffs(wz.ZZ, c) for c in cs])
        p, q = vec(a), vec(b)
        want = [[x * y for x, y in zip(u, v)] for u, v in zip(ora.ghost_grid(a), ora.ghost_grid(b))]
        return Problem(f"nested{m}x{n}", lambda: wz.witt_mul(p, q), witt_raw,
                       lambda r: ora.ghost_grid(r) == want)
    return make


# --- sym-pipeline: the paper's application, mostly through the CLI ---


def _zeta(lo: int, hi: int, prec: int, cls: str):
    def make(rng, wz):
        p = _prime_log_uniform(rng, lo, hi)
        a, b = _curve(rng, p)
        argv = ["zeta", "--spec", _elliptic_doc(p, a, b), "-N", str(prec)]

        def check(doc):
            counts = ora.short_weierstrass_counts(p, a, b, prec)
            return doc["precision"] == prec and ora.ghosts(doc["coeffs"]) == counts
        return cli_problem(cls, wz, argv, check)
    return make


def _sym(n: int, prec: int):
    def make(rng, wz):
        p = _prime_log_uniform(rng, 1000, 100_000)
        a, b = _curve(rng, p)
        argv = ["sym", "--spec", _elliptic_doc(p, a, b), "-n", str(n), "-N", str(prec)]

        def check(doc):
            counts = ora.short_weierstrass_counts(p, a, b, n * prec)
            return ora.ghosts(doc["coeffs"]) == ora.sym_counts(counts, n, prec)
        return cli_problem(f"sym{n}_N{prec}", wz, argv, check)
    return make


def _series(m: int):
    def make(rng, wz):
        p = _prime_log_uniform(rng, 5, 60)
        a, b = _curve(rng, p)
        argv = ["series", "--spec", _elliptic_doc(p, a, b), "-M", str(m), "-N", str(m)]

        def check(doc):
            counts = ora.short_weierstrass_counts(p, a, b, m * m)
            grid = ora.ghost_grid([c["coeffs"] for c in doc["coeffs"]])
            return grid == [[counts[i * j - 1] for j in range(1, m + 1)] for i in range(1, m + 1)]
        return cli_problem(f"series{m}", wz, argv, check)
    return make


def _reconstruct(p: int, n: int, prec: int, dmax: int):
    def make(rng, wz):
        _, a, b = _elliptic(rng, p, p + 1)
        coeffs = ora.sym_elliptic_zeta(p, ora.short_weierstrass_trace(p, a, b), n, prec)
        doc = json.dumps({"precision": prec, "coeffs": [str(c) for c in coeffs]})
        argv = ["reconstruct", "--witt", doc, "--dmax", str(dmax)]

        def check(out):
            num, den = out["num"], out["den"]
            return (num[0] == den[0] == 1 and len(num) <= dmax + 1 and len(den) <= dmax + 1
                    and ora.series_div(num, den, prec)[1:] == coeffs)
        return cli_problem(f"reconstruct_sym{n}_E{p}_N{prec}_d{dmax}", wz, argv, check)
    return make


def _euler(p: int, prec: int):
    def make(rng, wz):
        _, a, b = _elliptic(rng, p, p + 1)
        counts = ora.short_weierstrass_counts(p, a, b, prec)
        table = wz.PointCounts(p, tuple(counts))
        return Problem(f"euler_E{p}_N{prec}", lambda: wz.euler_product_zeta(table, prec),
                       witt_raw, lambda r: ora.ghosts(r) == counts)
    return make


# --- enum-count: brute-force point counting ---


def _weierstrass(rng: random.Random, p: int) -> tuple[int, ...]:
    """Random (a1, a2, a3, a4, a6) over F_p with nonzero discriminant."""
    while True:
        coef = tuple(rng.randrange(p) for _ in range(5))
        if ora.weierstrass_discriminant(coef) % p:
            return coef


def _weierstrass_text(coef: tuple[int, ...], x: str = "x", y: str = "y") -> str:
    a1, a2, a3, a4, a6 = coef
    return f"{y}^2 + {a1}*({x})*{y} + {a3}*{y} - ({x})^3 - {a2}*({x})^2 - {a4}*({x}) - {a6}"


def _curve_spec(wz, p: int, coef: tuple[int, ...]):
    return wz.EquationsSpec.from_strings(p, ["x", "y"], [_weierstrass_text(coef)])


def _equations_zeta(p: int, rmax: int):
    """point_counts then zeta_from_counts of an affine Weierstrass curve."""
    def make(rng, wz):
        coef = _weierstrass(rng, p)
        spec = _curve_spec(wz, p, coef)
        want = ora.weierstrass_affine_counts(p, coef, rmax)

        def run():
            counts = wz.point_counts(spec, rmax)
            return counts, wz.zeta_from_counts(counts, rmax)
        return Problem(f"curve_F{p}_R{rmax}", run,
                       lambda out: [list(out[0].counts), witt_raw(out[1])],
                       lambda r: r[0] == want and ora.ghosts(r[1]) == want)
    return make


def _surface(p: int, rmax: int):
    """A cylinder over a Weierstrass curve, sheared by z: N_r = q^r * N_r(curve)."""
    def make(rng, wz):
        coef = _weierstrass(rng, p)
        shift = f"x + {rng.randrange(1, p)}*z^{rng.randint(1, 3)}"
        spec = wz.EquationsSpec.from_strings(p, ["x", "y", "z"], [_weierstrass_text(coef, shift)])
        want = [p**r * n for r, n in enumerate(ora.weierstrass_affine_counts(p, coef, rmax), 1)]
        return Problem(f"surface_F{p}_R{rmax}", lambda: wz.point_counts(spec, rmax),
                       lambda out: list(out.counts), lambda r: r == want)
    return make


def _enum_elliptic(p: int, r: int):
    def make(rng, wz):
        _, a, b = _elliptic(rng, p, p + 1)
        spec = wz.EllipticCurve(p, a, b)
        want = ora.short_weierstrass_counts(p, a, b, r)[-1]
        return Problem(f"enum_E{p}_r{r}", lambda: wz.point_count_by_enumeration(spec, r),
                       lambda out: out, lambda n: n == want)
    return make


def _closed_elliptic(p: int, dmax: int):
    def make(rng, wz):
        _, a, b = _elliptic(rng, p, p + 1)
        spec = wz.EllipticCurve(p, a, b)
        counts = ora.short_weierstrass_counts(p, a, b, dmax)
        want = ora.closed_points(counts, dmax)
        return Problem(f"closed_E{p}_d{dmax}", lambda: wz.closed_point_counts(spec, 1, dmax),
                       list, lambda r: r == want)
    return make


def _closed_curve(p: int, dmax: int):
    """closed_point_counts of an affine Weierstrass curve (no point at infinity)."""
    def make(rng, wz):
        coef = _weierstrass(rng, p)
        spec = _curve_spec(wz, p, coef)
        want = ora.closed_points(ora.weierstrass_affine_counts(p, coef, dmax), dmax)
        return Problem(f"closed_curve{p}_d{dmax}", lambda: wz.closed_point_counts(spec, 1, dmax),
                       list, lambda r: r == want)
    return make


def _sym_brute(p: int, n: int, r: int, equations: bool):
    """brute_sym_count of an elliptic curve or an affine Weierstrass curve."""
    def make(rng, wz):
        if equations:
            coef = _weierstrass(rng, p)
            spec = _curve_spec(wz, p, coef)
            counts = ora.weierstrass_affine_counts(p, coef, n * r)
        else:
            _, a, b = _elliptic(rng, p, p + 1)
            spec = wz.EllipticCurve(p, a, b)
            counts = ora.short_weierstrass_counts(p, a, b, n * r)
        want = ora.sym_counts(counts, n, r)[-1]
        kind = "curve" if equations else "E"
        return Problem(f"brute_sym{n}_{kind}{p}_r{r}", lambda: wz.brute_sym_count(spec, n, r),
                       lambda out: out, lambda c: c == want)
    return make


WORKLOADS: dict[str, list[Callable]] = {
    "witt-arith": [
        _mul(8), _mul(32), _mul(64),
        _roundtrip(8), _roundtrip(32), _roundtrip(64),
        _frob(8), _frob(32), _frob(64),
        _zpoly_mul(8), _macdonald(8),
        _nested_mul(4, 4), _nested_mul(6, 6),
    ],
    "sym-pipeline": [
        _zeta(1000, 100_000, 100, "zeta_N100_p1e3-1e5"),
        _zeta(1000, 10_000, 200, "zeta_N200_p1e3-1e4"),
        _zeta(10_000, 100_000, 200, "zeta_N200_p1e4-1e5"),
        _sym(2, 40), _sym(3, 30), _sym(4, 20), _sym(6, 15),
        _series(8), _series(10),
        _reconstruct(5, 6, 60, 30), _reconstruct(7, 3, 40, 20),
        _euler(101, 16), _euler(7, 24),
    ],
    "enum-count": [
        _equations_zeta(2, 6), _equations_zeta(3, 3), _equations_zeta(5, 2),
        _surface(2, 3), _surface(3, 2),
        _enum_elliptic(5, 3), _enum_elliptic(5, 4), _enum_elliptic(7, 3), _enum_elliptic(11, 2),
        _closed_elliptic(5, 3), _closed_elliptic(7, 3), _closed_curve(3, 3),
        _sym_brute(5, 2, 2, False), _sym_brute(7, 3, 1, False), _sym_brute(2, 2, 2, True),
    ],
}


def make_cycle(workload: str, seed: int, index: int, wz) -> list[Problem]:
    rng = random.Random(f"{workload}:{seed}:{index}")
    return [make(rng, wz) for make in WORKLOADS[workload]]
