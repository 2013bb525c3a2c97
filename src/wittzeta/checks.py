"""End-to-end acceptance checks, runnable from the CLI and the test suite.

Each check function exercises one headline guarantee of the library with
exact equality assertions and returns a short summary string; on failure
it raises ``CheckFailure`` with the first violated assertion.  All random
instances come from locally seeded generators, so every run is
deterministic.
"""

from __future__ import annotations

import random
from typing import Callable, Sequence

from .errors import SpecError
from .rings import IntPolynomial, Ring, ZPOLY, ZZ
from .sigma import macdonald_poincare, sigma_int, specialize_polynomial_coefficients
from .varieties import (
    AffineSpace,
    EllipticCurve,
    EquationsSpec,
    PointCounts,
    ProductSpec,
    ProjectiveSpace,
    SymPower,
    base_change,
    brute_sym_count,
    point_count_by_enumeration,
    point_counts,
    sym_power_counts,
)
from .witt import WittRing, WittVector, frobenius, ghost, ghost_inverse, teichmuller, witt_mul, witt_one
from .zeta import (
    euler_product_zeta,
    rational_reconstruct,
    sym_zeta,
    zeta_from_counts,
    zeta_generating_series,
)


class CheckFailure(AssertionError):
    """An acceptance check found a violated identity."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def builtin_specs() -> dict[str, object]:
    """The varieties every spec-level check runs over."""
    elliptic = EllipticCurve(5, 1, 0)
    return {
        "affine-line": AffineSpace(1, 2),
        "projective-line": ProjectiveSpace(1, 2),
        "projective-plane": ProjectiveSpace(2, 2),
        "elliptic": elliptic,
        "elliptic-square": ProductSpec((elliptic, elliptic)),
    }


def _random_int(rng: random.Random) -> int:
    return rng.randint(-10, 10)


def _random_poly(rng: random.Random) -> IntPolynomial:
    return IntPolynomial([rng.randint(-5, 5) for _ in range(4)])


def _random_witt(rng: random.Random, ring: Ring, prec: int, sample: Callable) -> WittVector:
    return WittVector.from_coeffs(ring, [sample(rng) for _ in range(prec)])


def _random_inner(rng: random.Random) -> WittVector:
    return _random_witt(rng, ZZ, 4, _random_int)


def _ring_axioms(ring: Ring, p, q, r) -> None:
    pq = ring.mul(p, q)
    _require(ring.eq(ring.add(ring.add(p, q), r), ring.add(p, ring.add(q, r))), "addition is not associative")
    _require(ring.eq(ring.add(p, q), ring.add(q, p)), "addition is not commutative")
    _require(ring.eq(ring.add(p, ring.zero), p), "zero is not neutral")
    _require(ring.eq(ring.add(p, ring.neg(p)), ring.zero), "negation fails")
    _require(ring.eq(ring.mul(pq, r), ring.mul(p, ring.mul(q, r))), "multiplication is not associative")
    _require(ring.eq(pq, ring.mul(q, p)), "multiplication is not commutative")
    _require(ring.eq(ring.mul(p, ring.one), p), "one is not neutral")
    _require(
        ring.eq(ring.mul(p, ring.add(q, r)), ring.add(pq, ring.mul(p, r))),
        "multiplication does not distribute over addition",
    )


def check_witt_ring_axioms() -> str:
    """Ring axioms in W_8(ZZ) and W_4(W_4(ZZ)); ghost is a ring map."""
    rng = random.Random(8128)
    w8 = WittRing(ZZ, 8)
    for _ in range(500):
        p, q, r = (_random_witt(rng, ZZ, 8, _random_int) for _ in range(3))
        _ring_axioms(w8, p, q, r)
        gp, gq = ghost(p), ghost(q)
        _require(ghost(p + q) == gp + gq, "ghost does not turn Witt sums into pointwise sums")
        _require(ghost(WittVector((p * q).series)) == gp * gq, "ghost does not turn Witt products into pointwise products")
    for _ in range(200):
        p = _random_witt(rng, ZPOLY, 8, _random_poly)
        q = _random_witt(rng, ZPOLY, 8, _random_poly)
        gp, gq = ghost(p), ghost(q)
        _require(ghost(p + q) == gp + gq, "ghost over ZZ[z] is not additive")
        _require(ghost(WittVector((p * q).series)) == gp * gq, "ghost over ZZ[z] is not multiplicative")
    inner = WittRing(ZZ, 4)
    w44 = WittRing(inner, 4)
    for _ in range(500):
        p, q, r = (_random_witt(rng, inner, 4, _random_inner) for _ in range(3))
        _ring_axioms(w44, p, q, r)
    return "500 instances in W_8(ZZ) and in W_4(W_4(ZZ)); ghost is a ring map over ZZ and ZZ[z]"


def check_ghost_roundtrip() -> str:
    """ghost_inverse(ghost(P)) == P on random vectors, nested included."""
    rng = random.Random(496)
    inner = WittRing(ZZ, 4)
    cases: Sequence[tuple[Ring, int, Callable]] = (
        (ZZ, 8, _random_int),
        (ZPOLY, 8, _random_poly),
        (inner, 4, _random_inner),
    )
    for ring, prec, sample in cases:
        for _ in range(500):
            p = _random_witt(rng, ring, prec, sample)
            back = ghost_inverse(ghost(p))
            _require(back.prec == p.prec, "ghost round trip changed the precision")
            _require(back == p, f"ghost round trip failed over {ring!r}")
    return "ghost_inverse(ghost(P)) = P on 500 random P over each of ZZ, ZZ[z], W_4(ZZ)"


def check_symmetric_projective() -> str:
    """Sym^n of the line: projective gives P^n, affine gives [q^n], by Macdonald and by the ghost route."""
    for q in (2, 3, 5):
        line = ProjectiveSpace(1, q)
        affine = AffineSpace(1, q)
        line_counts, affine_counts = point_counts(line, 72), point_counts(affine, 72)
        for n in range(7):
            projective = zeta_from_counts(point_counts(ProjectiveSpace(n, q), 12), 12)
            _require(sym_zeta(line, n, 12) == projective, f"Sym^{n} of the projective line over F_{q} is not P^{n}")
            _require(
                zeta_from_counts(sym_power_counts(line_counts, n, 12), 12) == projective,
                f"Sym^{n} of the projective line over F_{q} is not P^{n} by the ghost route",
            )
            for route in (sym_zeta(affine, n, 12), zeta_from_counts(sym_power_counts(affine_counts, n, 12), 12)):
                _require(route == teichmuller(q**n, 12), f"Sym^{n} of the affine line over F_{q} is not [q^{n}]")
    return "Sym^n P^1 = P^n and Sym^n A^1 = [q^n] at precision 12 for q in {2,3,5}, n <= 6, by Macdonald and by ghosts"


def check_plane_reconstruction() -> str:
    """Sym^2 of the plane reconstructs to its known rational form."""
    for q in (2, 3):
        s = sym_zeta(ProjectiveSpace(2, q), 2, 12)
        rf = rational_reconstruct(s, 6)
        expected = IntPolynomial((1,))
        for e in (1, q, q**2, q**2, q**3, q**4):
            expected = expected * IntPolynomial((1, -e))
        _require(rf.num == IntPolynomial((1,)), f"Sym^2 P^2 over F_{q}: numerator is not 1")
        _require(rf.den == expected, f"Sym^2 P^2 over F_{q}: wrong denominator")
    first = ghost(WittVector(sym_zeta(ProjectiveSpace(2, 2), 2, 1).series)).coord(1)
    _require(first == 35, f"Sym^2 P^2 over F_2 has {first} rational points, expected 35")
    return "Sym^2 P^2 reconstructs to 1/((1-t)(1-qt)(1-q^2 t)^2(1-q^3 t)(1-q^4 t)) for q in {2,3}"


def check_generating_series() -> str:
    """u^n coefficients of sigma_u(Z) are the symmetric-power zetas."""
    for name, spec in builtin_specs().items():
        series = zeta_generating_series(spec, 4, 3)
        _require(series.coefficient(0) == witt_one(ZZ, 3), f"{name}: u^0 coefficient is not [1]")
        for n in range(1, 5):
            _require(
                series.coefficient(n) == sym_zeta(spec, n, 3),
                f"{name}: u^{n} coefficient differs from Z(Sym^{n} X, t)",
            )
    return "sigma_u(Z(X,t)) matches Z(Sym^n X, t) for n <= 4 on all five builtin specs"


def check_sym_oracle() -> str:
    """Macdonald, Newton-derived and brute-force multiset counts of Sym^n agree."""
    elliptic = EllipticCurve(5, 1, 0)
    cubic = EquationsSpec.from_strings(2, ("x", "y"), ("y^2 + y - x^3 - x",))
    for spec in (elliptic, cubic):
        counts = point_counts(spec, 6)
        for n in range(4):
            for r in (1, 2):
                macdonald = point_counts(SymPower(spec, n), r).count(r)
                newton = sym_power_counts(counts, n, r).count(r)
                brute = brute_sym_count(spec, n, r)
                _require(
                    macdonald == newton == brute,
                    f"{spec!r}: Sym^{n} count at r={r} differs (macdonald {macdonald}, newton {newton}, brute {brute})",
                )
    _require(brute_sym_count(elliptic, 1, 1) == 4, "enumeration does not find 4 points on the curve")
    _require(brute_sym_count(elliptic, 2, 1) == 24, "enumeration does not find 24 points on Sym^2")
    return "Macdonald (the curve), Newton and enumeration agree on Sym^n counts (n <= 3, r <= 2) for the curve and a cubic"


def check_product_and_base_change() -> str:
    """Zeta is multiplicative on products and Frobenius is base change."""
    elliptic = EllipticCurve(5, 1, 0)
    z_e = zeta_from_counts(point_counts(elliptic, 8), 8)
    z_square = zeta_from_counts(point_counts(ProductSpec((elliptic, elliptic)), 8), 8)
    _require(z_square == witt_mul(z_e, z_e), "Z(E x E) is not the Witt product Z(E) * Z(E)")
    for name, spec in builtin_specs().items():
        counts = point_counts(spec, 8)
        z = zeta_from_counts(counts, 8)
        for r in (1, 2, 3):
            shifted = base_change(counts, r)
            _require(
                frobenius(z, r) == zeta_from_counts(shifted, 8 // r),
                f"{name}: F_{r} of zeta is not the zeta over F_(q^{r})",
            )
    enumerated = PointCounts(25, tuple(point_count_by_enumeration(elliptic, 2 * m) for m in (1, 2, 3)))
    _require(
        zeta_from_counts(enumerated, 3) == frobenius(z_e, 2),
        "F_2 of the curve zeta disagrees with extension-field enumeration",
    )
    return "Z(E x E) = Z(E)*Z(E); F_r(zeta) = base change for r <= 3, with r = 2 checked by enumeration"


def check_poincare_measure() -> str:
    """Ghost coordinates of the Betti measure are Poincare evaluations."""
    rng = random.Random(1729)
    for _ in range(25):
        betti = [rng.randint(0, 5) for _ in range(rng.randint(1, 7))]
        measure = macdonald_poincare(betti, 6)
        g = ghost(WittVector(measure.series))  # from the series: the carried ghosts are the input
        for n in range(1, 7):
            expected_coeffs = [0] * ((len(betti) - 1) * n + 1)
            for i, b in enumerate(betti):
                expected_coeffs[i * n] = -b if i & 1 else b
            _require(
                g.coord(n) == IntPolynomial(expected_coeffs),
                f"ghost coordinate {n} is not the Poincare polynomial at z^{n}",
            )
        chi = sum(-b if i & 1 else b for i, b in enumerate(betti))
        _require(
            specialize_polynomial_coefficients(measure, 1) == sigma_int(chi, 6),
            "specializing z to 1 does not give sigma of the Euler characteristic",
        )
    return "25 random Betti vectors: ghosts are Poincare evaluations and z=1 gives sigma_int(chi)"


def check_two_route_zeta() -> str:
    """Ghost inversion and the Euler product build the same zeta."""
    for name, spec in builtin_specs().items():
        counts = point_counts(spec, 8)
        _require(
            zeta_from_counts(counts, 8) == euler_product_zeta(counts, 8),
            f"{name}: Euler product and ghost inversion disagree",
        )
    return "zeta_from_counts = euler_product_zeta at precision 8 on all five builtin specs"


CRITERIA: tuple[tuple[str, Callable[[], str]], ...] = (
    ("witt-ring-axioms", check_witt_ring_axioms),
    ("ghost-roundtrip", check_ghost_roundtrip),
    ("sym-projective-line", check_symmetric_projective),
    ("sym-plane-reconstruction", check_plane_reconstruction),
    ("generating-series", check_generating_series),
    ("sym-enumeration-oracle", check_sym_oracle),
    ("product-and-base-change", check_product_and_base_change),
    ("poincare-measure", check_poincare_measure),
    ("two-route-zeta", check_two_route_zeta),
)


def run_checks(names: Sequence[str] | None = None) -> list[dict]:
    """Run the named checks (all by default) and report one dict per check; SpecError names any unknown ones."""
    table = dict(CRITERIA)
    if names is None:
        names = list(table)
    if unknown := [n for n in names if n not in table]:
        raise SpecError(f"unknown check names: {', '.join(unknown)}")
    results = []
    for name in names:
        try:
            detail = table[name]()
            results.append({"criterion": name, "passed": True, "detail": detail})
        except CheckFailure as exc:
            results.append({"criterion": name, "passed": False, "detail": str(exc)})
    return results
