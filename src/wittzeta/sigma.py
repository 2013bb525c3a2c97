"""Symmetric-power structure maps sigma_t and their lambda-ring duals.

For an integer a, sigma_t(a) = (1-t)^(-a), whose n-th coefficient is the
binomial coefficient C(a+n-1, n).  For a polynomial f over the integers,
sigma_t sends f to f([z]), f evaluated on the Teichmueller lift [z], i.e. a
signed product of factors (1 - z^i t)^(-c_i).  The ghost coordinates of [z]
are z, z^2, z^3, ... and the ghost map is a ring map, so f([z]) is the Witt
vector whose n-th ghost coordinate is f(z^n); it is built from those
coordinates by one ghost inversion.  Both land in Witt rings, so "sums of
symmetric powers" literally are Witt sums here.

``sigma_witt`` extends the map to Witt vectors themselves: sigma_u(P) is
the element of W_M(W(A)) whose n-th outer ghost coordinate is the n-th
Frobenius F_n(P).  On Teichmueller lifts this reproduces the double lift
sigma_u([a]) = ([1] - [a]u)^(-1), and on sums of signed Teichmueller
elements it matches the expansion by multiplicativity of sigma; defining
it through outer ghost coordinates extends that rule to every Witt vector
with exact Newton inversion.  This ghost-based definition is the one
design liberty taken in this module, and the test suite pins it to the
Teichmueller expansion on all inputs where both make sense.
"""

from __future__ import annotations

from typing import Sequence

from .errors import PrecisionError
from .rings import IntPolynomial, Ring, TruncatedSeries, ZPOLY, ZZ
from .witt import GhostVector, WittRing, WittVector, frobenius, ghost_inverse, map_coefficients


def sigma_int(a: int, prec: int) -> WittVector:
    """sigma_t(a) = (1-t)^(-a) as a Witt vector over the integers."""
    return WittVector(TruncatedSeries(ZZ, (1, -1)[: prec + 1] + (0,) * (prec - 1)).pow_int(-a))


def sigma_poly(f: IntPolynomial | int, prec: int) -> WittVector:
    """sigma_t(f) = f([z]) over ZZ[z]: the product of (1 - z^i t)^(-c_i).

    Its n-th ghost coordinate is f(z^n), f with the coefficient of z^i moved
    to z^(i*n); the result is the ghost inversion of f(z), ..., f(z^prec)
    and keeps those coordinates.
    """
    f = ZPOLY.check(f)
    ghosts = []
    for n in range(1, prec + 1):
        spread = [0] * (n * f.degree + 1)
        spread[::n] = f.coeffs
        ghosts.append(IntPolynomial(spread))
    return ghost_inverse(GhostVector(ZPOLY, ghosts))


def lambda_from_sigma(s: WittVector) -> TruncatedSeries:
    """Recover lambda_t(x) from sigma_t(x) via lambda_t = sigma_{-t}^(-1)."""
    return s.series.at_minus_t().inverse()


def sigma_witt(p: WittVector, outer_prec: int) -> WittVector:
    """sigma_u(P) in W_M(W_N'(A)), N' = floor(N/M), via outer ghosts.

    The n-th outer ghost coordinate is F_n(P); Frobenius divides precision
    by n, so the inner precision N' is what survives all of F_1..F_M, and
    F_n needs P only up to degree n*N'.  Requires N >= M so that N' >= 1.
    Each F_n is an unrealized slice of P's ghosts (one ghost map, none when P
    is unrealized), so the outer Newton step adds and multiplies ghost vectors
    pointwise; ``WittRing.divide_exact`` realizes each sum once, and every
    coefficient of the result is realized.
    """
    if outer_prec < 1:
        raise ValueError("outer precision must be at least 1")
    if p.prec < outer_prec:
        raise PrecisionError(
            f"sigma_u to outer precision {outer_prec} needs input precision "
            f">= {outer_prec}, got {p.prec}",
            required=outer_prec,
        )
    inner_prec = p.prec // outer_prec
    inner_ring = WittRing(p.ring, inner_prec)
    top = p.truncate(outer_prec * inner_prec).with_ghost()
    coords = tuple(frobenius(top.truncate(n * inner_prec), n) for n in range(1, outer_prec + 1))
    return ghost_inverse(GhostVector(inner_ring, coords))


def macdonald_poincare(betti: Sequence[int], prec: int) -> WittVector:
    """The Witt measure of a space with the given Betti numbers, in W_prec(ZZ[z]).

    Sends (b0, b1, ..., bd) to sigma_poly of the signed Poincare polynomial
    P(z) = b0 - b1*z + b2*z^2 - ...: the alternating Witt sum of bi copies of
    [z^i].  Its n-th ghost coordinate is P(z^n), and specializing z to 1
    recovers sigma_t applied to the Euler characteristic P(1).
    """
    f = IntPolynomial(tuple(-b if i & 1 else b for i, b in enumerate(betti)))
    return sigma_poly(f, prec)


def specialize_polynomial_coefficients(p: WittVector, value: int, ring: Ring = ZZ) -> WittVector:
    """Evaluate every polynomial coefficient at an integer point."""
    return map_coefficients(p, lambda c: c.evaluate(value), ring)
