"""Exact truncated big Witt rings and zeta functions over finite fields.

The library represents the truncated big Witt ring W_N(A) as power series
with constant term 1 and exact coefficients, computes its ring structure
through ghost coordinates and Newton inversion, and applies it to the
arithmetic of varieties over finite fields: zeta functions are Witt
vectors over the integers, symmetric powers come from a sigma operation,
and the generating series of all symmetric-power zetas lives in a Witt
ring of Witt vectors.
"""

from .errors import (
    BudgetError,
    InconsistentCountsError,
    IntegralityError,
    PrecisionError,
    ReconstructionError,
    SpecError,
    WittZetaError,
)
from .finitefield import (
    DEFAULT_ENUM_BUDGET,
    FiniteField,
    MultiPoly,
    count_affine_points,
    find_irreducible,
    is_prime,
    parse_polynomial,
    prime_power_decompose,
)
from .rings import (
    IntegerRing,
    IntPolynomial,
    IntPolynomialRing,
    Ring,
    TruncatedSeries,
    ZPOLY,
    ZZ,
)
from .sigma import (
    lambda_from_sigma,
    macdonald_poincare,
    sigma_int,
    sigma_poly,
    sigma_witt,
    specialize_polynomial_coefficients,
)
from .varieties import (
    AffineSpace,
    CountsSpec,
    EllipticCurve,
    EquationsSpec,
    PointCounts,
    ProductSpec,
    ProjectiveSpace,
    SymPower,
    VarietySpec,
    base_change,
    brute_sym_count,
    closed_point_counts,
    closed_point_degree_counts,
    elliptic_trace,
    point_count_by_enumeration,
    point_counts,
    spec_field_size,
    sym_power_counts,
)
from .witt import (
    GhostVector,
    WittRing,
    WittVector,
    frobenius,
    ghost,
    ghost_inverse,
    map_coefficients,
    teichmuller,
    witt_add,
    witt_mul,
    witt_neg,
    witt_one,
    witt_pow,
    witt_scale,
    witt_sub,
    witt_zero,
)
from .zeta import (
    RationalFunction,
    euler_product_zeta,
    mobius,
    rational_reconstruct,
    spec_zeta,
    sym_zeta,
    zeta_from_counts,
    zeta_generating_series,
)

__version__ = "0.1.0"
