"""Sym^n counts by Macdonald's formula against the ghost route and brute multisets.

``point_counts(SymPower(X, n), R)`` reads N_r(Sym^n X) off X's closed form
num(t) / prod_{lo<=i<=hi} (1 - q^i t) as the u^n coefficient of
``closed_expansion`` of (1 - s_r u + c_2^r u^2) / prod_i (1 - q^(ir) u), the
expansion ``spec_zeta`` runs at r = 1 (P^d, d >= 2, by Gaussian quotients).
The oracles are the route it replaced, ``sym_power_counts`` (the degree-n
coefficient of the ghost inversion of X's counts N_r, N_2r, ..., N_nr), the
Euler product over enumerated closed points (``brute_sym_count``), and the
closed forms Sym^n P^1 = P^n and Sym^n A^d = A^(nd).  The differential tests
draw elliptic curves over F_p for p < 100 (traces from the F_p count) and
229 < p < 400 (traces by baby-step giant-step), and A^d and P^d, d <= 40,
over fields of up to 9 elements, with n <= 8 and R <= 10.
"""
import json

import pytest
from hypothesis import example, given, settings, strategies as st

import wittzeta.varieties as varieties
from wittzeta.cli import main
from wittzeta.errors import InconsistentCountsError, PrecisionError, SpecError
from wittzeta.finitefield import is_prime
from wittzeta.varieties import (
    AffineSpace,
    CountsSpec,
    EllipticCurve,
    EquationsSpec,
    ProductSpec,
    ProjectiveSpace,
    SymPower,
    brute_sym_count,
    point_counts,
    sym_power_counts,
)
from wittzeta.zeta import spec_zeta, sym_zeta

SMALL_PRIMES = [p for p in range(5, 100) if is_prime(p)]
BSGS_PRIMES = [p for p in range(230, 400) if is_prime(p)]
FIELD_SIZES = [2, 3, 4, 5, 7, 8, 9]


def elliptic_curves(primes):
    return st.sampled_from(primes).flatmap(
        lambda p: st.tuples(st.just(p), st.integers(0, p - 1), st.integers(0, p - 1))
    ).filter(lambda c: (4 * c[1] ** 3 + 27 * c[2] ** 2) % c[0]).map(lambda c: EllipticCurve(*c))


spaces = st.builds(
    lambda kind, d, q: kind(d, q), st.sampled_from([AffineSpace, ProjectiveSpace]),
    st.integers(0, 40), st.sampled_from(FIELD_SIZES),
)
closed_forms = st.one_of(elliptic_curves(SMALL_PRIMES), elliptic_curves(BSGS_PRIMES), spaces)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(spec=closed_forms, n=st.integers(1, 8), rmax=st.integers(1, 10))
@example(spec=EllipticCurve(5, 1, 1), n=8, rmax=10)
@example(spec=EllipticCurve(233, 2, 3), n=8, rmax=10)
@example(spec=ProjectiveSpace(3, 9), n=8, rmax=10)
@example(spec=ProjectiveSpace(40, 9), n=8, rmax=10)
@example(spec=AffineSpace(0, 2), n=1, rmax=1)
def test_macdonald_counts_equal_the_ghost_route(spec, n, rmax):
    assert point_counts(SymPower(spec, n), rmax) == sym_power_counts(point_counts(spec, n * rmax), n, rmax)


@settings(max_examples=12, derandomize=True, database=None, deadline=None)
@given(spec=elliptic_curves([5, 7]))
@example(spec=EllipticCurve(5, 1, 1))
@example(spec=EllipticCurve(7, 1, 3))
def test_macdonald_counts_equal_brute_multisets(spec):
    for r in (1, 2):
        for n in range(4):
            assert point_counts(SymPower(spec, n), r).count(r) == brute_sym_count(spec, n, r)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_sym_of_the_projective_line_is_projective_space(q):
    for n in range(31):
        assert point_counts(SymPower(ProjectiveSpace(1, q), n), 10) == point_counts(ProjectiveSpace(n, q), 10)
        assert spec_zeta(SymPower(ProjectiveSpace(1, q), n), 10) == spec_zeta(ProjectiveSpace(n, q), 10)


@pytest.mark.parametrize("q", [2, 3, 7, 9])
def test_sym_of_affine_space_is_affine_space(q):
    for d in range(4):
        for n in range(9):
            assert point_counts(SymPower(AffineSpace(d, q), n), 10) == point_counts(AffineSpace(n * d, q), 10)


sym_requests = st.one_of(
    st.tuples(
        st.one_of(
            closed_forms,
            st.just(ProductSpec((EllipticCurve(5, 1, 1), ProjectiveSpace(1, 5)))),
            st.just(CountsSpec(4, tuple(4**r + 1 for r in range(1, 73)))),  # P^1 over F_4 to r = 6 * 12
        ),
        st.integers(0, 6),
        st.integers(1, 12),
    ),
    st.tuples(st.just(EquationsSpec.from_strings(2, ("x", "y"), ("y^2 + y - x^3 - x",))),
              st.integers(0, 3), st.integers(1, 3)),
)


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(case=sym_requests)
@example(case=(EllipticCurve(7, 1, 3), 6, 12))
@example(case=(ProjectiveSpace(2, 4), 0, 12))
def test_spec_zeta_of_a_symmetric_power_is_sym_zeta(case):
    spec, n, prec = case
    assert spec_zeta(SymPower(spec, n), prec) == sym_zeta(spec, n, prec)


def test_sym_power_of_a_spec_without_a_closed_form_reads_counts_to_n_times_r():
    table = CountsSpec(4, (5, 21, 65))
    assert point_counts(SymPower(table, 3), 1) == sym_power_counts(point_counts(table, 3), 3, 1)
    with pytest.raises(PrecisionError) as info:
        point_counts(SymPower(table, 2), 2)
    assert info.value.required == 4


def test_macdonald_route_runs_no_ghost_inversion(monkeypatch):
    def refused(*args):
        raise AssertionError("a closed form needs no ghost inversion")

    monkeypatch.setattr(varieties, "ghost_inverse", refused)
    counts = point_counts(SymPower(EllipticCurve(5, 1, 1), 30), 240)
    assert counts.count(1) == 9 * (5**30 - 1) // 4  # Sym^n E is a P^(n-1)-bundle over E
    with pytest.raises(AssertionError, match="no ghost inversion"):
        point_counts(SymPower(CountsSpec(5, (9, 27)), 2), 1)


def test_sym_3000_of_an_elliptic_curve_counts_a_projective_bundle():
    E = EllipticCurve(5, 1, 1)  # N_1 = 9
    assert sym_zeta(E, 3000, 2).coefficient(1) == 9 * (5**3000 - 1) // 4


def test_macdonald_route_keeps_the_weil_check(monkeypatch):
    monkeypatch.setattr(varieties, "elliptic_trace", lambda spec, budget: 5)  # 5^2 > 4 * 5
    with pytest.raises(InconsistentCountsError, match=r"Weil bound violated at r=1"):
        point_counts(SymPower(EllipticCurve(5, 1, 0), 3), 3)


def test_sym_power_spec_validation():
    E = EllipticCurve(5, 1, 1)
    assert SymPower(E, 4).q == 5
    assert SymPower(SymPower(E, 2), 3).q == 5
    with pytest.raises(SpecError, match="nonnegative"):
        SymPower(E, -1)
    with pytest.raises(SpecError, match="not a variety spec"):
        SymPower("elliptic", 2)
    with pytest.raises(SpecError, match="share the base field"):
        ProductSpec((SymPower(E, 2), ProjectiveSpace(1, 7)))


def test_sym_of_sym_goes_through_the_ghost_route():
    E = EllipticCurve(5, 1, 1)
    inner = point_counts(SymPower(E, 2), 6)
    assert point_counts(SymPower(SymPower(E, 2), 3), 2) == sym_power_counts(inner, 3, 2)


def _sym_stdout(capsys, spec: dict, n: int, prec: int) -> str:
    assert main(["sym", "--spec", json.dumps(spec), "-n", str(n), "-N", str(prec)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return captured.out


@pytest.mark.parametrize("p, a, b, n, prec", [(5, 1, 1, 3, 10), (7, 1, 3, 6, 8), (97, 2, 5, 2, 12), (233, 2, 3, 4, 6)])
def test_cli_sym_of_an_elliptic_spec_equals_sym_of_its_count_table(capsys, p, a, b, n, prec):
    counts = point_counts(EllipticCurve(p, a, b), n * prec).counts
    elliptic = _sym_stdout(capsys, {"type": "elliptic", "p": p, "a": a, "b": b}, n, prec)
    table = _sym_stdout(capsys, {"type": "counts", "q": p, "counts": list(counts)}, n, prec)
    assert elliptic == table
