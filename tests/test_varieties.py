"""Tests for variety specs, point counting and the enumeration oracles."""

import math
import random
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

import wittzeta.finitefield as finitefield
import wittzeta.varieties as varieties
from wittzeta.errors import BudgetError, InconsistentCountsError, PrecisionError, SpecError
from wittzeta.finitefield import FiniteField, is_prime
from wittzeta.varieties import (
    AffineSpace,
    CountsSpec,
    EllipticCurve,
    EquationsSpec,
    PointCounts,
    ProductSpec,
    ProjectiveSpace,
    base_change,
    brute_sym_count,
    closed_point_counts,
    elliptic_trace,
    point_count_by_enumeration,
    point_counts,
    spec_field_size,
)
from wittzeta.witt import WittVector, ghost
from wittzeta.zeta import closed_point_degree_counts, spec_zeta, sym_power_counts

E = EllipticCurve(5, 1, 0)
CUBIC = EquationsSpec.from_strings(2, ("x", "y"), ("y^2 + y - x^3 - x",))


# --- spec validation ---


def test_elliptic_rejects_singular_and_bad_primes():
    with pytest.raises(SpecError):
        EllipticCurve(5, 0, 0)  # discriminant 0
    with pytest.raises(SpecError):
        EllipticCurve(4, 1, 1)  # not prime
    with pytest.raises(SpecError):
        EllipticCurve(3, 1, 1)  # p > 3 required


def test_product_requires_common_base_field():
    with pytest.raises(SpecError):
        ProductSpec((AffineSpace(1, 2), AffineSpace(1, 3)))
    with pytest.raises(SpecError):
        ProductSpec(())
    assert ProductSpec((E, E)).q == 5


def test_counts_spec_validation():
    with pytest.raises(SpecError):
        CountsSpec(2, ())
    with pytest.raises(SpecError):
        CountsSpec(2, (1, -1))
    with pytest.raises(SpecError):
        CountsSpec(6, (1,))


def test_equations_spec_validation():
    with pytest.raises(SpecError):
        EquationsSpec.from_strings(4, ("x",), ())
    with pytest.raises(SpecError):
        EquationsSpec.from_strings(2, ("x", "x"), ())
    with pytest.raises(SpecError):
        EquationsSpec.from_strings(2, (), ())
    cubic = EquationsSpec.from_strings(2, ("x", "y"), ("y^2 + y - x^3 - x",))
    with pytest.raises(SpecError):
        EquationsSpec(3, ("x",), cubic.polys)  # arity mismatch


def test_space_dimension_validation():
    with pytest.raises(SpecError):
        AffineSpace(-1, 2)
    with pytest.raises(SpecError):
        ProjectiveSpace(2, 6)


def test_spec_field_size():
    assert spec_field_size(AffineSpace(2, 9)) == 9
    assert spec_field_size(E) == 5
    assert spec_field_size(CUBIC) == 2
    with pytest.raises(SpecError):
        spec_field_size("nope")


def test_point_counts_type_validation():
    with pytest.raises(InconsistentCountsError):
        PointCounts(2, (1, -2))
    counts = PointCounts(2, (3, 5))
    assert counts.range == 2
    assert counts.count(2) == 5
    with pytest.raises(PrecisionError) as info:
        counts.count(3)
    assert info.value.required == 3
    for r in (0, -1):  # more range cannot help below N_1
        with pytest.raises(ValueError):
            counts.count(r)


# --- closed-form and recursive counting ---


def test_affine_space_counts():
    assert point_counts(AffineSpace(1, 2), 3).counts == (2, 4, 8)
    assert point_counts(AffineSpace(2, 9), 2).counts == (81, 6561)
    assert point_counts(AffineSpace(0, 3), 2).counts == (1, 1)


def test_projective_space_counts():
    assert point_counts(ProjectiveSpace(2, 2), 2).counts == (7, 21)
    assert point_counts(ProjectiveSpace(1, 3), 3).counts == (4, 10, 28)
    assert point_counts(ProjectiveSpace(0, 5), 2).counts == (1, 1)


def test_elliptic_counts_by_trace_recursion():
    assert elliptic_trace(E) == 2
    assert point_counts(E, 4).counts == (4, 32, 148, 640)


def elliptic_trace_by_square_table(spec: EllipticCurve) -> int:
    """Oracle: tabulate y -> y^2 in a dict, then look up x^3 + a*x + b for each x."""
    p = spec.p
    squares: dict[int, int] = {}
    for y in range(p):
        s = y * y % p
        squares[s] = squares.get(s, 0) + 1
    affine = 0
    for x in range(p):
        rhs = (x * x * x + spec.a * x + spec.b) % p
        affine += squares.get(rhs, 0)
    return p + 1 - (affine + 1)


def test_elliptic_trace_matches_the_square_table_oracle():
    rng = random.Random(1931)
    primes = [p for p in range(5, 3001) if is_prime(p)] + [99971, 99989, 99991, 100003]
    for p in primes:
        while True:
            a, b = rng.randrange(p), rng.randrange(p)
            if (4 * a**3 + 27 * b**2) % p:
                break
        spec = EllipticCurve(p, a, b)
        assert elliptic_trace(spec) == elliptic_trace_by_square_table(spec), spec


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.integers(230, 19997), st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_bsgs_trace_matches_the_square_table_oracle(start, a, b):
    p = next(n for n in range(start, 2 * start) if is_prime(n))  # 19997 is prime, so p < 2 * 10^4
    assume((4 * a**3 + 27 * b**2) % p)
    spec = EllipticCurve(p, a, b)
    assert elliptic_trace(spec) == elliptic_trace_by_square_table(spec), spec


def test_bsgs_trace_at_every_prime_from_230_to_400(monkeypatch):
    """Full 2-torsion (b = 0), j = 0 curves with a point of order 3 at x = 0, and
    generic ones; the searches are watched to see each route of the proof taken."""
    searches = []

    def watched(pt, a, p, *window):
        found = search(pt, a, p, *window)
        searches.append((pt, a, None if found is None else frozenset(found)))
        return found

    search = varieties._annihilators
    monkeypatch.setattr(varieties, "_annihilators", watched)
    seen = {"several annihilators first": 0, "small order skipped": 0, "E decides": 0,
            "E' decides after E points": 0}
    for p in (n for n in range(230, 400) if is_prime(n)):
        for a, b in [(-1, 0), (1, 0), (2, 0), (0, 1), (0, 5), (1, 1), (-3, 2)]:
            if (4 * a**3 + 27 * b**2) % p == 0:
                continue
            searches.clear()
            spec = EllipticCurve(p, a, b)
            trace = elliptic_trace(spec)
            assert trace == elliptic_trace_by_square_table(spec), spec
            # replay the candidate intersection: it first becomes a single value at the last search.
            # The i-th search runs on the twist by the i-th nonzero f(x), so the Legendre symbol of
            # that f says whether it ran on E or on E'.
            candidates, twisted = None, []
            fs = [(x, f) for x in range(p) if (f := (x**3 + a * x + b) % p)]
            for i, ((x, y), curve_a, found) in enumerate(searches):
                fx, f = fs[i]
                assert ((x, y), curve_a) == ((f * fx % p, f * f % p), a * f * f % p), spec
                assert (y * y - x**3 - curve_a * x - b * f**3) % p == 0, spec
                on_e = pow(f, (p - 1) // 2, p) == 1
                twisted.append(not on_e)
                if found is not None:
                    found = found if on_e else {2 * p + 2 - n for n in found}
                    candidates = found if candidates is None else candidates & found
                assert (candidates is not None and len(candidates) == 1) == (i == len(searches) - 1), spec
            assert candidates == {p + 1 - trace}
            seen["several annihilators first"] += len(searches[0][2] or ()) > 1
            seen["small order skipped"] += any(found is None for _, _, found in searches)
            seen["E decides"] += not twisted[-1]
            seen["E' decides after E points"] += twisted[-1] and not all(twisted)
    assert all(seen.values()), seen


def elliptic_trace_by_legendre_table(spec: EllipticCurve) -> int:
    """Oracle: a = p - sum_x (1 + (f(x) | p)), read off a table of #{y : y^2 = r}."""
    p = spec.p
    cnt = bytearray(p)  # cnt[r] = #{y : y^2 = r} = 1 + (r | p)
    for y in range(1, (p + 1) // 2):
        cnt[y * y % p] = 2
    cnt[0] = 1
    return p - sum(cnt[(x * (x * x + spec.a) + spec.b) % p] for x in range(p))


def elliptic_counts_by_trace_recursion(spec: EllipticCurve, rmax: int) -> tuple[int, ...]:
    """Oracle: N_r = q^r + 1 - s_r with s_r = a*s_{r-1} - q*s_{r-2}, s_0 = 2, s_1 = a."""
    q, a = spec.q, elliptic_trace_by_legendre_table(spec)
    s_prev, s, counts = 2, a, []
    for r in range(1, rmax + 1):
        counts.append(q**r + 1 - s)
        s_prev, s = s, a * s - q * s_prev
    return tuple(counts)


def counts_by_oracles(spec, rmax: int) -> tuple[int, ...]:
    """q^(dr) for A^d, sum_{i<=d} q^(ir) for P^d, the trace recursion for E, products pointwise."""
    rs = range(1, rmax + 1)
    if isinstance(spec, AffineSpace):
        return tuple(spec.q ** (spec.dim * r) for r in rs)
    if isinstance(spec, ProjectiveSpace):
        return tuple(sum(spec.q ** (i * r) for i in range(spec.dim + 1)) for r in rs)
    if isinstance(spec, EllipticCurve):
        return elliptic_counts_by_trace_recursion(spec, rmax)
    return tuple(map(math.prod, zip(*(counts_by_oracles(f, rmax) for f in spec.factors))))


@st.composite
def closed_form_products(draw):
    """A^d, P^d (d <= 6) and E over F_p, p < 2 * 10^4 on either side of 229, alone or in products of up to 3."""
    start = draw(st.one_of(st.integers(5, 229), st.integers(230, 19997)))
    p = next(n for n in range(start, 2 * start) if is_prime(n))  # 229 and 19997 are prime
    kinds = draw(st.lists(st.sampled_from(["affine", "projective", "elliptic"]), min_size=1, max_size=3))
    q = p if "elliptic" in kinds else p ** draw(st.integers(1, 2))
    factors = []
    for kind in kinds:
        if kind == "elliptic":
            a, b0 = draw(st.integers(0, p - 1)), draw(st.integers(0, p - 1))
            b = next(b for b in range(b0, b0 + p) if (4 * a**3 + 27 * b**2) % p)
            factors.append(EllipticCurve(p, a, b % p))
        else:
            factors.append((AffineSpace if kind == "affine" else ProjectiveSpace)(draw(st.integers(0, 6)), q))
    return factors[0] if len(factors) == 1 else ProductSpec(tuple(factors))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(spec=closed_form_products(), rmax=st.integers(1, 8))
def test_closed_form_counts_and_zeta_match_the_oracles(spec, rmax):
    expected = counts_by_oracles(spec, rmax)
    assert point_counts(spec, rmax).counts == expected
    assert ghost(WittVector(spec_zeta(spec, rmax).series)).coords == expected  # a fresh copy carries no ghost


def test_product_counts_multiply_pointwise():
    square = point_counts(ProductSpec((E, E)), 3)
    single = point_counts(E, 3)
    assert square.counts == tuple(n * n for n in single.counts)
    assert square.q == 5


def test_counts_spec_passthrough_and_range_guard():
    spec = CountsSpec(2, (3, 5, 9))
    assert point_counts(spec, 2).counts == (3, 5)
    with pytest.raises(PrecisionError) as info:
        point_counts(spec, 4)
    assert (info.value.required, str(info.value)) == (4, "count N_4 requested but only range 3 is known")


def test_equations_counts_by_enumeration():
    # the affine cubic is supersingular: no new points appear over F_4
    assert point_counts(CUBIC, 2).counts == (4, 4)
    line = EquationsSpec.from_strings(2, ("x",), ())
    assert point_counts(line, 3).counts == (2, 4, 8)


def test_equations_counts_follow_the_trace_recursion_to_r10():
    # N_r = 2^r - s_r for the affine part, with s_1 = 2 - N_1 and s_r = a*s_{r-1} - 2*s_{r-2}
    counts = point_counts(CUBIC, 10).counts
    a = 2 - counts[0]
    s_prev, s = 2, a
    for r in range(1, 11):
        assert counts[r - 1] == 2**r - s
        s_prev, s = s, a * s - 2 * s_prev


def test_point_counts_rejects_empty_range():
    with pytest.raises(ValueError):
        point_counts(E, 0)


def test_elliptic_trace_budget():
    with pytest.raises(BudgetError) as info:
        elliptic_trace(E, budget=5)
    assert info.value.required == 10


def test_weil_bound_validator_never_fires_on_nonsingular_curves():
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31):
        for a in range(p):
            for b in range(p):
                if (4 * a**3 + 27 * b**2) % p == 0:
                    continue
                counts = point_counts(EllipticCurve(p, a, b), 6)
                assert all(n >= 0 for n in counts.counts)


def test_weil_bound_validator_fires_on_a_trace_past_the_hasse_bound(monkeypatch):
    monkeypatch.setattr(varieties, "elliptic_trace", lambda spec, budget: 5)  # 5^2 > 4 * 5
    with pytest.raises(InconsistentCountsError, match=r"Weil bound violated at r=1: \|trace\| exceeds 2\*q\^\(r/2\)"):
        point_counts(E, 3)


# --- base change ---


def test_base_change_subsamples():
    counts = point_counts(ProjectiveSpace(1, 2), 4)
    shifted = base_change(counts, 2)
    assert shifted.q == 4
    assert shifted.counts == (5, 17)
    assert shifted.counts == point_counts(ProjectiveSpace(1, 4), 2).counts


def test_base_change_identity_and_range_guard():
    counts = point_counts(E, 4)
    assert base_change(counts, 1) == counts
    assert base_change(counts, 3).counts == (counts.count(3),)
    for table, r in (((3,), 2), ((3, 5, 9), 4), ((3, 5, 9), 5)):
        with pytest.raises(PrecisionError) as info:
            base_change(PointCounts(2, table), r)
        assert (info.value.required, str(info.value)) == (r, f"count N_{r} requested but only range {len(table)} is known")


def test_base_change_matches_extension_field_enumeration():
    assert base_change(point_counts(E, 2), 2).count(1) == 32
    assert point_count_by_enumeration(E, 2) == 32


# --- brute-force enumeration oracles ---


def test_enumeration_matches_trace_recursion():
    expected = point_counts(E, 4).counts
    for r in (1, 2, 3, 4):
        assert point_count_by_enumeration(E, r) == expected[r - 1]


def test_enumeration_matches_equation_counts():
    expected = point_counts(CUBIC, 2).counts
    for r in (1, 2):
        assert point_count_by_enumeration(CUBIC, r) == expected[r - 1]


def test_enumeration_rejects_closed_form_specs():
    with pytest.raises(SpecError):
        point_count_by_enumeration(AffineSpace(1, 2), 1)


@pytest.mark.parametrize("spec", [AffineSpace(1, 4), ProjectiveSpace(1, 2)])
def test_enumeration_checks_the_spec_kind_before_building_a_field(spec, monkeypatch):
    def no_field(*args):
        raise AssertionError("built a field for a spec that cannot be enumerated")

    monkeypatch.setattr(varieties, "FiniteField", no_field)
    for enumerate_spec in (lambda: point_count_by_enumeration(spec, 2), lambda: closed_point_counts(spec, 1, 2)):
        with pytest.raises(SpecError, match="brute-force enumeration needs an elliptic or equations spec"):
            enumerate_spec()


@pytest.mark.parametrize("spec", [AffineSpace(1, 2), ProjectiveSpace(1, 2)])
def test_closed_point_counts_refuses_a_closed_form_spec_even_with_no_degrees(spec):
    with pytest.raises(SpecError, match="brute-force enumeration needs an elliptic or equations spec"):
        closed_point_counts(spec, 1, 0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: closed_point_counts(E, -1, 2),
        lambda: closed_point_counts(E, 1, -1),
        lambda: closed_point_counts(E, 0, 2),
        lambda: closed_point_counts(CUBIC, 0, 0),
        lambda: brute_sym_count(E, 2, 0),
        lambda: brute_sym_count(E, 0, 0),
        lambda: point_count_by_enumeration(E, 0),
        lambda: point_count_by_enumeration(CUBIC, -3),
    ],
    ids=["r=-1", "dmax=-1", "r=0", "equations-r=0", "sym-r=0", "sym0-r=0", "enumeration-r=0", "equations-enumeration-r=-3"],
)
def test_enumeration_arguments_are_checked_before_any_field_is_built(call, monkeypatch):
    def no_field(*args):
        raise AssertionError("built a field for arguments that cannot be enumerated")

    monkeypatch.setattr(varieties, "FiniteField", no_field)
    with pytest.raises(ValueError, match="enumeration needs r >= 1 and dmax >= 0"):
        call()


def test_closed_point_counts_with_no_degrees_is_empty():
    assert closed_point_counts(E, 1, 0) == ()
    assert closed_point_counts(CUBIC, 2, 0) == ()


@pytest.mark.parametrize(
    "search, required",
    [
        (lambda budget: elliptic_trace(E, budget), 10),  # 2p
        # w = isqrt(4p) = 63, m = isqrt(w) = 7: 7 baby steps, ceil(127/15) = 9 giant steps,
        # 6 * bitlen(p + 1 + w) = 6 * 11 scalar-multiplication steps
        (lambda budget: elliptic_trace(EllipticCurve(1009, 1, 1), budget), 82),
        (lambda budget: point_count_by_enumeration(E, 2, budget), 50),  # 2q over F_25
        (lambda budget: point_count_by_enumeration(CUBIC, 3, budget), 64),  # q^n over F_8
        (lambda budget: point_counts(CUBIC, 3, budget), 64),
        # the last field searched is the one refused: 2q over F_(5^6), 2q over F_(5^3), q^n over F_8
        (lambda budget: closed_point_counts(E, 2, 3, budget), 31250),
        (lambda budget: brute_sym_count(E, 3, 1, budget), 250),
        (lambda budget: closed_point_counts(CUBIC, 1, 3, budget), 64),
    ],
    ids=["elliptic-trace", "elliptic-trace-bsgs", "elliptic-points", "equations-enumeration", "equations-root-count",
         "elliptic-closed-points", "elliptic-sym", "equations-closed-points"],
)
def test_every_search_is_charged_by_one_budget_gate(search, required):
    with pytest.raises(BudgetError) as info:
        search(required - 1)
    assert (info.value.required, info.value.budget) == (required, required - 1)
    assert str(info.value) == f"the search space has size {required}, budget is {required - 1}"
    search(required)  # a budget equal to the search space is enough


def test_closed_point_counts_affine_line():
    # monic irreducible polynomial counts over F_2: degrees 1, 2, 3
    line = EquationsSpec.from_strings(2, ("x",), ())
    assert closed_point_counts(line, 1, 3) == (2, 1, 2)


def test_closed_point_counts_elliptic():
    # degree-d closed points: (N_d - sum of lower orbits)/d off the table (4, 32, 148)
    assert closed_point_counts(E, 1, 3) == (4, 14, 48)
    assert closed_point_counts(E, 2, 2) == (32, 304)


def test_brute_sym_count_small_powers():
    assert brute_sym_count(E, 0, 1) == 1
    assert brute_sym_count(E, 1, 1) == 4
    assert brute_sym_count(E, 2, 1) == 24
    assert brute_sym_count(E, 2, 2) == 832
    assert brute_sym_count(CUBIC, 1, 2) == 4


def test_brute_sym_count_closed_formula_degree_two():
    # multisets of total degree 2: pairs of degree-1 points plus degree-2 points
    n1, n2 = point_counts(E, 2).counts
    assert brute_sym_count(E, 2, 1) == n1 * (n1 + 1) // 2 + (n2 - n1) // 2


def test_brute_sym_count_budget():
    with pytest.raises(BudgetError):
        brute_sym_count(E, 3, 2, budget=100)
    with pytest.raises(ValueError):
        brute_sym_count(E, -1, 1)


def test_refused_brute_sym_count_builds_no_table(monkeypatch):
    fields = []
    build = varieties.FiniteField

    def recorded(p, k):
        fields.append(build(p, k))
        return fields[-1]

    monkeypatch.setattr(varieties, "FiniteField", recorded)
    with pytest.raises(BudgetError):
        brute_sym_count(E, 2, 1, budget=20)  # F_5 (10 steps) passes, F_25 (50) is refused
    assert [(f.p, f.k) for f in fields] == [(5, 1), (5, 2)]
    assert all(f._tables is None for f in fields)


def test_counting_leaves_the_shared_field_tables_as_built(monkeypatch):
    """Every field of the same (p, k, modulus) reads one memoized set of tables, so no reader may write them."""
    monkeypatch.setattr(finitefield, "_TABLES", {})
    E5, curve = EllipticCurve(5, 1, 1), EquationsSpec.from_strings(5, ("x", "y"), ("y^2 - x^3 - x - 1",))
    counts = point_counts(E5, 4)
    for spec, infinity in ((E5, 1), (curve, 0)):
        assert point_counts(spec, 4).counts == tuple(n - 1 + infinity for n in counts.counts)
        assert [point_count_by_enumeration(spec, r) for r in (2, 3, 4)] == [n - 1 + infinity for n in counts.counts[1:]]
        assert closed_point_counts(spec, 1, 4)[1:] == closed_point_degree_counts(counts, 4)[1:]
        assert brute_sym_count(spec, 2, 2) == sym_power_counts(point_counts(spec, 4), 2, 2).counts[1]
    assert [key[:2] for key in finitefield._TABLES] == [(5, 2), (5, 3), (5, 4)]
    for key, shared in list(finitefield._TABLES.items()):
        with mock.patch.dict(finitefield._TABLES, clear=True):
            assert FiniteField(5, key[1])._build() == shared
