"""Differential tests: vectors known by their ghosts alone against the eager route.

An unrealized Witt vector has ghost coordinates and no series yet.  ``witt_add``,
``witt_mul``, ``frobenius`` and ``truncate`` keep such an operand in ghost
coordinates, pointwise; with realized operands they run as they always did.
Here every operation runs on unrealized, realized and mixed operands over ZZ,
ZZ[z] and W_3(ZZ), and its result, once realized, must equal the same
operation on plain realized copies.  What realized inputs give must be
realized, coefficients included, so no public result defers its work.

``zeta_generating_series`` hands ``sigma_witt`` Z(X) unrealized, by its point
counts.  The route it replaced, ``sigma_witt(spec_zeta(spec, M*N), M)`` with
every vector realized (the truncation of Z copied with its ghost map, its
Frobenius images inverted, the outer Newton recursion run on series), is kept
here as ``generating_series_by_spec_zeta`` and compared on elliptic
curves, affine and projective spaces, count tables, equations and products,
on the library and on the CLI, errors included.
"""

import contextlib
import io
import json

import pytest
from hypothesis import assume, given, settings, strategies as st

from wittzeta import witt
from wittzeta.cli import encode_witt, main
from wittzeta.errors import IntegralityError, PrecisionError, WittZetaError
from wittzeta.finitefield import is_prime
from wittzeta.rings import IntPolynomial, ZPOLY, ZZ
from wittzeta.sigma import macdonald_poincare, sigma_poly, sigma_witt
from wittzeta.varieties import (
    AffineSpace,
    CountsSpec,
    EllipticCurve,
    EquationsSpec,
    ProductSpec,
    ProjectiveSpace,
    point_counts,
)
from wittzeta.witt import GhostVector, WittRing, WittVector, frobenius, ghost_inverse, witt_add, witt_mul
from wittzeta.zeta import spec_zeta, sym_zeta, zeta_from_counts, zeta_generating_series

W3 = WittRing(ZZ, 3)
SEEDED = settings(max_examples=30, derandomize=True, database=None, deadline=None)


def elements(ring):
    if ring is ZZ:
        return st.integers(-6, 6)
    if ring is ZPOLY:
        return st.lists(st.integers(-4, 4), max_size=3).map(IntPolynomial)
    return st.lists(st.integers(-3, 3), min_size=ring.prec, max_size=ring.prec).map(
        lambda cs: WittVector.from_coeffs(ring.coeff_ring, cs)
    )


def witt_vectors(ring, prec):
    return st.lists(elements(ring), min_size=prec, max_size=prec).map(lambda cs: WittVector.from_coeffs(ring, cs))


def plain(x):
    """A Witt vector as nested tuples of its precision and coefficients, down to the base ring."""
    if isinstance(x, WittVector):
        return ("W", x.prec, tuple(plain(c) for c in x.series.coeffs))
    return x


def is_realized(x) -> bool:
    """x has its series, and so has every Witt vector among its coefficients, at every level."""
    if not isinstance(x, WittVector):
        return True
    return x._series is not None and all(map(is_realized, x._series.coeffs))


def fresh(v: WittVector) -> WittVector:
    """A realized copy with no ghost coordinates: what the eager route computes from."""
    return WittVector(v.series)


FORMS = {
    "plain": fresh,
    "carrying": lambda v: ghost_inverse(witt.ghost(fresh(v))),
    "unrealized": lambda v: fresh(v).with_ghost(),
}


def outcome(fn, *args):
    """fn(*args) in plain form, or the class and message of its error (and degree or required)."""
    try:
        return plain(fn(*args))
    except WittZetaError as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "degree", None), getattr(exc, "required", None))
    except ValueError as exc:
        return ("ValueError", str(exc))


CASES = {"ZZ": (ZZ, 8), "ZZ[z]": (ZPOLY, 5), "W_3(ZZ)": (W3, 4)}


@pytest.mark.parametrize("case", sorted(CASES))
@SEEDED
@given(data=st.data())
def test_ring_operations_on_unrealized_and_mixed_operands_match_the_eager_route(case, data):
    ring, max_prec = CASES[case]
    prec = data.draw(st.integers(1, max_prec))
    p = data.draw(witt_vectors(ring, prec))
    q = data.draw(witt_vectors(ring, data.draw(st.integers(1, max_prec))))
    p_form, q_form = data.draw(st.sampled_from(sorted(FORMS))), data.draw(st.sampled_from(sorted(FORMS)))
    lazy = p_form == "unrealized" or q_form == "unrealized"
    x, y = FORMS[p_form](p), FORMS[q_form](q)
    n, k = data.draw(st.integers(1, prec + 1)), data.draw(st.integers(0, prec + 1))
    for name, op in [
        ("add", witt_add),
        ("mul", witt_mul),
        ("frobenius", lambda a, b: frobenius(a, n)),
        ("truncate", lambda a, b: a.truncate(k)),
        ("neg", lambda a, b: witt.witt_neg(a)),
        ("pow", lambda a, b: witt.witt_pow(a, k)),
        ("scale", lambda a, b: witt.witt_scale(a, n - 2)),
    ]:
        assert outcome(op, FORMS[p_form](p), FORMS[q_form](q)) == outcome(op, fresh(p), fresh(q)), name
    made = [(witt_add(x, y), lazy), (witt_mul(x, y), lazy)]
    if n <= prec:
        made.append((frobenius(x, n), p_form == "unrealized"))
    if 1 <= k <= prec:
        made.append((x.truncate(k), p_form == "unrealized"))
    assert [v._series is None for v, _ in made] == [unrealized for _, unrealized in made]
    for v, _ in made:
        ghosts = witt.ghost(v).coords
        assert plain(v) == plain(fresh(v))  # realized once, and kept
        assert witt.ghost(v).coords == ghosts == witt.ghost(fresh(v)).coords


@pytest.mark.parametrize("op", [witt_add, witt_mul])
@pytest.mark.parametrize("p_form", sorted(FORMS))
@pytest.mark.parametrize("q_form", sorted(FORMS))
def test_operands_over_different_rings_raise_one_error_before_any_ghost_map(monkeypatch, op, p_form, q_form):
    p = FORMS[p_form](WittVector.from_coeffs(ZZ, [1, 2, 3]))
    q = FORMS[q_form](WittVector.from_coeffs(ZPOLY, [IntPolynomial((0, 1)), IntPolynomial((2, 3))]))
    calls = []
    kernel = witt._ghost_ints  # the ghost map over ZZ and ZZ[z]

    def counting_kernel(a):
        calls.append(len(a))
        return kernel(a)

    monkeypatch.setattr(witt, "_ghost_ints", counting_kernel)
    for x, y in ((p, q), (q, p)):
        with pytest.raises(ValueError, match="^Witt vectors live over different rings$"):
            op(x, y)
    assert calls == []


@pytest.mark.parametrize("case", sorted(CASES))
@SEEDED
@given(data=st.data())
def test_witt_ring_operations_on_unrealized_elements_match_the_eager_route(case, data):
    """WittRing's add, mul, neg, scalar_mul, eq and divide_exact, whatever form their elements take;
    divide_exact's quotient is realized and carries gh(x)/n, and a non-multiple fails at the same degree."""
    coeff_ring, max_prec = CASES[case]
    prec = data.draw(st.integers(1, max_prec))
    ring = WittRing(coeff_ring, prec)
    p, q = data.draw(witt_vectors(coeff_ring, prec)), data.draw(witt_vectors(coeff_ring, prec))
    x, y = (FORMS[data.draw(st.sampled_from(sorted(FORMS)))](v) for v in (p, q))
    k, n = data.draw(st.integers(-3, 3)), data.draw(st.integers(1, 3))
    for op, args, eager_args in [
        (ring.add, (x, y), (p, q)),
        (ring.mul, (x, y), (p, q)),
        (ring.neg, (x,), (p,)),
        (ring.scalar_mul, (x, k), (p, k)),
    ]:
        assert outcome(op, *args) == outcome(op, *eager_args)
    assert ring.eq(x, y) == (plain(p) == plain(q)) and ring.eq(x, fresh(p))
    multiple = witt.witt_scale(p, n)
    if data.draw(st.booleans()):  # most perturbed multiples have no n-th root
        cs = list(multiple.coeffs)
        cs[-1] = coeff_ring.add(cs[-1], coeff_ring.one)
        multiple = WittVector.from_coeffs(coeff_ring, cs)
    form = data.draw(st.sampled_from(sorted(FORMS)))
    quotient = outcome(ring.divide_exact, FORMS[form](multiple), n)
    assert quotient == outcome(ring.divide_exact, fresh(multiple), n)
    if quotient[0] == "W":
        made = ring.divide_exact(FORMS[form](multiple), n)
        assert is_realized(made)
        if form != "plain":
            assert made._ghost.coords == witt.ghost(fresh(made)).coords


SIGMA_CASES = {"ZZ": (ZZ, 12, 4), "ZZ[z]": (ZPOLY, 6, 3), "W_3(ZZ)": (W3, 4, 2)}


@pytest.mark.parametrize("case", sorted(SIGMA_CASES))
@SEEDED
@given(data=st.data())
def test_sigma_witt_matches_the_eager_route_on_every_form(case, data):
    ring, max_prec, max_outer = SIGMA_CASES[case]
    p = data.draw(witt_vectors(ring, data.draw(st.integers(1, max_prec))))
    outer = data.draw(st.integers(0, max_outer))
    form = data.draw(st.sampled_from(sorted(FORMS)))
    assert outcome(sigma_witt, FORMS[form](p), outer) == outcome(sigma_witt_eagerly, p, outer)


def sigma_witt_eagerly(p: WittVector, outer_prec: int) -> WittVector:
    """sigma_witt as it ran when every vector had its series: the truncation of P copied
    with its ghost map, each F_n a realized ghost inversion, the outer Newton recursion
    on series (a Witt product and a series product per term)."""
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
    top = fresh(p.truncate(outer_prec * inner_prec))
    top = WittVector._of(top.series, witt.ghost(top))
    coords = tuple(frobenius(top.truncate(n * inner_prec), n) for n in range(1, outer_prec + 1))
    assert all(map(is_realized, coords))
    return ghost_inverse(GhostVector(inner_ring, coords))


def generating_series_by_spec_zeta(spec, outer_prec: int, inner_prec: int) -> WittVector:
    """zeta_generating_series as it was: Z(X) expanded by ``spec_zeta``, then ``sigma_witt_eagerly``."""
    if outer_prec < 1 or inner_prec < 1:
        raise ValueError("precisions must be at least 1")
    return sigma_witt_eagerly(spec_zeta(spec, outer_prec * inner_prec), outer_prec)


def test_the_eager_oracle_makes_no_unrealized_vector(monkeypatch):
    make = WittVector._of.__func__

    def refuse(cls, series, g):
        if series is None:
            raise AssertionError("the eager route made an unrealized vector")
        return make(cls, series, g)

    monkeypatch.setattr(WittVector, "_of", classmethod(refuse))
    series = generating_series_by_spec_zeta(EllipticCurve(5, 1, 1), 4, 3)
    assert series.coefficient(2) == sym_zeta(EllipticCurve(5, 1, 1), 2, 3)


def elliptic(p, a, b):
    b = next(b for b in range(b, b + p) if (4 * a**3 + 27 * b**2) % p)
    return EllipticCurve(p, a, b % p)


@st.composite
def specs(draw):
    """Every kind of spec the CLI decodes, at sizes the eager route handles in a test."""
    kind = draw(st.sampled_from(["small elliptic", "bsgs elliptic", "affine", "projective",
                                 "counts", "equations", "product"]))
    if kind.endswith("elliptic"):
        primes = [p for p in (range(5, 100) if kind == "small elliptic" else range(230, 400)) if is_prime(p)]
        p = draw(st.sampled_from(primes))
        return elliptic(p, draw(st.integers(0, p - 1)), draw(st.integers(0, p - 1)))
    if kind in ("affine", "projective"):
        dim, q = draw(st.integers(0, 4)), draw(st.sampled_from([2, 3, 4, 9, 97]))
        return (AffineSpace if kind == "affine" else ProjectiveSpace)(dim, q)
    if kind == "counts":  # the table of a curve, cut short or perturbed past its first entry
        counts = list(witt.ghost(spec_zeta(elliptic(7, draw(st.integers(0, 6)), 1), 12)).coords)
        if draw(st.booleans()):
            counts[draw(st.integers(1, 11))] += draw(st.sampled_from([-1, 1, 7]))
        return CountsSpec(7, tuple(counts[: draw(st.integers(1, 12))]))
    if kind == "equations":
        return draw(st.sampled_from([
            EquationsSpec.from_strings(2, ["x"], ["x^3+x+1"]),
            EquationsSpec.from_strings(2, ["x", "y"], ["y^2 + y - x^3 - x"]),
            EquationsSpec.from_strings(3, ["x", "y"], ["y^2 - x^3 + x", "x*y"]),
        ]))
    return ProductSpec((elliptic(5, 1, draw(st.integers(0, 4))), draw(st.sampled_from(
        [ProjectiveSpace(1, 5), AffineSpace(2, 5), EquationsSpec.from_strings(5, ["x"], ["x^2 - 2"])]))))


def series_outcome(route, spec, outer, inner):
    try:
        series = route(spec, outer, inner)
    except WittZetaError as exc:
        return (type(exc).__name__, getattr(exc, "degree", None), getattr(exc, "required", None))
    assert is_realized(series)
    return plain(series)


@settings(SEEDED, max_examples=80)
@given(spec=specs(), outer=st.integers(1, 4), inner=st.integers(1, 3))
def test_zeta_generating_series_matches_spec_zeta_then_the_eager_sigma(spec, outer, inner):
    if isinstance(spec, EquationsSpec) and len(spec.variables) > 1:
        assume(outer * inner <= 8)
    assert series_outcome(zeta_generating_series, spec, outer, inner) == series_outcome(
        generating_series_by_spec_zeta, spec, outer, inner)


# --- the CLI prints what the eager route gives, byte for byte ---


def cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def document(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("spec_doc, spec, outer, inner", [
    ('{"type":"elliptic","p":5,"a":1,"b":1}', EllipticCurve(5, 1, 1), 12, 12),
    ('{"type":"elliptic","p":97,"a":2,"b":3}', EllipticCurve(97, 2, 3), 6, 8),
    ('{"type":"elliptic","p":233,"a":2,"b":3}', EllipticCurve(233, 2, 3), 5, 5),
    ('{"type":"projective","dim":3,"q":4}', ProjectiveSpace(3, 4), 5, 7),
    ('{"type":"affine","dim":2,"q":9}', AffineSpace(2, 9), 7, 3),
    ('{"type":"counts","q":4,"counts":[5,21,65,257]}', CountsSpec(4, (5, 21, 65, 257)), 2, 2),
    ('{"type":"equations","p":2,"vars":["x","y"],"polys":["y^2 + y - x^3 - x"]}',
     EquationsSpec.from_strings(2, ["x", "y"], ["y^2 + y - x^3 - x"]), 3, 2),
    ('{"type":"product","factors":[{"type":"elliptic","p":5,"a":1,"b":0},{"type":"projective","dim":1,"q":5}]}',
     ProductSpec((EllipticCurve(5, 1, 0), ProjectiveSpace(1, 5))), 4, 4),
])
def test_series_stdout_is_the_eager_route_document(spec_doc, spec, outer, inner):
    expected = document(encode_witt(generating_series_by_spec_zeta(spec, outer, inner)))
    assert cli("series", "--spec", spec_doc, "-M", str(outer), "-N", str(inner)) == (0, expected, "")


@pytest.mark.parametrize("counts, code, error, field, value", [
    ("[5,21,65]", 5, PrecisionError, "required", 4),
    ("[5,22,65,257]", 3, IntegralityError, "degree", 2),
])
def test_series_error_paths_are_those_of_the_eager_route(counts, code, error, field, value):
    spec_doc = f'{{"type":"counts","q":4,"counts":{counts}}}'
    with pytest.raises(error) as info:
        generating_series_by_spec_zeta(CountsSpec(4, tuple(json.loads(counts))), 2, 2)
    assert getattr(info.value, field) == value
    got, out, err = cli("series", "--spec", spec_doc, "-M", "2", "-N", "2")
    assert (got, out) == (code, "") and json.loads(err)["error"][field] == value


# --- realized in, realized out ---


@pytest.mark.parametrize("case", sorted(CASES))
@SEEDED
@given(data=st.data())
def test_realized_inputs_give_realized_results(case, data):
    """No operation defers a result when every input has its series: the results and all their
    coefficients are realized, whether the inputs carry ghosts or not."""
    ring, max_prec = CASES[case]
    prec = data.draw(st.integers(1, max_prec))
    x, y = (FORMS[data.draw(st.sampled_from(["plain", "carrying"]))](data.draw(witt_vectors(ring, prec)))
            for _ in range(2))
    n = data.draw(st.integers(1, prec))
    wring = WittRing(ring, prec)
    made = [witt_add(x, y), witt_mul(x, y), frobenius(x, n), x.truncate(n), witt.witt_neg(x),
            witt.witt_pow(x, n), witt.witt_scale(x, n - 2), witt.witt_sub(x, y), ghost_inverse(witt.ghost(x)),
            wring.add(x, y), wring.mul(x, y), wring.neg(x), wring.divide_exact(witt.witt_scale(x, n), n),
            sigma_witt(x, data.draw(st.integers(1, min(prec, 3))))]
    assert all(map(is_realized, made))


@SEEDED
@given(spec=specs(), outer=st.integers(1, 4), inner=st.integers(1, 3))
def test_library_results_from_specs_are_realized(spec, outer, inner):
    assume(not isinstance(spec, (CountsSpec, EquationsSpec)))
    made = [zeta_generating_series(spec, outer, inner), spec_zeta(spec, outer * inner),
            sym_zeta(spec, outer, inner), zeta_from_counts(point_counts(spec, inner), inner),
            sigma_poly(IntPolynomial((2, -1, 3)), inner), macdonald_poincare((1, 2, 1), inner)]
    assert all(map(is_realized, made))
