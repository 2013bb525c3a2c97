"""Contract fuzz test of the command line: whatever the documents hold, main answers by the contract.

Each example is a well-formed argv for ``zeta``, ``sym``, ``series``,
``reconstruct`` or ``witt`` (argparse accepts it; usage errors and ``check``
are not drawn): integer flags in -2..12, ``series`` at most 6 x 6, and
documents whose fields hold random values and types (bools, strings,
floats, nulls, nested products, count tables, small equation systems,
unknown and missing fields).  ``main`` runs in-process under a small
WITTZETA_ENUM_BUDGET and must not raise; it returns 0, 2, 3, 4 or 5.  On 0
stdout holds exactly one JSON document and stderr nothing; otherwise stdout
is empty and stderr holds exactly one JSON error document.
"""

import contextlib
import io
import json
import os
from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

from wittzeta.cli import main

FLAG = st.integers(-2, 12).map(str)
JUNK = st.one_of(st.booleans(), st.none(), st.floats(), st.text(max_size=3), st.just([]), st.just({}))


def rarely(n):
    """True about once in n draws (hypothesis draws the smallest integer far more often than a middle one)."""
    return st.integers(0, n - 1).map(lambda k: k == n // 2)


def mostly(strategy):
    """strategy, and about one draw in sixteen a value of a random JSON type instead."""
    return rarely(16).flatmap(lambda junk: JUNK if junk else strategy)


INTS = st.one_of(st.integers(-2, 12), st.integers(-2, 12).map(str))
PRIMES = st.sampled_from([2, 3, 5, 7, 11, 13, 101, 1009, 10007, 1, 4, 6])
WIRE_INT = st.one_of(st.integers(-50, 50), st.integers(-50, 50).map(str), st.integers(1, 40).map(lambda k: 3**k))
TERMS = ["x", "y", "z", "x^2", "y^2", "x*y", "x^3", "y^3", "2*x", "3", "1", "(x+y)^2", "x^12", "u", "x^²", "((x", ""]


@st.composite
def honest_counts(draw):
    """N_1..N_m of some closed-point counts a_d, or a table with one count moved off by one."""
    closed = draw(st.lists(st.integers(0, 20), min_size=1, max_size=12))
    counts = [sum(d * closed[d - 1] for d in range(1, m + 1) if m % d == 0) for m in range(1, len(closed) + 1)]
    if draw(rarely(4)):
        counts[draw(st.integers(0, len(counts) - 1))] += 1
    return counts


@st.composite
def polynomials(draw):
    terms = draw(st.lists(st.sampled_from(TERMS), min_size=1, max_size=4))
    signs = draw(st.lists(st.sampled_from([" + ", " - ", "*"]), min_size=len(terms), max_size=len(terms)))
    return "".join(s + t for s, t in zip(signs, terms))[1:]


SPEC_VALUES = {
    "dim": mostly(st.one_of(st.integers(-1, 6), INTS)), "q": mostly(PRIMES), "p": mostly(PRIMES),
    "a": mostly(INTS), "b": mostly(INTS),
    "counts": mostly(st.one_of(honest_counts(), st.lists(mostly(st.integers(-2, 30)), max_size=12))),
    "vars": mostly(st.one_of(st.sampled_from([["x"], ["x", "y"], ["x", "y", "z"], []]),
                             st.lists(st.sampled_from(["x", "y", "x", 1]), max_size=3))),
    "polys": mostly(st.lists(mostly(polynomials()), max_size=3)),
}
SPEC_FIELDS = {"affine": ("dim", "q"), "projective": ("dim", "q"), "elliptic": ("p", "a", "b"),
               "product": ("factors",), "counts": ("counts", "q"), "equations": ("vars", "polys", "p")}


@st.composite
def specs(draw, depth=0):
    kind = draw(mostly(st.sampled_from([k for k in SPEC_FIELDS if depth < 2 or k != "product"])))
    doc = {} if draw(rarely(32)) else {"type": kind}
    for field in SPEC_FIELDS.get(kind, ("q",)) if isinstance(kind, str) else ("q",):
        if not draw(rarely(32)):  # now and then a field is missing
            if field == "factors":
                doc[field] = draw(mostly(st.lists(specs(depth + 1), min_size=1, max_size=3)))
            else:
                doc[field] = draw(SPEC_VALUES[field])
    if draw(rarely(32)):
        doc["extra"] = draw(JUNK)
    return doc


@st.composite
def witt_documents(draw):
    prec = draw(st.integers(-2, 12))
    coeffs = draw(st.lists(mostly(WIRE_INT), min_size=max(prec, 0), max_size=max(prec, 0)))
    doc = {"precision": draw(mostly(st.just(prec))), "coeffs": draw(mostly(st.just(coeffs)))}
    if draw(rarely(16)):
        doc[draw(st.sampled_from(["extra", "ghost"]))] = 1
    return doc


@st.composite
def ghost_documents(draw):
    """Ghost coordinates, often those of a Teichmueller vector (a, a^2, ..), as a bare array or a document."""
    a, n = draw(st.integers(-3, 12)), draw(st.integers(0, 12))
    coords = draw(st.one_of(st.just([str(a**k) for k in range(1, n + 1)]), st.lists(mostly(WIRE_INT), max_size=12)))
    if draw(st.booleans()):
        return coords
    doc = {"precision": draw(mostly(st.just(len(coords)))), "ghost": draw(mostly(st.just(coords)))}
    if draw(rarely(16)):
        doc[draw(st.sampled_from(["extra", "coeffs"]))] = 1
    return doc


def document(strategy):
    return strategy.map(lambda doc: json.dumps(doc))


@st.composite
def witt_argv(draw):
    argv = ["witt", draw(st.sampled_from(["add", "mul", "neg", "teich", "ghost", "unghost", "frob"]))]
    for _ in range(draw(st.integers(0, 3))):
        argv += ["--teich", draw(FLAG)]
    for _ in range(draw(st.integers(0, 3))):
        argv += ["--witt", draw(document(witt_documents()))]
    if draw(st.booleans()):
        argv += ["--ghost", draw(document(ghost_documents()))]
    for flag in ("-N", "-n"):
        if not draw(rarely(4)):
            argv += [flag, draw(FLAG)]
    return argv


@st.composite
def reconstruct_argv(draw):
    argv = ["reconstruct", "--dmax", draw(FLAG)]
    if not draw(rarely(6)):
        argv += ["--spec", draw(document(specs()))]
    if draw(rarely(4)):
        argv += ["--witt", draw(document(witt_documents()))]
    if not draw(rarely(6)):
        argv += ["-N", draw(FLAG)]
    return argv


SPEC = document(specs())
ARGV = st.one_of(
    st.tuples(st.just("zeta"), st.just("--spec"), SPEC, st.just("-N"), FLAG).map(list),
    st.tuples(st.just("sym"), st.just("--spec"), SPEC, st.just("-n"), FLAG, st.just("-N"), FLAG).map(list),
    st.tuples(st.just("series"), st.just("--spec"), SPEC, st.just("-M"), st.integers(-2, 6).map(str),
              st.just("-N"), st.integers(-2, 6).map(str)).map(list),
    reconstruct_argv(),
    witt_argv(),
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(ARGV)
def test_main_answers_every_well_formed_argv_by_the_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"WITTZETA_ENUM_BUDGET": "2000"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3, 4, 5), (code, err)
    if code == 0:
        assert err == ""
        assert out.endswith("\n") and out.count("\n") == 1
        json.loads(out)
    else:
        assert out == ""
        assert err.endswith("\n") and err.count("\n") == 1
        error = json.loads(err)["error"]
        assert set(error) <= {"code", "message", "degree", "required", "budget"} and error["message"]
