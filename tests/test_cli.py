"""Tests for the command line surface: documents, exit codes, determinism."""

import contextlib
import io
import json
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from wittzeta.cli import (
    _emit, _int_from_wire, _int_to_wire, decode_spec, decode_witt, encode_ghost, encode_rational, encode_witt, main,
)
from wittzeta.errors import ReconstructionError
from wittzeta.finitefield import is_prime
from wittzeta.rings import IntPolynomial, ZZ
from wittzeta.sigma import sigma_witt
from wittzeta.varieties import point_counts
from wittzeta.witt import WittVector, ghost, teichmuller, witt_add
from wittzeta.zeta import RationalFunction, rational_reconstruct, zeta_from_counts


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# --- witt subcommand ---


def test_witt_mul_of_teichmullers(capsys):
    doc = run_json(capsys, "witt", "mul", "--teich", "2", "--teich", "3", "-N", "4")
    assert doc == {"precision": 4, "coeffs": ["6", "36", "216", "1296"]}


def test_witt_add_documents(capsys):
    one = '{"precision":3,"coeffs":["1","1","1"]}'
    doc = run_json(capsys, "witt", "add", "--witt", one, "--witt", one)
    assert doc == {"precision": 3, "coeffs": ["2", "3", "4"]}


def test_witt_add_and_mul_fold_every_operand(capsys):
    assert run_json(capsys, "witt", "mul", "--teich", "2", "--teich", "3", "--teich", "5", "-N", "4") == \
        encode_witt(teichmuller(30, 4))
    one = '{"precision":3,"coeffs":["1","1","1"]}'
    ones = decode_witt(json.loads(one))
    doc = run_json(capsys, "witt", "add", "--teich", "2", "--witt", one, "--witt", one, "-N", "3")
    assert doc == encode_witt(witt_add(witt_add(teichmuller(2, 3), ones), ones))


def test_witt_ghost(capsys):
    doc = run_json(capsys, "witt", "ghost", "--teich", "3", "-N", "3")
    assert doc == {"precision": 3, "ghost": ["3", "9", "27"]}


def test_witt_unghost_zero(capsys):
    doc = run_json(capsys, "witt", "unghost", "--ghost", "[0,0,0]")
    assert doc == {"precision": 3, "coeffs": ["0", "0", "0"]}


def test_witt_unghost_reads_the_document_witt_ghost_prints(capsys):
    _, ghost_doc, _ = run_cli(capsys, "witt", "ghost", "--teich", "3", "-N", "3")
    teich = run_json(capsys, "witt", "teich", "--teich", "3", "-N", "3")
    assert run_json(capsys, "witt", "unghost", "--ghost", ghost_doc) == teich
    vector = encode_witt(WittVector.from_coeffs(ZZ, [(-7) ** k - k for k in range(40)]))
    _, ghost_doc, _ = run_cli(capsys, "witt", "ghost", "--witt", json.dumps(vector))
    assert len(json.loads(ghost_doc)["ghost"]) == 40
    assert run_json(capsys, "witt", "unghost", "--ghost", ghost_doc) == vector


@pytest.mark.parametrize(
    "doc, message",
    [
        ('{"precision":2,"ghost":["3","9","27"]}', "ghost must be a list of length precision"),
        ('{"precision":3,"ghost":["3","9","27"],"extra":1}', "unknown ghost fields: ['extra']"),
    ],
    ids=["precision-mismatch", "extra-field"],
)
def test_witt_unghost_document_exits_2_on_a_bad_shape(capsys, doc, message):
    code, out, err = run_cli(capsys, "witt", "unghost", "--ghost", doc)
    assert_one_malformed_input_line(code, out, err)
    assert json.loads(err)["error"]["message"] == message


def test_witt_frobenius(capsys):
    doc = run_json(capsys, "witt", "frob", "--teich", "3", "-N", "4", "-n", "2")
    assert doc == {"precision": 2, "coeffs": ["9", "81"]}


def test_witt_neg_and_result_truncation(capsys):
    doc = run_json(capsys, "witt", "neg", "--witt", '{"precision":4,"coeffs":["2","4","8","16"]}', "-N", "2")
    assert doc["precision"] == 2
    assert doc == encode_witt(-teichmuller(2, 4).truncate(2))


def test_witt_teich_requires_precision(capsys):
    code, out, err = run_cli(capsys, "witt", "teich", "--teich", "5")
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["code"] == "malformed-input"


def test_witt_ghost_and_unghost_truncate_to_the_precision(capsys):
    vector = '{"precision":3,"coeffs":[1,2,3]}'
    full = run_json(capsys, "witt", "ghost", "--witt", vector)
    assert run_json(capsys, "witt", "ghost", "--witt", vector, "-N", "1") == {"precision": 1, "ghost": full["ghost"][:1]}
    assert run_json(capsys, "witt", "ghost", "--witt", vector, "-N", "5") == full
    assert run_json(capsys, "witt", "unghost", "--ghost", "[3,9,27]", "-N", "1") == {"precision": 1, "coeffs": ["3"]}
    assert run_json(capsys, "witt", "unghost", "--ghost", json.dumps(full), "-N", "2") == \
        {"precision": 2, "coeffs": ["1", "2"]}


WITT = '{"precision":3,"coeffs":[1,2,3]}'


@pytest.mark.parametrize(
    "argv, message",
    [
        (["unghost", "--ghost", "[3,9,27]", "-N", "1", "--teich", "5"],
         "unghost reads --ghost coordinates only, no --teich or --witt operand"),
        (["unghost", "--ghost", "[3,9,27]", "--witt", WITT],
         "unghost reads --ghost coordinates only, no --teich or --witt operand"),
        (["add", "--witt", WITT, "--witt", WITT, "-n", "3"], "-n is the Frobenius index of frob; add takes none"),
        (["ghost", "--witt", WITT, "-n", "1"], "-n is the Frobenius index of frob; ghost takes none"),
        (["unghost", "--ghost", "[3,9,27]", "-n", "2"], "-n is the Frobenius index of frob; unghost takes none"),
        (["neg", "--witt", WITT, "--ghost", "[1]"], "--ghost coordinates are read by unghost only, not by neg"),
        (["frob", "-n", "2", "--witt", WITT, "--ghost", "[1]"],
         "--ghost coordinates are read by unghost only, not by frob"),
    ],
    ids=["unghost-teich", "unghost-witt", "add-index", "ghost-index", "unghost-index", "neg-ghost", "frob-ghost"],
)
def test_witt_refuses_a_flag_the_operation_does_not_read(capsys, argv, message):
    code, out, err = run_cli(capsys, "witt", *argv)
    assert_one_malformed_input_line(code, out, err)
    assert json.loads(err)["error"]["message"] == message


BAD_WITT = '{"precision":2}'


@pytest.mark.parametrize(
    "argv, message",
    [
        (["add", "--witt", WITT], "add needs at least two operands"),
        (["mul", "--teich", "2", "-N", "3"], "mul needs at least two operands"),
        (["neg", "--witt", WITT, "--witt", WITT], "neg takes exactly one operand"),
        (["ghost", "--teich", "2", "--witt", WITT, "-N", "3"], "ghost takes exactly one operand"),
        (["frob", "-n", "2", "--witt", WITT, "--witt", WITT], "frob takes exactly one operand"),
        (["teich", "--teich", "2", "--teich", "3", "-N", "3"], "teich takes exactly one --teich operand"),
        (["teich", "--teich", "2", "--witt", WITT, "-N", "3"], "teich takes exactly one --teich operand"),
        (["unghost"], "unghost needs --ghost coordinates"),
        (["frob", "-n", "0", "--witt", WITT], "frob needs a positive -n index"),
        (["frob", "--witt", WITT], "frob needs a positive -n index"),
        (["add", "--teich", "2", "--teich", "3"], "--teich operands need an explicit -N precision"),
        (["teich", "--teich", "2"], "--teich operands need an explicit -N precision"),
        # operands are decoded before they are counted
        (["neg", "--witt", WITT, "--witt", BAD_WITT], "coeffs must be a list of length precision"),
        (["add", "--witt", BAD_WITT], "coeffs must be a list of length precision"),
    ],
    ids=["add-one", "mul-one", "neg-two", "ghost-two", "frob-two", "teich-two-teich", "teich-witt", "unghost-none",
         "frob-index-0", "frob-no-index", "teich-operand-no-N", "teich-no-N", "neg-bad-doc", "add-bad-doc"],
)
def test_witt_refuses_a_wrong_operand_count_or_index(capsys, argv, message):
    code, out, err = run_cli(capsys, "witt", *argv)
    assert_one_malformed_input_line(code, out, err)
    assert json.loads(err)["error"]["message"] == message


# --- zeta, sym, series ---


def test_zeta_projective_line(capsys):
    doc = run_json(capsys, "zeta", "--spec", '{"type":"projective","dim":1,"q":2}', "-N", "3")
    assert doc == {"precision": 3, "coeffs": ["3", "7", "15"]}


def test_sym_plane_first_coefficient(capsys):
    doc = run_json(capsys, "sym", "--spec", '{"type":"projective","dim":2,"q":2}', "-n", "2", "-N", "1")
    assert doc == {"precision": 1, "coeffs": ["35"]}


def test_sym_zeroth_power_is_all_ones(capsys):
    doc = run_json(capsys, "sym", "--spec", '{"type":"elliptic","p":5,"a":1,"b":0}', "-n", "0", "-N", "3")
    assert doc == {"precision": 3, "coeffs": ["1", "1", "1"]}


def test_series_nests_witt_documents(capsys):
    doc = run_json(capsys, "series", "--spec", '{"type":"affine","dim":1,"q":2}', "-M", "2", "-N", "2")
    assert doc == {
        "precision": 2,
        "coeffs": [
            {"precision": 2, "coeffs": ["2", "4"]},
            {"precision": 2, "coeffs": ["4", "16"]},
        ],
    }


def test_product_spec_decodes(capsys):
    e = '{"type":"elliptic","p":5,"a":1,"b":0}'
    doc = run_json(capsys, "zeta", "--spec", f'{{"type":"product","factors":[{e},{e}]}}', "-N", "2")
    assert doc == {"precision": 2, "coeffs": ["16", "640"]}


def test_equations_spec_decodes(capsys):
    spec = '{"type":"equations","p":2,"vars":["x","y"],"polys":["y^2 + y - x^3 - x"]}'
    doc = run_json(capsys, "zeta", "--spec", spec, "-N", "2")
    assert doc == {"precision": 2, "coeffs": ["4", "10"]}


def test_equations_spec_over_a_cubic_extension_tower(capsys):
    # x^3+x+1 is irreducible over F_2: its three roots lie in F_{2^r} exactly
    # when 3 | r, so Z = 1/(1 - t^3); -N 20 builds every field up to F_{2^20}.
    spec = '{"type":"equations","p":2,"vars":["x"],"polys":["x^3+x+1"]}'
    doc = run_json(capsys, "zeta", "--spec", spec, "-N", "20")
    assert doc == {"precision": 20, "coeffs": ["1" if n % 3 == 0 else "0" for n in range(1, 21)]}


# --- reconstruct ---


def test_reconstruct_projective_line(capsys):
    doc = run_json(
        capsys, "reconstruct", "--spec", '{"type":"projective","dim":1,"q":2}', "-N", "8", "--dmax", "2"
    )
    assert doc == {"num": ["1"], "den": ["1", "-3", "2"], "display": "1/((1-t)(1-2t))"}


def test_reconstruct_from_witt_document(capsys):
    witt_doc = json.dumps(encode_witt(teichmuller(3, 6)))
    doc = run_json(capsys, "reconstruct", "--witt", witt_doc, "--dmax", "1")
    assert doc == {"num": ["1"], "den": ["1", "-3"], "display": "1/(1-3t)"}


# --- closed-form specs print what the counts route prints ---


def stdout_of(*argv):
    """(exit code, stdout) of one in-process CLI run; stderr is left alone."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def document(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


@st.composite
def closed_form_spec_docs(draw):
    """JSON specs of A^d, P^d (q a prime or prime power) and nonsingular E over F_p, p < 200."""
    kind = draw(st.sampled_from(["affine", "projective", "elliptic"]))
    if kind != "elliptic":
        return {"type": kind, "dim": draw(st.integers(0, 4)), "q": draw(st.sampled_from([2, 3, 4, 5, 9, 27, 97]))}
    p = draw(st.sampled_from([p for p in range(5, 200) if is_prime(p)]))
    a = draw(st.integers(0, p - 1))
    b = next(b for b in range(draw(st.integers(0, p - 1)), 2 * p) if (4 * a**3 + 27 * b**2) % p)
    return {"type": "elliptic", "p": p, "a": a, "b": b % p}


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(doc=closed_form_spec_docs(), n=st.integers(1, 40), outer=st.integers(1, 5), dmax=st.integers(0, 20))
def test_closed_form_specs_print_the_counts_route_documents(doc, n, outer, dmax):
    spec_text, spec = json.dumps(doc), decode_spec(doc)
    z = zeta_from_counts(point_counts(spec, n), n)
    assert stdout_of("zeta", "--spec", spec_text, "-N", str(n)) == (0, document(encode_witt(z)))
    inner = max(1, n // outer)
    z_series = zeta_from_counts(point_counts(spec, outer * inner), outer * inner)
    expected = (0, document(encode_witt(sigma_witt(z_series, outer))))
    assert stdout_of("series", "--spec", spec_text, "-M", str(outer), "-N", str(inner)) == expected
    dmax = min(dmax, n // 2)
    try:
        expected = (0, document(encode_rational(rational_reconstruct(z, dmax))))
    except ReconstructionError:
        expected = (5, "")
    assert stdout_of("reconstruct", "--spec", spec_text, "-N", str(n), "--dmax", str(dmax)) == expected


CLOSED_FORM_SPECS = ['{"type":"affine","dim":1,"q":2}', '{"type":"projective","dim":2,"q":9}',
                     '{"type":"elliptic","p":5,"a":1,"b":0}']


@pytest.mark.parametrize("spec", CLOSED_FORM_SPECS)
@pytest.mark.parametrize("argv", [["zeta", "-N", "0"], ["series", "-M", "2", "-N", "0"],
                                  ["reconstruct", "-N", "0", "--dmax", "0"]])
def test_closed_form_specs_at_precision_0_exit_2(capsys, spec, argv):
    code, out, err = run_cli(capsys, *argv, "--spec", spec)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["code"] == "malformed-input"


@pytest.mark.parametrize("spec", CLOSED_FORM_SPECS)
@pytest.mark.parametrize("argv", [["zeta", "-N", str(10**20)], ["reconstruct", "-N", str(10**20), "--dmax", "2"],
                                  ["sym", "-n", str(10**20), "-N", "1"]], ids=["zeta", "reconstruct", "sym"])
def test_a_size_past_the_index_range_exits_2(capsys, spec, argv):
    assert_one_malformed_input_line(*run_cli(capsys, *argv, "--spec", spec))


# The least prime above 2^23: its O(p) count (2p) exceeded the default budget 2^24.
P_PAST_2_23 = 8388617
# The trace of y^2 = x^3 + x + 1 over F_8388617, computed once by the square-table
# oracle of tests/test_varieties.py (16 s).
TRACE_PAST_2_23 = 622
ELLIPTIC_PAST_2_23 = f'{{"type":"elliptic","p":{P_PAST_2_23},"a":1,"b":1}}'
TRACE_READERS = [
    (["zeta", "-N", "3"], lambda doc: P_PAST_2_23 + 1 - int(doc["coeffs"][0])),
    (["series", "-M", "2", "-N", "2"], lambda doc: P_PAST_2_23 + 1 - int(doc["coeffs"][0]["coeffs"][0])),
    (["reconstruct", "-N", "4", "--dmax", "2"], lambda doc: -int(doc["num"][1])),
]


@pytest.mark.parametrize("argv, trace_of", TRACE_READERS, ids=["zeta", "series", "reconstruct"])
def test_elliptic_prime_past_2_to_23_answers_by_bsgs(capsys, argv, trace_of):
    assert trace_of(run_json(capsys, *argv, "--spec", ELLIPTIC_PAST_2_23)) == TRACE_PAST_2_23


@pytest.mark.parametrize("argv", [argv for argv, _ in TRACE_READERS], ids=["zeta", "series", "reconstruct"])
def test_elliptic_bsgs_past_the_budget_exits_4_with_its_step_count(capsys, monkeypatch, argv):
    # w = isqrt(4p) = 5792 and m = isqrt(w) = 76: 76 baby steps, ceil((2w + 1)/(2m + 1)) = 76
    # giant steps, and 6 * bitlen(p + 1 + w) = 6 * 24 = 144 scalar-multiplication steps
    monkeypatch.setenv("WITTZETA_ENUM_BUDGET", "295")
    code, out, err = run_cli(capsys, *argv, "--spec", ELLIPTIC_PAST_2_23)
    assert (code, out) == (4, "")
    error = json.loads(err)["error"]
    assert (error["code"], error["required"], error["budget"]) == ("budget-exceeded", 296, 295)


@pytest.mark.parametrize("spec", CLOSED_FORM_SPECS)
def test_reconstruct_spec_below_twice_dmax_exits_5(capsys, spec):
    code, out, err = run_cli(capsys, "reconstruct", "--spec", spec, "-N", "5", "--dmax", "3")
    assert (code, out) == (5, "")
    error = json.loads(err)["error"]
    assert (error["code"], error["required"]) == ("precision-shortfall", 6)


def test_reconstruct_requires_one_source(capsys):
    code, _, err = run_cli(capsys, "reconstruct", "--dmax", "2")
    assert code == 2
    assert json.loads(err)["error"]["code"] == "malformed-input"


def test_reconstruct_witt_refuses_a_zeta_precision(capsys):
    """-N sets the zeta precision of --spec; --witt reconstructs the document at its own precision."""
    witt_doc = json.dumps(encode_witt(teichmuller(3, 6)))
    for precision in ("3", "6", "8"):
        code, out, err = run_cli(capsys, "reconstruct", "--witt", witt_doc, "--dmax", "1", "-N", precision)
        assert_one_malformed_input_line(code, out, err)
        assert json.loads(err)["error"]["message"] == "-N is the zeta precision of --spec; --witt takes none"


# --- input handling and exit codes ---


def test_file_arguments_via_at_prefix(capsys, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text('{"type":"projective","dim":1,"q":2}', encoding="utf-8")
    doc = run_json(capsys, "zeta", "--spec", f"@{path}", "-N", "3")
    assert doc["coeffs"] == ["3", "7", "15"]


def test_missing_file_is_malformed_input(capsys, tmp_path):
    code, _, err = run_cli(capsys, "zeta", "--spec", f"@{tmp_path}/absent.json", "-N", "2")
    assert code == 2
    assert json.loads(err)["error"]["code"] == "malformed-input"


def test_exit_code_2_on_malformed_json(capsys):
    code, out, err = run_cli(capsys, "zeta", "--spec", "not json", "-N", "2")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["code"] == "malformed-input"


def assert_one_malformed_input_line(code, out, err):
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"]["code"] == "malformed-input"


def test_exit_code_2_on_deeply_nested_product_spec(capsys):
    spec = '{"type":"affine","dim":1,"q":2}'
    for _ in range(600):
        spec = '{"type":"product","factors":[' + spec + "]}"
    assert_one_malformed_input_line(*run_cli(capsys, "zeta", "--spec", spec, "-N", "2"))


@pytest.mark.parametrize(
    "poly", ["(" * 400 + "x" + ")" * 400, "-" * 5000 + "x"], ids=["parentheses", "unary-minus"]
)
def test_exit_code_2_on_deeply_nested_polynomial(capsys, poly):
    spec = json.dumps({"type": "equations", "p": 2, "vars": ["x"], "polys": [poly]})
    assert_one_malformed_input_line(*run_cli(capsys, "zeta", "--spec", spec, "-N", "1"))


@pytest.mark.parametrize(
    "spec",
    [
        {"type": "equations", "p": 2, "vars": ["x", "y"], "polys": ["(x+y+1)^200"]},
        {"type": "equations", "p": 2, "vars": ["x", "y"], "polys": ["(x+1)^100000"]},
    ],
    ids=["trinomial-200", "binomial-100000"],
)
def test_exit_code_2_on_polynomial_past_the_product_cap(capsys, spec):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "zeta", "--spec", json.dumps(spec), "-N", "1")
    assert time.perf_counter() - start < 5
    assert_one_malformed_input_line(code, out, err)
    assert "1048576 term products" in json.loads(err)["error"]["message"]


def test_exit_code_2_on_strong_pseudoprime_field_size(capsys):
    # 399165290221 * 798330580441 passes Miller-Rabin to every prime base up to 37
    spec = '{"type":"affine","dim":1,"q":318665857834031151167461}'
    assert_one_malformed_input_line(*run_cli(capsys, "zeta", "--spec", spec, "-N", "2"))


@pytest.mark.parametrize("kind", ["elliptic", "affine", "equations"])
def test_exit_code_2_on_prime_beyond_the_proven_bound(capsys, kind):
    p = 2**89 - 1  # prime, but above psi_13 where Miller-Rabin proves nothing
    spec = {
        "elliptic": {"type": "elliptic", "p": p, "a": 1, "b": 1},
        "affine": {"type": "affine", "dim": 1, "q": p},
        "equations": {"type": "equations", "p": p, "vars": ["x"], "polys": ["x"]},
    }[kind]
    code, out, err = run_cli(capsys, "zeta", "--spec", json.dumps(spec), "-N", "2")
    assert_one_malformed_input_line(code, out, err)
    assert "psi_13 = 3317044064679887385961981" in json.loads(err)["error"]["message"]


def test_exit_code_2_on_unknown_spec_type(capsys):
    code, _, err = run_cli(capsys, "zeta", "--spec", '{"type":"weird"}', "-N", "2")
    assert code == 2


SPEC_OF_EACH_TYPE = {
    "affine": {"type": "affine", "dim": 1, "q": 2},
    "projective": {"type": "projective", "dim": 1, "q": 2},
    "elliptic": {"type": "elliptic", "p": 5, "a": 1, "b": 1},
    "product": {"type": "product", "factors": [{"type": "affine", "dim": 1, "q": 2}]},
    "counts": {"type": "counts", "q": 2, "counts": [2]},
    "equations": {"type": "equations", "p": 2, "vars": ["x"], "polys": ["x"]},
}


@pytest.mark.parametrize("kind", SPEC_OF_EACH_TYPE)
def test_exit_code_2_on_an_unknown_spec_field(capsys, kind):
    spec = SPEC_OF_EACH_TYPE[kind]
    assert run_json(capsys, "zeta", "--spec", json.dumps(spec), "-N", "1")
    code, out, err = run_cli(capsys, "zeta", "--spec", json.dumps({**spec, "extra": 1}), "-N", "1")
    assert_one_malformed_input_line(code, out, err)
    assert json.loads(err)["error"]["message"] == f"unknown {kind} spec fields: ['extra']"


def test_exit_code_2_on_an_unknown_field_of_a_product_factor(capsys):
    factor = {**SPEC_OF_EACH_TYPE["elliptic"], "extra": 1}
    spec = {"type": "product", "factors": [SPEC_OF_EACH_TYPE["affine"], factor]}
    code, out, err = run_cli(capsys, "zeta", "--spec", json.dumps(spec), "-N", "1")
    assert_one_malformed_input_line(code, out, err)
    assert json.loads(err)["error"]["message"] == "unknown elliptic spec fields: ['extra']"


@pytest.mark.parametrize("kind", SPEC_OF_EACH_TYPE)
def test_missing_spec_field_message(capsys, kind):
    for field in set(SPEC_OF_EACH_TYPE[kind]) - {"type"}:
        spec = {k: v for k, v in SPEC_OF_EACH_TYPE[kind].items() if k != field}
        code, out, err = run_cli(capsys, "zeta", "--spec", json.dumps(spec), "-N", "1")
        assert_one_malformed_input_line(code, out, err)
        assert json.loads(err)["error"]["message"] == f"variety spec of type {kind!r} is missing field {field!r}"


def test_superscript_digit_in_an_equation_is_malformed_input(capsys):
    spec = {"type": "equations", "p": 2, "vars": ["x"], "polys": ["x^²"]}
    code, out, err = run_cli(capsys, "zeta", "--spec", json.dumps(spec), "-N", "1")
    assert_one_malformed_input_line(code, out, err)
    assert "invalid literal" not in err


def test_exit_code_3_on_integrality_failure(capsys):
    code, out, err = run_cli(capsys, "witt", "unghost", "--ghost", "[1,0]")
    assert (code, out) == (3, "")
    error = json.loads(err)["error"]
    assert error["code"] == "integrality-failure"
    assert error["degree"] == 2


def test_exit_code_3_on_negative_closed_point_count(capsys):
    # N_1 = 5, N_2 = 1 over F_4 passes the Newton steps but leaves -2 closed points of degree 2
    code, out, err = run_cli(capsys, "zeta", "--spec", '{"type":"counts","q":4,"counts":[5,1]}', "-N", "2")
    assert (code, out) == (3, "")
    error = json.loads(err)["error"]
    assert error["code"] == "integrality-failure"
    assert error["degree"] == 2


def test_exit_code_4_on_budget(capsys, monkeypatch):
    monkeypatch.setenv("WITTZETA_ENUM_BUDGET", "10")
    spec = '{"type":"equations","p":5,"vars":["x","y"],"polys":["y^2 - x^3 - x"]}'
    code, out, err = run_cli(capsys, "zeta", "--spec", spec, "-N", "1")
    assert (code, out) == (4, "")
    error = json.loads(err)["error"]
    assert error["code"] == "budget-exceeded"
    assert error["required"] == 25
    assert error["budget"] == 10


def test_exit_code_5_on_precision_shortfall(capsys):
    code, out, err = run_cli(capsys, "zeta", "--spec", '{"type":"counts","q":2,"counts":[2]}', "-N", "3")
    assert (code, out) == (5, "")
    error = json.loads(err)["error"]
    assert (error["code"], error["required"]) == ("precision-shortfall", 3)
    assert error["message"] == "count N_3 requested but only range 1 is known"


def test_budget_env_var_must_be_positive(capsys, monkeypatch):
    monkeypatch.setenv("WITTZETA_ENUM_BUDGET", "0")
    code, _, err = run_cli(capsys, "zeta", "--spec", '{"type":"affine","dim":1,"q":2}', "-N", "2")
    assert code == 2


# --- integers past CPython's int/str digit limit ---


def digit_limit():
    """CPython's int/str digit limit, or 0 on builds without one (3.10.6 and older)."""
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0


@contextlib.contextmanager
def no_digit_limit():
    limit = digit_limit()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def test_outputs_past_the_digit_limit_are_written_and_read_back(capsys):
    limit = digit_limit()
    zeta = run_json(capsys, "zeta", "--spec", '{"type":"affine","dim":15000,"q":2}', "-N", "2")
    with no_digit_limit():
        expected = [str(2**15000), str(2**30000)]
    assert zeta["coeffs"] == expected and len(expected[0]) == 4516
    neg = run_json(capsys, "witt", "neg", "--witt", json.dumps(zeta), "-N", "1")
    assert neg["coeffs"] == ["-" + expected[0]]
    rational = run_json(capsys, "reconstruct", "--witt", json.dumps(zeta), "--dmax", "1")
    assert rational == {"num": ["1"], "den": ["1", "-" + expected[0]]}  # no display past 10**12
    spec = '{"type":"affine","dim":15000,"q":2}'
    assert run_json(capsys, "reconstruct", "--spec", spec, "-N", "2", "--dmax", "1") == rational
    # (1 + K t)/(1 - t) = 1 + (K + 1)(t + t^2 + ...): the display renders K in full
    k = "1" + "0" * 5000
    doc = json.dumps({"precision": 4, "coeffs": [k[:-1] + "1"] * 4})
    rational = run_json(capsys, "reconstruct", "--witt", doc, "--dmax", "1")
    assert rational == {"num": ["1", k], "den": ["1", "-1"], "display": f"(1 + {k}*t)/(1-t)"}
    assert digit_limit() == limit


def test_integrality_failure_on_integers_past_the_digit_limit_exits_3(capsys):
    # the Newton step at degree 2 divides 1 + 10**8000 by 2
    code, out, err = run_cli(capsys, "witt", "unghost", "--ghost", "[1" + "0" * 4000 + ", 1]")
    assert (code, out) == (3, "")
    assert json.loads(err)["error"]["degree"] == 2


def test_output_past_the_wire_cap_exits_4_with_its_digits(capsys):
    limit = digit_limit()
    code, out, err = run_cli(capsys, "zeta", "--spec", '{"type":"affine","dim":340000,"q":2}', "-N", "1")
    assert (code, out) == (4, "")
    error = json.loads(err)["error"]
    assert (error["code"], error["required"], error["budget"]) == ("budget-exceeded", 102351, 100000)
    assert digit_limit() == limit


def test_inputs_up_to_the_wire_cap_are_read(capsys):
    at_cap = "-" + "9" * 100000
    for ghost in (json.dumps([at_cap]), "[" + at_cap + "]"):
        assert run_json(capsys, "witt", "unghost", "--ghost", ghost)["coeffs"] == [at_cap]
    for ghost in (json.dumps(["1" + "0" * 100000]), "[1" + "0" * 100000 + "]"):
        code, out, err = run_cli(capsys, "witt", "unghost", "--ghost", ghost)
        assert_one_malformed_input_line(code, out, err)
        assert "has more than 100000 digits" in json.loads(err)["error"]["message"]


def test_specs_and_polynomials_stay_under_the_digit_limit(capsys):
    literal = "1" + "0" * 4400
    specs = [
        '{"type":"counts","q":2,"counts":[' + literal + "]}",
        json.dumps({"type": "equations", "p": 2, "vars": ["x"], "polys": ["x - " + literal]}),
    ]
    for spec in specs:
        start = time.perf_counter()
        assert_one_malformed_input_line(*run_cli(capsys, "zeta", "--spec", spec, "-N", "1"))
        assert time.perf_counter() - start < 5


def test_huge_integer_powers_in_a_polynomial_exit_2_at_once(capsys):
    spec = json.dumps({"type": "equations", "p": 2, "vars": ["x"], "polys": ["x - 2^1000000000"]})
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "zeta", "--spec", spec, "-N", "1")
    assert time.perf_counter() - start < 5
    assert_one_malformed_input_line(code, out, err)
    assert "coefficients past 4096 bits" in json.loads(err)["error"]["message"]


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit to lift")
def test_the_digit_limit_is_lifted_once_per_document(capsys, monkeypatch):
    calls = []
    real = sys.set_int_max_str_digits
    monkeypatch.setattr(sys, "set_int_max_str_digits", lambda n: (calls.append(n), real(n))[1])
    limit = digit_limit()
    zeta = run_json(capsys, "zeta", "--spec", '{"type":"affine","dim":2000,"q":2}', "-N", "40")
    assert len(zeta["coeffs"]) == 40 and len(zeta["coeffs"][-1]) > 4300
    assert calls == [0, limit]  # lifted and restored once for 40 coefficients
    assert digit_limit() == limit


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit to lift")
def test_the_digit_limit_is_lifted_once_per_input_document(capsys, monkeypatch):
    calls = []
    real = sys.set_int_max_str_digits
    monkeypatch.setattr(sys, "set_int_max_str_digits", lambda n: (calls.append(n), real(n))[1])
    limit = digit_limit()
    doc = json.dumps({"precision": 100, "coeffs": [str(c) for c in range(1, 100)] + ["7" * 5000]})
    neg = run_json(capsys, "witt", "neg", "--witt", doc)
    assert len(neg["coeffs"]) == 100 and len(neg["coeffs"][-1]) > 4300
    assert calls == [0, limit, 0, limit]  # once to read 100 coefficients, once to write them
    assert digit_limit() == limit


def test_the_wire_writer_prints_what_json_dumps_prints(capsys):
    nested = sigma_witt(witt_add(teichmuller(-3, 6), -teichmuller(5, 6)), 3)
    docs = [encode_witt(nested), encode_witt(teichmuller(-7, 4)), encode_ghost(ghost(-teichmuller(2, 5))),
            encode_rational(RationalFunction(IntPolynomial((1, -4, 9)), IntPolynomial((1, -3, 2)))),
            encode_rational(RationalFunction(IntPolynomial((1, 2, -2)), IntPolynomial((1, 1, 1))))]
    assert "display" in docs[3] and "display" not in docs[4]
    for doc in docs:
        assert any(c.startswith("-") for c in json.dumps(doc).split('"') if c[1:].isdigit())
    names = {"vars": ['x"', "y\\", "\u00e9"], "polys": [["x\n"], []], "num": []}  # plain lists are escaped
    for doc in docs + [names]:
        _emit(lambda: doc)
        assert capsys.readouterr().out == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def test_wire_integers_without_a_digit_limit(monkeypatch):
    # Python 3.10 builds before 3.10.7 have no limit to lift
    monkeypatch.delattr(sys, "set_int_max_str_digits", raising=False)
    assert _int_to_wire(-12345) == "-12345"
    assert _int_from_wire("678", "coefficient") == 678


# --- check subcommand ---


def test_check_single_suite(capsys):
    code, out, err = run_cli(capsys, "check", "sym-projective-line")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["results"][0]["criterion"] == "sym-projective-line"
    assert "PASS" in err


def test_check_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "check", "nonexistent")
    assert code == 2
    assert json.loads(err)["error"] == {"code": "malformed-input", "message": "unknown check names: nonexistent"}


# --- serialization round trips and determinism ---


def test_witt_document_round_trip():
    for vector in (teichmuller(7, 5), witt_add(teichmuller(2, 4), teichmuller(-3, 4))):
        doc = encode_witt(vector)
        assert decode_witt(json.loads(json.dumps(doc))) == vector


def test_decode_witt_validates_shape():
    from wittzeta.errors import SpecError

    with pytest.raises(SpecError):
        decode_witt(["1"])
    with pytest.raises(SpecError):
        decode_witt({"precision": 2, "coeffs": ["1"]})
    with pytest.raises(SpecError):
        decode_witt({"precision": 1, "coeffs": ["1"], "extra": 0})
    with pytest.raises(SpecError):
        decode_witt({"precision": 1, "coeffs": [True]})


def test_successive_main_calls_print_what_fresh_processes_print():
    runs = [["witt", "mul", "--teich", "2", "--teich", "3", "-N", "4"],
            ["witt", "add", "--teich", "5", "--teich", "7", "--teich", "11", "-N", "3"],
            ["zeta", "--spec", '{"type":"projective","dim":1,"q":2}', "-N", "3"],
            ["witt", "mul", "--teich", "2", "--teich", "3", "-N", "4"],
            ["witt", "teich", "--teich", "5", "-N", "2"]]
    in_process = [stdout_of(*argv) for argv in runs]
    fresh = [subprocess.run([sys.executable, "-m", "wittzeta.cli", *argv], capture_output=True, text=True)
             for argv in runs]
    assert in_process == [(run.returncode, run.stdout) for run in fresh]
    assert in_process[0] == in_process[3]


def test_cli_output_is_byte_identical_across_runs():
    argv = [sys.executable, "-m", "wittzeta.cli", "sym",
            "--spec", '{"type":"projective","dim":1,"q":3}', "-n", "2", "-N", "4"]
    first = subprocess.run(argv, capture_output=True, check=True)
    second = subprocess.run(argv, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout.endswith(b"\n")
    assert first.stderr == b""
