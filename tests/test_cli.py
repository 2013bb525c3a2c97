"""Tests for the command line surface: documents, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

from wittzeta.cli import decode_witt, encode_witt, main
from wittzeta.rings import ZZ
from wittzeta.witt import WittVector, teichmuller, witt_add


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


def test_witt_ghost(capsys):
    doc = run_json(capsys, "witt", "ghost", "--teich", "3", "-N", "3")
    assert doc == {"precision": 3, "ghost": ["3", "9", "27"]}


def test_witt_unghost_zero(capsys):
    doc = run_json(capsys, "witt", "unghost", "--ghost", "[0,0,0]")
    assert doc == {"precision": 3, "coeffs": ["0", "0", "0"]}


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


def test_reconstruct_requires_one_source(capsys):
    code, _, err = run_cli(capsys, "reconstruct", "--dmax", "2")
    assert code == 2
    assert json.loads(err)["error"]["code"] == "malformed-input"


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


def test_exit_code_2_on_unknown_spec_type(capsys):
    code, _, err = run_cli(capsys, "zeta", "--spec", '{"type":"weird"}', "-N", "2")
    assert code == 2


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
    assert json.loads(err)["error"]["code"] == "precision-shortfall"


def test_budget_env_var_must_be_positive(capsys, monkeypatch):
    monkeypatch.setenv("WITTZETA_ENUM_BUDGET", "0")
    code, _, err = run_cli(capsys, "zeta", "--spec", '{"type":"affine","dim":1,"q":2}', "-N", "2")
    assert code == 2


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


def test_cli_output_is_byte_identical_across_runs():
    argv = [sys.executable, "-m", "wittzeta.cli", "sym",
            "--spec", '{"type":"projective","dim":1,"q":3}', "-n", "2", "-N", "4"]
    first = subprocess.run(argv, capture_output=True, check=True)
    second = subprocess.run(argv, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout.endswith(b"\n")
    assert first.stderr == b""
