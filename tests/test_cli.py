import json
import math

import numpy as np
import pytest

import cellmat as cm
from cellmat.cli import main

import reference_data as ref


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out), err


def test_construct(capsys):
    payload, err = run_json(capsys, "construct", "--vector", "[1, 2, 3]")
    assert payload == {"n": 3, "rows": [[0, 3, 4], [3, 0, 5], [4, 5, 0]]}
    assert "order 3" in err


def test_construct_from_file(tmp_path, capsys):
    path = tmp_path / "vec.json"
    path.write_text('{"x": [1, 1]}')
    payload, _ = run_json(capsys, "construct", "--vector", f"@{path}")
    assert payload["rows"] == [[0, 2], [2, 0]]


def test_spectrum_vector_with_agreement(capsys):
    payload, err = run_json(capsys, "spectrum", "--vector", "[1, 1, 1]")
    assert payload["eigenvalues"] == pytest.approx([4.0, -2.0, -2.0], abs=1e-9)
    assert payload["via_reduction"] == pytest.approx([4.0, -2.0, -2.0], abs=1e-9)
    assert payload["agree"] is True
    assert "agrees" in err


def test_spectrum_ungrouped_vector(capsys):
    payload, _ = run_json(capsys, "spectrum", "--vector", "[1, 2, 3]")
    assert payload["via_reduction"] is None
    assert payload["agree"] is None


def test_spectrum_matrix_input(capsys):
    matrix = json.dumps({"n": 2, "rows": [[0.0, 2.0], [2.0, 0.0]]})
    payload, _ = run_json(capsys, "spectrum", "--matrix", matrix)
    assert payload["eigenvalues"] == pytest.approx([2.0, -2.0], abs=1e-12)


def test_spectrum_symmetric_noncell_matrix(capsys):
    payload, _ = run_json(capsys, "spectrum", "--matrix", "[[1, 0], [0, 2]]")
    assert payload["eigenvalues"] == pytest.approx([2.0, 1.0])
    assert payload["via_reduction"] is None


@pytest.mark.parametrize("vector", ["[1e200, 2e200, 3e200]", "[1e-300, 2e-300, 3e-300]"])
def test_spectrum_extreme_magnitudes(capsys, vector):
    payload, _ = run_json(capsys, "spectrum", "--vector", vector)
    m = cm.construct_cell_matrix(json.loads(vector)).entries
    exponent = math.frexp(float(np.abs(m).max()))[1]
    expected = np.ldexp(np.linalg.eigvalsh(np.ldexp(m, -exponent)), exponent)[::-1]
    got = np.array(payload["eigenvalues"])
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


def test_spectrum_requires_one_input(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--vector", "[1,1]", "--matrix", "[[0]]")
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "parse"


def test_reduce(capsys):
    payload, _ = run_json(capsys, "reduce", "--vector", json.dumps(list(ref.VECTOR_11)))
    assert payload["core"] == ref.CORE_11
    assert payload["known_blocks"] == [
        {"value": -2.0, "count": 4},
        {"value": -4.0, "count": 5},
    ]
    assert payload["sort_permutation"] == list(range(11))
    assert all(op["kind"] in ("swap", "row_sum") for op in payload["ops"])


def test_solve3(capsys):
    payload, _ = run_json(capsys, "solve3", "--spectrum", "[3, -2, -1]")
    assert payload["x"] == pytest.approx([math.sqrt(3) - 0.5, 0.5, 0.5], abs=1e-12)
    assert payload["spectrum"] == [3.0, -1.0, -2.0]


def test_solve_uniform(capsys):
    payload, _ = run_json(capsys, "solve-uniform", "--tails", "[-2]", "--mult", "[4]")
    assert payload == {
        "x": [1.0, 1.0, 1.0, 1.0],
        "head": [6.0],
        "spectrum": [6.0, -2.0, -2.0, -2.0],
    }


def test_solve_uniform_wants_one_group(capsys):
    code, out, _ = run_cli(capsys, "solve-uniform", "--tails", "[-2,-3]", "--mult", "[2,2]")
    assert code == 2
    assert "exactly 1" in json.loads(out)["error"]["message"]


def test_solve_2group(capsys):
    payload, _ = run_json(capsys, "solve-2group", "--tails", "[-2, -4]", "--mult", "[5, 6]")
    assert payload["head"] == pytest.approx(list(ref.HEAD_11), abs=1e-10)
    assert payload["x"] == list(ref.VECTOR_11)


def test_solve_grouped(capsys):
    payload, _ = run_json(
        capsys, "solve-grouped", "--tails", "[-2, -3, -5]", "--mult", "[4, 4, 5]"
    )
    assert payload["x"] == list(ref.VECTOR_13)
    assert sorted(payload["head"]) == pytest.approx(sorted(ref.HEAD_13), abs=1e-9)
    assert len(payload["spectrum"]) == 13
    built = cm.construct_cell_matrix(payload["x"]).entries
    assert np.array_equal(built, np.array(ref.MATRIX_13))


def test_verify_perm(capsys):
    payload, err = run_json(
        capsys,
        "verify-perm",
        "--vector",
        json.dumps(list(ref.VECTOR_7)),
        "--perm",
        json.dumps({"cycles": ref.CYCLES_7}),
    )
    assert payload["ok"] is True
    assert "spectrum preserved" in err


def test_verify_perm_mapping_list(capsys):
    payload, _ = run_json(
        capsys, "verify-perm", "--vector", "[1, 2]", "--perm", "[2, 1]"
    )
    assert payload["ok"] is True


def test_verify_membership_accept(capsys):
    payload, _ = run_json(
        capsys,
        "verify-membership",
        "--spectrum",
        "[4, -2, -2]",
        "--tails",
        "[-2]",
        "--mult",
        "[3]",
    )
    assert payload["accepted"] is True


def test_verify_membership_reject(capsys):
    payload, err = run_json(
        capsys,
        "verify-membership",
        "--spectrum",
        "[5, -2, -3]",
        "--tails",
        "[-2]",
        "--mult",
        "[3]",
    )
    assert payload["accepted"] is False
    assert "rejected" in err


def test_detcheck(capsys):
    payload, _ = run_json(capsys, "detcheck", "--vector", "[1, 2, 3, 4]")
    assert payload["ok"] is True
    assert len(payload["orders"]) == 4
    assert payload["orders"][0]["formula"] == 0.0


def test_construct_feeds_spectrum_round_trip(capsys):
    solved, _ = run_json(capsys, "solve-grouped", "--tails", "[-2, -4]", "--mult", "[5, 6]")
    constructed, _ = run_json(capsys, "construct", "--vector", json.dumps(solved["x"]))
    spectrum, _ = run_json(capsys, "spectrum", "--matrix", json.dumps(constructed))
    assert cm.multisets_close(spectrum["eigenvalues"], solved["spectrum"], 1e-8)
    assert spectrum["agree"] is True


def test_solver_order_limit(capsys):
    code, out, _ = run_cli(capsys, "solve-uniform", "--tails", "[-2]", "--mult", "[250]")
    assert code == 3
    assert "exceeds" in json.loads(out)["error"]["message"]


def test_deterministic_output(capsys):
    _, out1, _ = run_cli(capsys, "solve3", "--spectrum", "[3, -2, -1]")
    _, out2, _ = run_cli(capsys, "solve3", "--spectrum", "[3, -2, -1]")
    assert out1 == out2


def test_out_file(tmp_path, capsys):
    out_path = tmp_path / "result.json"
    code, out, err = run_cli(
        capsys, "construct", "--vector", "[1, 1]", "--out", str(out_path)
    )
    assert code == 0
    assert json.loads(out_path.read_text())["n"] == 2
    assert "order 2" in out  # summary moves to stdout when JSON goes to a file
    assert err == ""


def test_exit_code_parse_error(capsys):
    code, out, _ = run_cli(capsys, "construct", "--vector", "[1, 2")
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "parse"


def test_exit_code_domain_error(capsys):
    code, out, _ = run_cli(capsys, "construct", "--vector", "[0, 1]")
    assert code == 3
    assert json.loads(out)["error"]["kind"] == "domain"


def test_exit_code_asymmetric_matrix(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--matrix", "[[0, 1], [2, 0]]")
    assert code == 3


@pytest.mark.parametrize(
    "matrix",
    ["[[0, Infinity], [Infinity, 0]]", "[[NaN, 1], [1, 0]]", "[[1e308, 1e308], [1e308, 1e308]]"],
)
def test_exit_code_non_finite_matrix_or_spectrum(capsys, matrix):
    code, out, _ = run_cli(capsys, "spectrum", "--matrix", matrix)
    assert code == 3
    assert json.loads(out)["error"]["kind"] == "domain"


def test_exit_code_order_limit(capsys):
    big = json.dumps([1.0] * 201)
    code, out, _ = run_cli(capsys, "spectrum", "--vector", big)
    assert code == 3
    assert "exceeds" in json.loads(out)["error"]["message"]


def test_unknown_command(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 2


def test_missing_required_flag(capsys):
    assert run_cli(capsys, "construct")[0] == 2
