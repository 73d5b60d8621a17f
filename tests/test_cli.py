import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize(
    "argv, code",
    [
        (["construct", "--vector", '["a"]'], 2),
        (["construct", "--vector", "[[1,2]]"], 2),
        (["construct", "--vector", '{"x": ["a"]}'], 3),
        (["reduce", "--vector", '[1,1,"a"]'], 2),
        (["spectrum", "--matrix", '[[0,"a"],[1,0]]'], 2),
        (["spectrum", "--matrix", "[[0,1],[1]]"], 2),
        (["spectrum", "--matrix", '{"n": 2, "rows": [[0,1],[1]]}'], 3),
        (["solve-grouped", "--tails", "[-1]", "--mult", "[1e400]"], 2),
        (["verify-perm", "--vector", "[1,2,3]", "--perm", '["a",2,3]'], 3),
        (["verify-perm", "--vector", "[1,2,3]", "--perm", '"(1 a)"'], 3),
        (["verify-perm", "--vector", "[1,2,3]", "--perm", '{"cycles": 5}'], 3),
        (["construct", "--vector", "[1e308,1e308]"], 3),
        (["spectrum", "--matrix", "[[0, Infinity], [Infinity, 0]]"], 3),
        (["detcheck", "--vector", "[1e200,1e200,1e200]"], 3),
        (["detcheck", "--vector", "[1e-200,1e-200,1e-200]"], 3),
        (["verify-membership", "--spectrum", "[Infinity,-2,-2]", "--tails", "[-2]",
          "--mult", "[3]"], 3),
        (["construct", "--vector", "[" * 100000 + "]" * 100000], 2),
    ],
)
def test_bad_input_exit_code(capsys, argv, code):
    got, out, _ = run_cli(capsys, *argv)
    assert got == code
    assert json.loads(out)["error"]["kind"] == {2: "parse", 3: "domain"}[code]


def test_unreadable_input_file_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b"[\xff]")
    for argument in (f"@{path}", "@\x00"):
        code, out, _ = run_cli(capsys, "construct", "--vector", argument)
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "parse"


@pytest.mark.parametrize("vector", ["[1e-13,2e-13,3e-13,4e-13]", "[1e-300,2e-300,3e-300]"])
def test_spectrum_tiny_distinct_values_are_not_grouped(capsys, vector):
    payload, _ = run_json(capsys, "spectrum", "--vector", vector)
    assert payload["via_reduction"] is None
    assert payload["agree"] is None


def _main_quietly(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


_FLAGS = {
    "construct": ("--vector",),
    "spectrum": ("--vector", "--matrix"),
    "reduce": ("--vector",),
    "solve3": ("--spectrum",),
    "solve-uniform": ("--tails", "--mult"),
    "solve-2group": ("--tails", "--mult"),
    "solve-grouped": ("--tails", "--mult"),
    "verify-perm": ("--vector", "--perm"),
    "verify-membership": ("--spectrum", "--tails", "--mult"),
    "detcheck": ("--vector",),
}
_numbers = st.one_of(
    st.floats(),  # every magnitude up to 1e+-308, subnormals, inf and nan
    st.integers(-5, 12),
    st.integers(-(10**400), 10**400),
    st.sampled_from([1e308, -1e308, 1e154, 1e-154, 5e-324, 0.5, 2.0]),
)
_json = st.recursive(
    st.one_of(_numbers, st.text(max_size=4), st.booleans(), st.none()),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.sampled_from(["x", "n", "rows", "mapping", "cycles", ""]), inner,
                      max_size=3),
    max_leaves=16,
)
# repeated values reach the reduction route, integer lists the solvers and
# permutations
_repeated = st.lists(_numbers, min_size=1, max_size=3).flatmap(
    lambda values: st.lists(st.sampled_from(values), min_size=2, max_size=9)
)
_argument = st.one_of(
    _json.map(json.dumps),
    _repeated.map(json.dumps),
    _repeated.map(lambda v: json.dumps({"x": v})),
    st.lists(st.lists(_numbers, min_size=1, max_size=4), min_size=1, max_size=4).map(json.dumps),
    st.lists(st.integers(1, 5), min_size=1, max_size=5).map(
        lambda v: json.dumps("(" + " ".join(map(str, v)) + ")")
    ),
    st.text(max_size=6),
)


@settings(max_examples=75, deadline=None)
@given(command=st.sampled_from(sorted(_FLAGS)), data=st.data(),
       tol=st.none() | st.floats().map(repr))
def test_cli_fuzz_never_raises(command, data, tol):
    argv = [command]
    for flag in _FLAGS[command]:
        if command != "spectrum" or data.draw(st.booleans()):
            argv.append(f"{flag}={data.draw(_argument)}")
    if tol is not None:
        argv.append(f"--tol={tol}")
    code, out = _main_quietly(argv)
    assert code in (0, 2, 3, 4)
    if out:
        assert ("error" in json.loads(out)) == (code != 0)


_values = st.floats(0.1, 10.0)
_grouped = st.lists(st.tuples(_values, st.integers(2, 4)), min_size=1, max_size=6).flatmap(
    lambda groups: st.permutations([v for v, m in groups for _ in range(m)][:12])
).filter(lambda x: all(x.count(v) >= 2 for v in x))


@settings(max_examples=30, deadline=None)
@given(x=st.lists(_values, min_size=2, max_size=12) | _grouped, exponent=st.floats(-150.0, 150.0))
def test_spectrum_scales_with_the_vector(x, exponent):
    s = 10.0**exponent
    xs = [s * v for v in x]
    m = cm.construct_cell_matrix(xs).entries
    scaled = np.array(cm.eig_symmetric(m).values)
    assert (scaled > 0.0).sum() == 1
    base = np.array(cm.eig_symmetric(cm.construct_cell_matrix(x).entries).values)
    assert np.abs(scaled - s * base).max() <= 1e-12 * np.abs(scaled).max()
    code, out = _main_quietly(["spectrum", f"--vector={json.dumps(xs)}", "--tol=1e-8"])
    assert code in (0, 4)
    if code == 0 and json.loads(out)["agree"]:
        via_reduction = np.sort(json.loads(out)["via_reduction"])
        lapack = np.linalg.eigvalsh(m)
        assert np.abs(via_reduction - lapack).max() <= 1e-8 * np.abs(lapack).max()
