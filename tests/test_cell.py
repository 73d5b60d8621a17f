import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cellmat as cm
from cellmat import DomainError

positive_vectors = st.lists(
    st.floats(0.1, 10.0, allow_nan=False, allow_infinity=False), min_size=1, max_size=8
)


# --- construction ---------------------------------------------------------


def test_construct_pair():
    m = cm.construct_cell_matrix([1.0, 1.0])
    assert m.entries.tolist() == [[0.0, 2.0], [2.0, 0.0]]


def test_construct_triple():
    m = cm.construct_cell_matrix([1.0, 2.0, 3.0])
    assert m.entries.tolist() == [[0.0, 3.0, 4.0], [3.0, 0.0, 5.0], [4.0, 5.0, 0.0]]


def test_construct_seven_first_row():
    m = cm.construct_cell_matrix([1, 2, 3, 4, 5, 6, 7])
    assert m.entries[0].tolist() == [0.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]


@pytest.mark.parametrize("bad", [[0.0, 1.0], [-1.0, 2.0], [float("nan")], [float("inf")], []])
def test_construct_rejects_bad_vectors(bad):
    with pytest.raises(DomainError):
        cm.construct_cell_matrix(bad)


@given(positive_vectors)
def test_construct_invariants(entries):
    m = cm.construct_cell_matrix(entries).entries
    n = len(entries)
    assert np.array_equal(m, m.T)
    assert np.all(np.diag(m) == 0.0)
    off = m[~np.eye(n, dtype=bool)]
    assert np.all(off > 0.0)


def test_cell_matrix_entries_read_only():
    m = cm.construct_cell_matrix([1.0, 2.0])
    with pytest.raises(ValueError):
        m.entries[0, 1] = 5.0


def test_cell_matrix_validates():
    with pytest.raises(DomainError):
        cm.CellMatrix(order=2, entries=[[0.0, 1.0], [2.0, 0.0]])  # asymmetric
    with pytest.raises(DomainError):
        cm.CellMatrix(order=2, entries=[[1.0, 2.0], [2.0, 0.0]])  # diagonal
    with pytest.raises(DomainError):
        cm.CellMatrix(order=3, entries=[[0.0, 1.0], [1.0, 0.0]])  # order mismatch


# --- recognition ----------------------------------------------------------


def test_recognize_pair_symmetric_split():
    assert cm.recognize_cell([[0.0, 2.0], [2.0, 0.0]]).entries == (1.0, 1.0)


def test_recognize_triple():
    # by hand: x0 = (3+4-5)/2 = 1, then x1 = 3-1, x2 = 4-1
    got = cm.recognize_cell([[0, 3, 4], [3, 0, 5], [4, 5, 0]])
    assert got.entries == (1.0, 2.0, 3.0)


def test_recognize_rejects_nonpositive_solution():
    # by hand: x0 = (1+1-5)/2 = -3/2
    with pytest.raises(DomainError, match="positive"):
        cm.recognize_cell([[0, 1, 1], [1, 0, 5], [1, 5, 0]])


def test_recognize_rejects_structurally():
    with pytest.raises(DomainError, match="square"):
        cm.recognize_cell([[0.0, 1.0, 2.0]])
    with pytest.raises(DomainError, match="symmetric"):
        cm.recognize_cell([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(DomainError, match="diagonal"):
        cm.recognize_cell([[1.0, 2.0], [2.0, 0.0]])
    with pytest.raises(DomainError, match="inconsistent"):
        cm.recognize_cell([[0, 3, 4, 5], [3, 0, 5, 6], [4, 5, 0, 9], [5, 6, 9, 0]])
    with pytest.raises(DomainError, match="order-1"):
        cm.recognize_cell([[0.0]])


@given(st.lists(st.floats(0.1, 10.0, allow_nan=False), min_size=3, max_size=10))
def test_recognize_round_trip(entries):
    x = cm.PositiveVector(tuple(entries))
    back = cm.recognize_cell(cm.construct_cell_matrix(x).entries)
    for a, b in zip(x, back):
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


# --- principal subdeterminant ---------------------------------------------


def test_principal_subdeterminant_order_one_is_zero():
    assert cm.principal_subdeterminant([1.0, 1.0, 1.0], 1) == 0.0


def test_principal_subdeterminant_order_two():
    # cofactor expansion of [[0, 3], [3, 0]] gives -9 = -(x0+x1)^2
    assert cm.principal_subdeterminant([1.0, 2.0], 2) == pytest.approx(-9.0, abs=1e-12)


def test_principal_subdeterminant_order_three():
    # cofactor expansion of [[0,2,2],[2,0,2],[2,2,0]] gives 16
    assert cm.principal_subdeterminant([1.0, 1.0, 1.0], 3) == pytest.approx(16.0, abs=1e-12)


def test_principal_subdeterminant_range():
    with pytest.raises(DomainError):
        cm.principal_subdeterminant([1.0, 2.0], 0)
    with pytest.raises(DomainError):
        cm.principal_subdeterminant([1.0, 2.0], 3)


def test_sign_pattern():
    rng = np.random.default_rng(31)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        x = tuple(rng.uniform(0.1, 10.0, size=n))
        for i in range(2, n + 1):
            det = cm.principal_subdeterminant(x, i)
            assert math.copysign(1.0, det) == (-1.0) ** (i - 1)


def test_determinant_agreement():
    rng = np.random.default_rng(32)
    for _ in range(30):
        n = int(rng.integers(1, 11))
        x = tuple(rng.uniform(0.1, 10.0, size=n))
        a = cm.construct_cell_matrix(x).entries
        for i in range(1, n + 1):
            formula = cm.principal_subdeterminant(x, i)
            pivoted = cm.numeric_determinant(a[:i, :i])
            assert abs(formula - pivoted) <= 1e-8 * max(1.0, abs(formula), abs(pivoted))


# --- numeric determinant ---------------------------------------------------


def test_numeric_determinant_examples():
    assert cm.numeric_determinant([[0.0, 2.0], [2.0, 0.0]]) == pytest.approx(-4.0)
    # cofactor expansion by hand: 0*(0-25) - 3*(0-20) + 4*(15-0) = 120
    assert cm.numeric_determinant([[0, 3, 4], [3, 0, 5], [4, 5, 0]]) == pytest.approx(120.0)
    assert cm.numeric_determinant(np.eye(4)) == 1.0


def test_numeric_determinant_singular_and_shape():
    assert cm.numeric_determinant([[1.0, 2.0], [2.0, 4.0]]) == 0.0
    with pytest.raises(DomainError):
        cm.numeric_determinant([[1.0, 2.0]])


# --- grouping ---------------------------------------------------------------


def test_group_vector_two_groups():
    g = cm.group_vector((1,) * 5 + (2,) * 6)
    assert g.distinct_values == (1.0, 2.0)
    assert g.multiplicities == (5, 6)


def test_group_vector_single_group():
    g = cm.group_vector([0.5, 0.5])
    assert g.distinct_values == (0.5,)
    assert g.multiplicities == (2,)


def test_group_vector_rejects_singletons():
    with pytest.raises(DomainError, match="once"):
        cm.group_vector([1.0, 2.0, 3.0])


def test_group_vector_first_appearance_order():
    g = cm.group_vector([2.0, 1.0, 2.0, 1.0, 1.0])
    assert g.distinct_values == (2.0, 1.0)
    assert g.multiplicities == (2, 3)


def test_group_vector_tolerance_merges():
    g = cm.group_vector([1.0, 1.0 + 5e-13, 1.0], tol=1e-12)
    assert g.multiplicities == (3,)
    with pytest.raises(DomainError):
        cm.group_vector([1.0, 1.0 + 5e-13, 1.0], tol=0.0)


def test_grouped_vector_validation():
    with pytest.raises(DomainError):
        cm.GroupedVector((1.0, 1.0), (2, 2))  # duplicate values
    with pytest.raises(DomainError):
        cm.GroupedVector((1.0, 2.0), (2, 1))  # multiplicity 1
    with pytest.raises(DomainError):
        cm.GroupedVector((1.0, -2.0), (2, 2))  # nonpositive value
    g = cm.GroupedVector((1.0, 2.0), (2, 3))
    assert g.n == 5 and g.k == 2
    assert g.expand().entries == (1.0, 1.0, 2.0, 2.0, 2.0)


# --- spectra and multiset matching ------------------------------------------


def test_spectrum_sorted_descending():
    s = cm.Spectrum((1.0, -2.0, 3.0))
    assert s.values == (3.0, 1.0, -2.0)


def test_spectrum_matches():
    s = cm.Spectrum((3.0, -1.0, -2.0))
    assert s.matches([-2.0, 3.0, -1.0])
    assert s.matches([3.0 + 1e-9, -1.0, -2.0], tol=1e-8)
    assert not s.matches([3.0, -1.0], tol=1e-8)
    assert not s.matches([3.0, -1.0, -2.1], tol=1e-8)


def test_multisets_close_scale_floor():
    # tolerance is relative to max(1, max |value|)
    assert cm.multisets_close([1000.0], [1000.0 + 5e-6], 1e-8)
    assert not cm.multisets_close([0.001], [0.0015], 1e-8)
    assert cm.multisets_close([], [], 1e-8)


def test_spectrum_json():
    assert cm.Spectrum((2.0, -2.0)).to_json_dict() == {"eigenvalues": [2.0, -2.0]}


# --- JSON schemas -----------------------------------------------------------


def test_matrix_json_round_trip():
    m = cm.construct_cell_matrix([1.0, 2.0, 3.0])
    d = cm.matrix_to_json_dict(m)
    assert d["n"] == 3
    back = cm.matrix_from_json_dict(d)
    assert np.array_equal(back, m.entries)


@pytest.mark.parametrize(
    "bad",
    [
        {"rows": [[0.0]]},
        {"n": 2, "rows": [[0.0, 1.0]]},
        {"n": "2", "rows": [[0.0, 1.0], [1.0, 0.0]]},
        {"n": 2, "rows": [[0.0, 1.0], [1.0, 0.0]], "extra": 1},
    ],
)
def test_matrix_json_rejects(bad):
    with pytest.raises(DomainError):
        cm.matrix_from_json_dict(bad)


def test_vector_json_round_trip():
    x = cm.PositiveVector((1.0, 2.5))
    assert cm.vector_from_json_dict(cm.vector_to_json_dict(x)).entries == x.entries
    with pytest.raises(DomainError):
        cm.vector_from_json_dict({"y": [1.0]})


# --- one matrix check, tolerances relative to the data ----------------------

_MATRIX_CALLERS = {
    "recognize_cell": cm.recognize_cell,
    "numeric_determinant": cm.numeric_determinant,
    "matrix_to_json_dict": cm.matrix_to_json_dict,
    "eig_symmetric": cm.eig_symmetric,
    "CellMatrix": lambda m: cm.CellMatrix(order=len(m), entries=m),
    "matrix_from_json_dict": lambda m: cm.matrix_from_json_dict({"n": len(m), "rows": m}),
    "apply_similarity": lambda m: cm.apply_similarity(m, cm.ElementaryOp("swap", 0, 1)),
    "ReductionResult": lambda m: cm.ReductionResult(core=m, known_blocks=(), ops_applied=()),
}


@pytest.mark.parametrize("caller", _MATRIX_CALLERS.values(), ids=_MATRIX_CALLERS.keys())
@pytest.mark.parametrize(
    "bad, message",
    [
        ([[0.0, math.inf], [math.inf, 0.0]], "non-finite"),
        ([[0.0, math.nan], [math.nan, 0.0]], "non-finite"),
        ([[0.0, 1.0], [1.0]], "real numbers"),
        ([[0.0, "a"], ["a", 0.0]], "real numbers"),
    ],
)
def test_every_matrix_caller_rejects_bad_entries(caller, bad, message):
    with pytest.raises(DomainError, match=message):
        caller(bad)


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
def test_structure_checks_are_relative(scale):
    asymmetric = [[0.0, scale], [(1.0 + 1e-11) * scale, 0.0]]
    diagonal = [[1e-11 * scale, scale], [scale, 0.0]]
    with pytest.raises(DomainError, match="symmetric"):
        cm.recognize_cell(asymmetric)
    with pytest.raises(DomainError, match="diagonal"):
        cm.recognize_cell(diagonal)
    with pytest.raises(DomainError, match="symmetric"):
        cm.CellMatrix(order=2, entries=asymmetric)
    assert cm.recognize_cell([[0.0, scale], [(1.0 + 1e-13) * scale, 1e-13 * scale]]).n == 2


def test_construct_rejects_overflowing_sums():
    with pytest.raises(DomainError, match="non-finite"):
        cm.construct_cell_matrix([1e308, 1e308])


def test_recognize_residual_is_relative():
    inconsistent = np.array([[0, 3, 4, 5], [3, 0, 5, 6], [4, 5, 0, 9], [5, 6, 9, 0]], float)
    with pytest.raises(DomainError, match="inconsistent"):
        cm.recognize_cell(1e-20 * inconsistent)
    x = (1e-200, 2e-200, 3e-200, 4e-200)
    back = cm.recognize_cell(cm.construct_cell_matrix(x).entries)
    assert np.allclose(back.entries, x, rtol=1e-12, atol=0.0)
    with pytest.raises(DomainError, match="inconsistent"):
        cm.recognize_cell([[0, 1.6e308, 1.6e308], [1.6e308, 0, -1.6e308], [1.6e308, -1.6e308, 0]])


def test_multisets_close_is_relative():
    assert not cm.multisets_close([1e-13], [1.2e-13], 1e-8)
    assert cm.multisets_close([1e-300, -2e-300], [-2e-300, 1e-300 * (1 + 1e-9)], 1e-8)
    assert not cm.multisets_close([1.0, math.inf], [2.0, math.inf], 1e-8)


def test_group_vector_radius_is_relative():
    with pytest.raises(DomainError, match="once"):
        cm.group_vector([1e-13, 2e-13, 3e-13, 4e-13])
    g = cm.group_vector([1e-200, 1e-200 * (1 + 5e-13), 1e-200, 3e-200, 3e-200])
    assert g.multiplicities == (3, 2)


@pytest.mark.parametrize("value", [1e200, 1e-200])
def test_principal_subdeterminant_rejects_unrepresentable(value):
    assert cm.principal_subdeterminant([value] * 3, 1) == 0.0
    with pytest.raises(DomainError, match="finite and nonzero"):
        cm.principal_subdeterminant([value] * 3, 2)


def test_vector_json_rejects_non_numbers():
    for bad in ({"x": ["a"]}, {"x": [[1.0]]}, {"x": 5}, {"x": [10**400]}):
        with pytest.raises(DomainError):
            cm.vector_from_json_dict(bad)
