import numpy as np
import pytest

import cellmat as cm
from cellmat import ConvergenceError, DomainError, ElementaryOp
from cellmat.reduction import _core_spectrum

import reference_data as ref
from helpers import random_grouped_vector


def _replay(x, result):
    a = cm.construct_cell_matrix(x).as_array()
    for op in result.ops_applied:
        a = cm.apply_similarity(a, op)
    return a


def _dense_elementary(n, op):
    e = np.eye(n)
    if op.kind == "swap":
        e[[op.i, op.j], :] = e[[op.j, op.i], :]
        inv = e.copy()
    else:
        e[op.i, op.j] = op.lam
        inv = np.eye(n)
        inv[op.i, op.j] = -op.lam
    return e, inv


# --- elementary operations ----------------------------------------------------


def test_elementary_op_validation():
    with pytest.raises(DomainError):
        ElementaryOp("scale", 0, 1)
    with pytest.raises(DomainError):
        ElementaryOp("swap", 1, 1)
    with pytest.raises(DomainError):
        ElementaryOp("row_sum", 0, 1)  # missing factor
    with pytest.raises(DomainError):
        ElementaryOp("swap", 0, 1, lam=2.0)  # stray factor
    with pytest.raises(DomainError):
        ElementaryOp("swap", -1, 1)


def test_elementary_op_inverse_and_json():
    op = ElementaryOp("row_sum", 2, 0, -1.0)
    assert op.inverse() == ElementaryOp("row_sum", 2, 0, 1.0)
    assert ElementaryOp.from_json_dict(op.to_json_dict()) == op
    swap = ElementaryOp("swap", 0, 3)
    assert swap.inverse() == swap
    assert swap.to_json_dict() == {"kind": "swap", "i": 0, "j": 3}
    assert ElementaryOp.from_json_dict(swap.to_json_dict()) == swap


def test_apply_similarity_swap_fixed_point():
    m = [[0.0, 2.0], [2.0, 0.0]]
    out = cm.apply_similarity(m, ElementaryOp("swap", 0, 1))
    assert out.tolist() == m


def test_apply_similarity_row_sum():
    # hand multiplication of the conjugation with factor -1 on rows (1, 0)
    out = cm.apply_similarity([[0.0, 2.0], [2.0, 0.0]], ElementaryOp("row_sum", 1, 0, -1.0))
    assert out.tolist() == [[2.0, 2.0], [0.0, -2.0]]


def test_apply_similarity_swap_involution():
    rng = np.random.default_rng(21)
    m = rng.standard_normal((5, 5))
    op = ElementaryOp("swap", 1, 4)
    back = cm.apply_similarity(cm.apply_similarity(m, op), op)
    assert np.array_equal(back, m)


def test_apply_similarity_matches_dense_conjugation():
    rng = np.random.default_rng(22)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        m = rng.standard_normal((n, n))
        if rng.random() < 0.5:
            i, j = rng.choice(n, size=2, replace=False)
            op = ElementaryOp("swap", int(i), int(j))
        else:
            i, j = rng.choice(n, size=2, replace=False)
            op = ElementaryOp("row_sum", int(i), int(j), float(rng.uniform(-2, 2)))
        e, inv = _dense_elementary(n, op)
        assert np.allclose(cm.apply_similarity(m, op), e @ m @ inv, atol=1e-12)


def test_apply_similarity_index_range():
    with pytest.raises(DomainError, match="range"):
        cm.apply_similarity(np.eye(2), ElementaryOp("swap", 0, 5))


# --- closed-form core -----------------------------------------------------------


def test_build_dk_two_groups():
    g = cm.GroupedVector((1.0, 2.0), (5, 6))
    assert cm.build_dk(g).tolist() == ref.CORE_11


def test_build_dk_three_groups():
    g = cm.GroupedVector((1.0, 1.5, 2.5), (4, 4, 5))
    assert cm.build_dk(g).tolist() == ref.CORE_13


def test_build_dk_single_group():
    g = cm.GroupedVector((1.5,), (4,))
    assert cm.build_dk(g).tolist() == [[9.0]]


# --- staged reduction -------------------------------------------------------------


def test_reduce_pair():
    result = cm.reduce_grouped([1.0, 1.0])
    assert result.core.tolist() == [[2.0]]
    assert result.known_blocks == ((-2.0, 1),)


def test_reduce_eleven():
    result = cm.reduce_grouped(ref.VECTOR_11)
    assert result.core.tolist() == ref.CORE_11
    assert result.known_blocks == ((-2.0, 4), (-4.0, 5))
    assert result.n == 11


def test_reduce_thirteen():
    result = cm.reduce_grouped(ref.VECTOR_13)
    assert result.core.tolist() == ref.CORE_13
    assert result.known_blocks == ((-2.0, 3), (-3.0, 3), (-5.0, 4))


def test_reduce_unsorted_vector_records_sort():
    x = (2.0, 1.0, 2.0, 1.0, 1.0)
    result = cm.reduce_grouped(x)
    # groups in first-appearance order: value 2 first, then value 1
    assert result.known_blocks == ((-4.0, 1), (-2.0, 2))
    assert result.sort_permutation == (0, 2, 1, 3, 4)
    expected_core = cm.build_dk(cm.group_vector(x))
    assert np.array_equal(result.core, expected_core)


def test_reduce_rejects_ungrouped():
    with pytest.raises(DomainError):
        cm.reduce_grouped([1.0, 2.0, 3.0])


def test_reduce_replay_audit_exact_values():
    rng = np.random.default_rng(23)
    for _ in range(10):
        x = random_grouped_vector(rng, n_max=30, dyadic=True)
        result = cm.reduce_grouped(x)
        t = _replay(x, result)
        k = result.k
        # forced zeros: everything in the trailing rows except the diagonal
        trailing = t[k:, :].copy()
        np.fill_diagonal(trailing[:, k:], 0.0)
        assert np.abs(trailing).max() <= 1e-12
        # trailing diagonal carries the forced eigenvalues in block order
        assert np.allclose(np.diag(t)[k:], result.known_values(), atol=1e-12)
        # core equals the closed form
        assert np.abs(result.core - cm.build_dk(cm.group_vector(x))).max() <= 1e-12


def test_reduction_result_json():
    result = cm.reduce_grouped([1.0, 1.0, 2.0, 2.0])
    d = result.to_json_dict()
    assert d["core"] == result.core.tolist()
    assert d["known_blocks"] == [{"value": -2.0, "count": 1}, {"value": -4.0, "count": 1}]
    ops = [ElementaryOp.from_json_dict(o) for o in d["ops"]]
    assert tuple(ops) == result.ops_applied


def test_similarity_preserves_char_poly():
    rng = np.random.default_rng(24)
    trials = 0
    while trials < 20:
        n = int(rng.integers(2, 11))
        base = rng.standard_normal((n, n))
        m = (base + base.T) / 2.0
        a = m.copy()
        for _ in range(int(rng.integers(1, 21))):
            i, j = rng.choice(n, size=2, replace=False)
            if rng.random() < 0.5:
                op = ElementaryOp("swap", int(i), int(j))
            else:
                op = ElementaryOp("row_sum", int(i), int(j), float(rng.uniform(-1, 1)))
            a = cm.apply_similarity(a, op)
        if np.abs(a).max() > 100.0 * max(1.0, np.abs(m).max()):
            continue  # conditioning guard: rerolls badly amplified sequences
        trials += 1
        # same characteristic polynomial: the nonsymmetric a has the
        # eigenvalues of the symmetric m
        original = np.linalg.eigvalsh(m)
        transformed = np.linalg.eigvals(a)
        tol = 1e-8 * np.abs(original).max()
        assert np.abs(transformed.imag).max() <= tol
        assert np.abs(np.sort(transformed.real) - original).max() <= tol


# --- spectrum via reduction ---------------------------------------------------------


def test_spectrum_via_reduction_uniform():
    s = cm.spectrum_via_reduction([1.0, 1.0, 1.0])
    assert s.matches([4.0, -2.0, -2.0], tol=1e-10)


def test_spectrum_via_reduction_eleven():
    s = cm.spectrum_via_reduction(ref.VECTOR_11)
    assert s.matches(ref.SPECTRUM_11, tol=1e-9)


def test_spectrum_via_reduction_thirteen():
    s = cm.spectrum_via_reduction(ref.VECTOR_13)
    assert s.matches(ref.SPECTRUM_13, tol=1e-9)


def test_reduction_route_matches_jacobi():
    rng = np.random.default_rng(25)
    for _ in range(25):
        x = random_grouped_vector(rng)
        via_reduction = cm.spectrum_via_reduction(x)
        via_jacobi = cm.eig_symmetric(cm.construct_cell_matrix(x).entries)
        assert via_jacobi.matches(via_reduction, tol=1e-8)


def test_reduce_grouping_is_relative():
    x = [2e-13, 1e-13, 2e-13, 1e-13]
    result = cm.reduce_grouped(x)
    assert result.known_blocks == ((-4e-13, 1), (-2e-13, 1))
    assert result.sort_permutation == (0, 2, 1, 3)


def _six_decade_instance(rng, k, n):
    """Distinct group values log-uniform over 1e-3..1e3, sizes >= 2 summing to n."""
    while True:
        values = np.sort(10.0 ** rng.uniform(-3.0, 3.0, size=k))
        if k == 1 or np.min(np.diff(values) / values[1:]) > 1e-6:
            break
    mults = np.full(k, 2)
    np.add.at(mults, rng.integers(0, k, size=n - 2 * k), 1)
    return tuple(values.tolist()), tuple(mults.tolist())


@pytest.mark.parametrize("k", range(1, 33))
def test_both_core_routes_match_lapack_for_every_k(k):
    rng = np.random.default_rng(500 + k)
    for n in sorted({2 * k, int(rng.integers(2 * k, 201)), 200}):
        values, mults = _six_decade_instance(rng, k, n)
        x = np.repeat(values, mults)
        lapack = np.linalg.eigvalsh(cm.construct_cell_matrix(x).entries)
        tol = 1e-8 * np.abs(lapack).max()
        routes = {
            "reduction": cm.spectrum_via_reduction(rng.permutation(x)),
            "grouped": cm.solve_grouped(
                cm.GroupedSpec(tuple(-2.0 * v for v in values), mults)
            ).full_spectrum,
        }
        for name, spectrum in routes.items():
            error = np.abs(np.sort(spectrum.values) - lapack).max()
            assert error <= tol, (name, n, error / tol)


def test_core_with_an_asymmetric_entry_is_rejected():
    g = cm.GroupedVector((1.0, 2.0, 3.0), (2, 3, 4))
    core = cm.build_dk(g)
    assert _core_spectrum(core, g.multiplicities).matches(
        np.linalg.eigvals(core).real, tol=1e-12
    )
    core[0, 2] *= 1.0 + 1e-9
    with pytest.raises(DomainError, match="symmetric"):
        _core_spectrum(core, g.multiplicities)


def test_core_lapack_failure_is_a_convergence_error(monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(ConvergenceError, match="LAPACK"):
        cm.spectrum_via_reduction([1.0, 1.0, 2.0, 2.0])
