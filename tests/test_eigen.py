import math

import numpy as np
import pytest

import cellmat as cm
from cellmat import ConvergenceError, DomainError
from cellmat.eigen import _round_robin_step

import reference_data as ref
from helpers import random_positive_vector


def _random_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2.0


# --- symmetric Jacobi solver -------------------------------------------------


def test_eig_pair():
    s = cm.eig_symmetric([[0.0, 2.0], [2.0, 0.0]])
    assert s.matches([2.0, -2.0], tol=1e-12)


def test_eig_uniform_triple():
    s = cm.eig_symmetric(cm.construct_cell_matrix([1.0, 1.0, 1.0]).entries)
    assert s.matches([4.0, -2.0, -2.0], tol=1e-10)


def test_eig_eleven():
    s = cm.eig_symmetric(cm.construct_cell_matrix(ref.VECTOR_11).entries)
    assert s.matches(ref.SPECTRUM_11, tol=1e-10)


def test_eig_rejects_asymmetric():
    with pytest.raises(DomainError, match="symmetric"):
        cm.eig_symmetric([[0.0, 1.0], [2.0, 0.0]])


def test_eig_sweep_budget():
    with pytest.raises(ConvergenceError, match="sweeps"):
        cm.eig_symmetric([[0.0, 2.0], [2.0, 0.0]], max_sweeps=0)


def test_eig_order_one_and_zero_matrix():
    assert cm.eig_symmetric([[3.0]]).values == (3.0,)
    assert cm.eig_symmetric(np.zeros((4, 4))).values == (0.0,) * 4


def test_eig_trace_and_frobenius():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = _random_symmetric(rng, int(rng.integers(2, 13)))
        s = cm.eig_symmetric(a)
        values = np.array(s.values)
        assert abs(values.sum() - np.trace(a)) <= 1e-10 * max(1.0, np.abs(values).sum())
        fro2 = float((a * a).sum())
        assert abs(float((values**2).sum()) - fro2) <= 1e-8 * max(1.0, fro2)


def test_eig_matches_lapack():
    rng = np.random.default_rng(17)
    for _ in range(10):
        a = _random_symmetric(rng, int(rng.integers(2, 30)))
        ours = cm.eig_symmetric(a).values
        lapack = np.linalg.eigvalsh(a)
        assert cm.multisets_close(ours, lapack, 1e-10)


@pytest.mark.parametrize("kind", ["cell", "random"])
@pytest.mark.parametrize("n", [2, 3, 5, 8, 51, 200])
def test_eig_matches_eigvalsh_at_every_order(kind, n):
    # odd orders run the round-robin schedule with its padding index
    rng = np.random.default_rng(100 + n)
    if kind == "cell":
        a = cm.construct_cell_matrix(random_positive_vector(rng, n=n)).entries
    else:
        a = _random_symmetric(rng, n)
    ours = np.array(cm.eig_symmetric(a).values)
    lapack = np.linalg.eigvalsh(a)[::-1]
    assert np.abs(ours - lapack).max() <= 1e-12 * np.abs(lapack).max()


@pytest.mark.parametrize("size", [2, 4, 6, 12, 52])
def test_round_robin_sweep_pairs_every_two_indices_once_and_restores_order(size):
    step = _round_robin_step(size)
    order = np.arange(size)
    met = []
    for _ in range(size - 1):
        met += [frozenset(pair) for pair in order.reshape(-1, 2).tolist()]
        order = order[step]
    assert len(met) == len(set(met)) == size * (size - 1) // 2
    assert order.tolist() == list(range(size))


@pytest.mark.parametrize("e", [-900, 900])
def test_eig_power_of_two_scaling_is_exact(e):
    rng = np.random.default_rng(18)
    cell = cm.construct_cell_matrix(random_positive_vector(rng, n=9)).entries
    for a in (cell, _random_symmetric(rng, 8)):
        base = cm.eig_symmetric(a).values
        scaled = cm.eig_symmetric(np.ldexp(a, e)).values
        assert scaled == tuple(math.ldexp(v, e) for v in base)


@pytest.mark.parametrize(
    "bad",
    [[[0.0, math.inf], [math.inf, 0.0]], [[math.nan, 1.0], [1.0, 0.0]], [[-math.inf]]],
)
def test_eig_rejects_non_finite(bad):
    with pytest.raises(DomainError, match="non-finite"):
        cm.eig_symmetric(bad)


def test_eig_rejects_overflowing_eigenvalue():
    # finite entries, but the eigenvalue 2e308 is not a float
    with pytest.raises(DomainError, match="overflow"):
        cm.eig_symmetric([[1e308, 1e308], [1e308, 1e308]])


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
def test_eig_symmetry_check_is_relative(scale):
    with pytest.raises(DomainError, match="symmetric"):
        cm.eig_symmetric([[0.0, scale], [(1.0 + 1e-11) * scale, 0.0]])
    cm.eig_symmetric([[0.0, scale], [(1.0 + 1e-13) * scale, 0.0]])


def test_cell_matrices_have_one_positive_eigenvalue():
    rng = np.random.default_rng(12)
    for _ in range(20):
        x = random_positive_vector(rng, n=int(rng.integers(2, 20)))
        s = cm.eig_symmetric(cm.construct_cell_matrix(x).entries)
        assert sum(1 for v in s.values if v > 0.0) == 1
        assert sum(1 for v in s.values if v < 0.0) == len(s) - 1
