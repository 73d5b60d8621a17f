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


# --- characteristic polynomial ----------------------------------------------


def test_char_poly_pair():
    p = cm.char_poly([[0.0, 2.0], [2.0, 0.0]])
    assert p.coefficients == (-4.0, 0.0, 1.0)


def test_char_poly_cubic_family():
    a = (math.sqrt(3.0) - 0.5, 0.5, 0.5)
    p = cm.char_poly(cm.construct_cell_matrix(a).entries)
    assert np.allclose(p.coefficients, (-6.0, -7.0, 0.0, 1.0), atol=1e-12)


def test_char_poly_core_2x2():
    # trace 28, determinant 20*8 - 15*18 = -110
    p = cm.char_poly([[20.0, 15.0], [18.0, 8.0]])
    assert np.allclose(p.coefficients, (-110.0, -28.0, 1.0), atol=1e-12)


def test_char_poly_guard():
    with pytest.raises(DomainError, match="guard"):
        cm.char_poly(np.eye(33))


def test_char_poly_vanishes_at_eigenvalues():
    rng = np.random.default_rng(13)
    for _ in range(10):
        a = _random_symmetric(rng, int(rng.integers(2, 9)))
        p = cm.char_poly(a)
        scale = max(abs(c) for c in p.coefficients)
        for v in cm.eig_symmetric(a).values:
            assert abs(p(v)) <= 1e-6 * max(1.0, scale)


def test_pair_sums():
    ps = cm.PairSums.from_vector(cm.PositiveVector((math.sqrt(3.0) - 0.5, 0.5, 0.5)))
    assert ps.alpha == pytest.approx(math.sqrt(3.0), abs=1e-15)
    assert ps.beta == pytest.approx(math.sqrt(3.0), abs=1e-15)
    assert ps.gamma == 1.0
    p = ps.char_poly()
    assert np.allclose(p.coefficients, (-6.0, -7.0, 0.0, 1.0), atol=1e-12)
    with pytest.raises(DomainError):
        cm.PairSums.from_vector(cm.PositiveVector((1.0, 2.0)))


def test_pair_sums_polynomial_matches_direct():
    rng = np.random.default_rng(14)
    for _ in range(10):
        x = cm.PositiveVector(tuple(rng.uniform(0.1, 10.0, size=3)))
        via_sums = cm.PairSums.from_vector(x).char_poly().coefficients
        direct = cm.char_poly(cm.construct_cell_matrix(x).entries).coefficients
        assert np.allclose(via_sums, direct, rtol=1e-10, atol=1e-10)


# --- polynomial roots ---------------------------------------------------------


def test_poly_roots_quadratic():
    roots = cm.poly_roots(cm.Polynomial((-4.0, 0.0, 1.0)))
    assert np.allclose(sorted(r.real for r in roots), [-2.0, 2.0], atol=1e-12)
    assert all(r.imag == 0.0 for r in roots)


def test_poly_roots_cubic():
    # x^3 - 7x - 6 = (x - 3)(x + 1)(x + 2)
    roots = cm.poly_roots(cm.Polynomial((-6.0, -7.0, 0.0, 1.0)))
    assert np.allclose(sorted(r.real for r in roots), [-2.0, -1.0, 3.0], atol=1e-10)
    assert max(abs(r.imag) for r in roots) <= 1e-10


def test_poly_roots_core_radicals():
    roots = cm.poly_roots(cm.Polynomial((-110.0, -28.0, 1.0)))
    expected = sorted([14.0 - math.sqrt(306.0), 14.0 + math.sqrt(306.0)])
    assert np.allclose(sorted(r.real for r in roots), expected, atol=1e-10)


def test_poly_roots_degree_one_exact():
    assert cm.poly_roots(cm.Polynomial((-7.5, 1.0))) == (complex(7.5),)


def test_poly_roots_validates():
    with pytest.raises(DomainError, match="monic"):
        cm.poly_roots(cm.Polynomial((1.0, 2.0)))
    with pytest.raises(DomainError, match="degree"):
        cm.poly_roots(cm.Polynomial((1.0,)))


def test_poly_roots_iteration_budget():
    with pytest.raises(ConvergenceError, match="converge"):
        cm.poly_roots(cm.Polynomial((-6.0, -7.0, 0.0, 1.0)), max_iter=2)


def test_poly_roots_count_matches_degree():
    rng = np.random.default_rng(15)
    for _ in range(10):
        deg = int(rng.integers(1, 9))
        coeffs = tuple(rng.uniform(-5.0, 5.0, size=deg)) + (1.0,)
        roots = cm.poly_roots(cm.Polynomial(coeffs))
        assert len(roots) == deg


def test_poly_roots_agree_with_jacobi():
    rng = np.random.default_rng(16)
    for _ in range(15):
        n = int(rng.integers(2, 13))
        a = _random_symmetric(rng, n)
        via_jacobi = cm.eig_symmetric(a).values
        roots = cm.poly_roots(cm.char_poly(a))
        assert cm.multisets_close([r.real for r in roots], via_jacobi, 1e-7)
        assert max(abs(r.imag) for r in roots) <= 1e-7 * max(1.0, max(abs(r) for r in roots))


# --- small general solver ------------------------------------------------------


def test_eig_small_general_core_2x2():
    s = cm.eig_small_general([[20.0, 15.0], [18.0, 8.0]])
    assert s.matches(ref.HEAD_11, tol=1e-10)


def test_eig_small_general_core_3x3():
    s = cm.eig_small_general(ref.CORE_13)
    assert s.matches(ref.HEAD_13, tol=1e-9)


def test_eig_small_general_rejects_rotation():
    with pytest.raises(DomainError, match="complex"):
        cm.eig_small_general([[0.0, 1.0], [-1.0, 0.0]])
