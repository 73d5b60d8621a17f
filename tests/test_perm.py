import numpy as np
import pytest

import cellmat as cm
from cellmat import DomainError, Permutation

import reference_data as ref
from helpers import random_permutation_mapping, random_positive_vector


# --- permutation type ---------------------------------------------------------


def test_from_one_based():
    pi = Permutation.from_one_based([2, 1, 3])
    assert pi.mapping == (1, 0, 2)
    assert pi.to_one_based() == (2, 1, 3)


def test_bijection_required():
    with pytest.raises(DomainError):
        Permutation((0, 0, 1))
    with pytest.raises(DomainError):
        Permutation((0, 2))


def test_from_cycles_reference_string():
    pi = Permutation.from_cycles(ref.CYCLES_7, 7)
    # (1 4): 1 -> 4; (2 5): 2 -> 5; (3 7 6): 3 -> 7, 7 -> 6, 6 -> 3
    assert pi.to_one_based() == (4, 5, 7, 1, 2, 3, 6)


def test_from_cycles_identity_and_errors():
    assert Permutation.from_cycles("", 4) == Permutation.identity(4)
    assert Permutation.from_cycles("()", 4) == Permutation.identity(4)
    with pytest.raises(DomainError, match="stray"):
        Permutation.from_cycles("(1 2) junk", 4)
    with pytest.raises(DomainError, match="range"):
        Permutation.from_cycles("(1 9)", 4)
    with pytest.raises(DomainError, match="repeats"):
        Permutation.from_cycles("(1 2)(2 3)", 4)


def test_cycles_string_round_trip():
    rng = np.random.default_rng(51)
    for _ in range(20):
        n = int(rng.integers(1, 12))
        pi = Permutation(random_permutation_mapping(rng, n))
        assert Permutation.from_cycles(pi.cycles_string(), n) == pi


def test_compose_and_inverse():
    rng = np.random.default_rng(52)
    for _ in range(10):
        n = int(rng.integers(1, 10))
        pi = Permutation(random_permutation_mapping(rng, n))
        assert pi.compose(pi.inverse()) == Permutation.identity(n)
        assert pi.inverse().compose(pi) == Permutation.identity(n)


def test_permutation_json():
    pi = Permutation.from_one_based([3, 1, 2])
    assert Permutation.from_json_dict(pi.to_json_dict()) == pi
    assert Permutation.from_json_dict({"cycles": "(1 2)"}, 3) == Permutation.from_one_based(
        [2, 1, 3]
    )
    with pytest.raises(DomainError):
        Permutation.from_json_dict({"cycles": "(1 2)"})  # needs n
    with pytest.raises(DomainError):
        Permutation.from_json_dict({"mapping": [1, 2], "cycles": "(1 2)"})


# --- vector action ---------------------------------------------------------------


def test_permute_identity():
    x = cm.PositiveVector((1.0, 2.0, 3.0))
    assert cm.permute_vector(x, Permutation.identity(3)).entries == (1.0, 2.0, 3.0)


def test_permute_reference_vector():
    pi = Permutation.from_cycles(ref.CYCLES_7, 7)
    assert cm.permute_vector(ref.VECTOR_7, pi).entries == ref.VECTOR_7_PERMUTED


def test_permute_swap():
    pi = Permutation.from_cycles("(1 2)", 2)
    assert cm.permute_vector([1.5, 4.0], pi).entries == (4.0, 1.5)


def test_permute_size_mismatch():
    with pytest.raises(DomainError, match="size"):
        cm.permute_vector([1.0, 2.0], Permutation.identity(3))


def test_transpositions_compose_to_permutation():
    rng = np.random.default_rng(53)
    for _ in range(25):
        n = int(rng.integers(1, 12))
        pi = Permutation(random_permutation_mapping(rng, n))
        # sequential application to a vector reproduces the one-shot action
        current = list(range(n))
        for a, b in pi.transpositions():
            current[a], current[b] = current[b], current[a]
        assert tuple(current) == pi.mapping
        # and composing them as functions reproduces the mapping exactly
        composed = None
        for a, b in pi.transpositions():
            step = Permutation.transposition(n, a + 1, b + 1)
            composed = step if composed is None else composed.compose(step)
        if composed is None:
            composed = Permutation.identity(n)
        assert composed == pi


# --- similarity checks --------------------------------------------------------------


def test_transposition_similarity_triple():
    assert cm.transposition_similarity_check([1.0, 2.0, 3.0], 1, 2)


def test_transposition_similarity_constant_vector():
    x = (2.5,) * 5
    for l in range(1, 6):
        for k in range(l + 1, 6):
            assert cm.transposition_similarity_check(x, l, k)
    # a constant vector is itself fixed by any swap
    pi = Permutation.transposition(5, 1, 4)
    m = cm.construct_cell_matrix(x).entries
    m_swapped = cm.construct_cell_matrix(cm.permute_vector(x, pi)).entries
    assert np.array_equal(m, m_swapped)


def test_transposition_similarity_pair():
    assert cm.transposition_similarity_check([1.0, 2.0], 1, 2)


def test_transposition_index_validation():
    with pytest.raises(DomainError):
        cm.transposition_similarity_check([1.0, 2.0], 1, 1)
    with pytest.raises(DomainError):
        cm.transposition_similarity_check([1.0, 2.0], 0, 2)


def test_invariance_reference_case():
    pi = Permutation.from_cycles(ref.CYCLES_7, 7)
    assert np.array_equal(
        cm.construct_cell_matrix(ref.VECTOR_7).entries, np.array(ref.MATRIX_7, dtype=float)
    )
    assert np.array_equal(
        cm.construct_cell_matrix(cm.permute_vector(ref.VECTOR_7, pi)).entries,
        np.array(ref.MATRIX_7_PERMUTED, dtype=float),
    )
    report = cm.spectrum_invariance_check(ref.VECTOR_7, pi)
    assert report.ok and bool(report)
    assert report.steps_ok and report.spectra_match


def test_invariance_identity_has_no_steps():
    report = cm.spectrum_invariance_check([1.0, 2.0, 3.0], Permutation.identity(3))
    assert report.ok
    assert report.transpositions == ()


def test_invariance_random_trials():
    rng = np.random.default_rng(54)
    for _ in range(25):
        n = int(rng.integers(2, 11))
        x = random_positive_vector(rng, n=n)
        pi = Permutation(random_permutation_mapping(rng, n))
        assert cm.spectrum_invariance_check(x, pi, tol=1e-8).ok


def test_invariance_report_json():
    report = cm.spectrum_invariance_check([1.0, 2.0], Permutation.from_cycles("(1 2)", 2))
    d = report.to_json_dict()
    assert d["ok"] is True
    assert d["transpositions"] == [[1, 2]]
    assert d["spectrum_original"] == d["spectrum_permuted"]


def test_parsers_raise_domain_error():
    for images in (["a", 2, 3], [1.5, 2, 3], [None], 5):
        with pytest.raises(DomainError, match="integers"):
            Permutation.from_one_based(images)
    with pytest.raises(DomainError, match="integers"):
        Permutation.from_cycles("(1 a)", 3)
    with pytest.raises(DomainError, match="string"):
        Permutation.from_json_dict({"cycles": 5}, 3)
