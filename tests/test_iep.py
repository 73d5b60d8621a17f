import math

import numpy as np
import pytest

import cellmat as cm
from cellmat import CubicSpectrumTarget, DomainError, GroupedSpec

import reference_data as ref
from helpers import random_group_shape, random_grouped_spec


def _assert_solution_sound(solution, rtol=1e-8):
    actual = cm.eig_symmetric(cm.construct_cell_matrix(solution.x).entries)
    assert actual.matches(solution.full_spectrum, rtol)
    values = solution.full_spectrum.values
    n = len(values)
    assert abs(sum(values)) <= 1e-10 * n * max(abs(v) for v in values)
    assert sum(1 for v in values if v > 0.0) == 1


# --- cubic target -------------------------------------------------------------


def test_cubic_target_ordering():
    t = CubicSpectrumTarget.from_multiset([-1.0, -2.0, 3.0])
    assert (t.lambda1, t.lambda2, t.lambda3) == (3.0, -2.0, -1.0)


def test_cubic_target_validation():
    with pytest.raises(DomainError, match="sum"):
        CubicSpectrumTarget(3.0, -2.0, -0.5)
    with pytest.raises(DomainError, match="lambda"):
        CubicSpectrumTarget(3.0, -1.0, -2.0)  # misordered negatives
    with pytest.raises(DomainError, match="3 values"):
        CubicSpectrumTarget.from_multiset([1.0, -1.0])
    # a tie between the two negatives is fine
    CubicSpectrumTarget(2.0, -1.0, -1.0)


def test_solve_cubic_reference_case():
    solution = cm.solve_cubic_iep(CubicSpectrumTarget(3.0, -2.0, -1.0))
    expected_x = (math.sqrt(3.0) - 0.5, 0.5, 0.5)
    for got, want in zip(solution.x, expected_x):
        assert abs(got - want) <= 1e-12
    m = cm.construct_cell_matrix(solution.x).entries
    s3 = math.sqrt(3.0)
    assert np.allclose(m, [[0, s3, s3], [s3, 0, 1], [s3, 1, 0]], atol=1e-12)
    assert solution.head_values == (3.0, -2.0)
    assert solution.full_spectrum.values == (3.0, -1.0, -2.0)


def test_solve_cubic_tied_negatives():
    solution = cm.solve_cubic_iep(CubicSpectrumTarget(2.0, -1.0, -1.0))
    assert solution.x.entries == (0.5, 0.5, 0.5)


def test_solve_cubic_derived_case():
    # plug {4, -3, -1} into the closed form: x = (sqrt(6) - 1/2, 1/2, 1/2);
    # the pair sums are then (sqrt(6), sqrt(6), 1), whose cubic
    # x^3 - 13x - 12 factors as (x - 4)(x + 1)(x + 3)
    solution = cm.solve_cubic_iep(CubicSpectrumTarget(4.0, -3.0, -1.0))
    assert abs(solution.x[0] - (math.sqrt(6.0) - 0.5)) <= 1e-12
    assert solution.x[1] == 0.5 and solution.x[2] == 0.5
    _assert_solution_sound(solution)


def test_solve_cubic_tail_entries_identical():
    solution = cm.solve_cubic_iep(CubicSpectrumTarget(5.5, -3.25, -2.25))
    assert solution.x[1] == solution.x[2]


def test_solve_cubic_rejects_zero_spectrum():
    # the zero triple cannot even form a valid target: lambda3 must be < 0
    with pytest.raises(DomainError):
        cm.solve_cubic_iep([0.0, 0.0, 0.0])


def test_solve_cubic_accepts_raw_triple():
    solution = cm.solve_cubic_iep([3.0, -2.0, -1.0])
    assert solution.full_spectrum.values == (3.0, -1.0, -2.0)


# --- uniform family -------------------------------------------------------------


def test_solve_uniform_pair():
    solution = cm.solve_uniform(2, 2.0)
    assert solution.x.entries == (1.0, 1.0)
    assert solution.full_spectrum.values == (2.0, -2.0)


def test_solve_uniform_four():
    solution = cm.solve_uniform(4, 2.0)
    assert solution.x.entries == (1.0, 1.0, 1.0, 1.0)
    assert solution.full_spectrum.values == (6.0, -2.0, -2.0, -2.0)
    _assert_solution_sound(solution)


def test_solve_uniform_matches_cubic_solver():
    uniform = cm.solve_uniform(3, 1.0)
    cubic = cm.solve_cubic_iep(CubicSpectrumTarget(2.0, -1.0, -1.0))
    assert uniform.x.entries == cubic.x.entries
    assert uniform.full_spectrum.matches(cubic.full_spectrum, 1e-12)


def test_solve_uniform_validation():
    with pytest.raises(DomainError):
        cm.solve_uniform(1, 2.0)
    with pytest.raises(DomainError):
        cm.solve_uniform(4, 0.0)
    with pytest.raises(DomainError):
        cm.solve_uniform(4, -1.0)


# --- two-group family -------------------------------------------------------------


def test_solve_two_group_reference_case():
    solution = cm.solve_two_group(-2.0, -4.0, 5, 6)
    assert abs(solution.head_values[0] - (14.0 + math.sqrt(306.0))) <= 1e-10
    assert abs(solution.head_values[1] - (14.0 - math.sqrt(306.0))) <= 1e-10
    assert solution.x.entries == ref.VECTOR_11
    assert solution.full_spectrum.matches(ref.SPECTRUM_11, 1e-10)


def test_solve_two_group_small_derived_case():
    # by hand at (l1, l2) = (2, 2), n = 4: mean = 1/2 + 3/2 = 2 and
    # radicand = 5*(1/4) + (3/2)*3 + 5*(9/4) = 17, so heads are 2 +- sqrt(17)
    solution = cm.solve_two_group(-1.0, -3.0, 2, 2)
    assert abs(solution.head_values[0] - (2.0 + math.sqrt(17.0))) <= 1e-12
    assert abs(solution.head_values[1] - (2.0 - math.sqrt(17.0))) <= 1e-12
    _assert_solution_sound(solution)


def test_solve_two_group_rejects_equal_tails():
    with pytest.raises(DomainError, match="distinct"):
        cm.solve_two_group(-2.0, -2.0, 3, 3)


def test_solve_two_group_validation():
    with pytest.raises(DomainError):
        cm.solve_two_group(-2.0, 4.0, 3, 3)
    with pytest.raises(DomainError):
        cm.solve_two_group(-2.0, -4.0, 1, 3)


# --- grouped family -------------------------------------------------------------


def test_solve_grouped_single_group():
    solution = cm.solve_grouped(GroupedSpec((-2.0,), (3,)))
    assert solution.x.entries == (1.0, 1.0, 1.0)
    assert solution.head_values == (4.0,)
    assert solution.full_spectrum.values == (4.0, -2.0, -2.0)


def test_solve_grouped_two_groups():
    solution = cm.solve_grouped(GroupedSpec((-2.0, -4.0), (5, 6)))
    assert cm.multisets_close(solution.head_values, ref.HEAD_11, 1e-10)


def test_solve_grouped_three_groups():
    solution = cm.solve_grouped(GroupedSpec((-2.0, -3.0, -5.0), (4, 4, 5)))
    assert cm.multisets_close(solution.head_values, ref.HEAD_13, 1e-9)
    assert solution.full_spectrum.matches(ref.SPECTRUM_13, 1e-9)
    assert solution.x.entries == ref.VECTOR_13


def test_solve_grouped_keeps_head_tail_collisions():
    # -5 shows up both as a forced tail value (4 copies) and as a head root
    solution = cm.solve_grouped(GroupedSpec((-2.0, -3.0, -5.0), (4, 4, 5)))
    close_to_minus5 = [v for v in solution.full_spectrum.values if abs(v + 5.0) <= 1e-9]
    assert len(close_to_minus5) == 5


def test_grouped_spec_validation():
    with pytest.raises(DomainError):
        GroupedSpec((), ())
    with pytest.raises(DomainError):
        GroupedSpec((-2.0, 2.0), (2, 2))
    with pytest.raises(DomainError):
        GroupedSpec((-2.0, -2.0), (2, 2))
    with pytest.raises(DomainError):
        GroupedSpec((-2.0, -3.0), (2, 1))
    with pytest.raises(DomainError):
        GroupedSpec((-2.0,), (2, 2))


def test_grouped_spec_json_round_trip():
    g = GroupedSpec((-2.0, -4.0), (5, 6))
    assert GroupedSpec.from_json_dict(g.to_json_dict()) == g


def test_iep_solution_json():
    d = cm.solve_uniform(2, 2.0).to_json_dict()
    assert d == {"x": [1.0, 1.0], "head": [2.0], "spectrum": [2.0, -2.0]}


# --- membership -------------------------------------------------------------------


def test_verify_membership_accepts_uniform():
    report = cm.verify_membership([4.0, -2.0, -2.0], GroupedSpec((-2.0,), (3,)))
    assert report.accepted and bool(report)
    assert report.condition1_ok and report.condition2_ok


def test_verify_membership_accepts_two_groups():
    report = cm.verify_membership(ref.SPECTRUM_11, GroupedSpec((-2.0, -4.0), (5, 6)))
    assert report.accepted


def test_verify_membership_rejects_wrong_size():
    report = cm.verify_membership([5.0, -2.0, -3.0], GroupedSpec((-2.0,), (2,)))
    assert not report.accepted
    assert report.condition1_ok  # one positive, two negatives
    assert not report.condition2_ok
    assert "size" in report.detail


def test_verify_membership_rejects_wrong_tail():
    report = cm.verify_membership([5.0, -2.0, -3.0], GroupedSpec((-2.0,), (3,)))
    assert not report.accepted
    assert not report.condition2_ok


def test_verify_membership_flags_sign_pattern():
    report = cm.verify_membership([4.0, 2.0, -2.0], GroupedSpec((-2.0,), (3,)))
    assert not report.accepted
    assert not report.condition1_ok


def test_verify_membership_json():
    report = cm.verify_membership([4.0, -2.0, -2.0], GroupedSpec((-2.0,), (3,)))
    d = report.to_json_dict()
    assert d["accepted"] is True
    assert d["expected"] == [4.0, -2.0, -2.0]


# --- cross-solver invariants --------------------------------------------------------


def test_solvers_produce_sound_solutions():
    rng = np.random.default_rng(41)
    for _ in range(10):
        _assert_solution_sound(cm.solve_grouped(random_grouped_spec(rng, n_max=30)))
    for _ in range(5):
        lam1 = float(rng.uniform(1.0, 10.0))
        lam2 = float(rng.uniform(-10.0, -1.0))
        lam3 = -(lam1 + lam2)
        if lam3 >= 0 or lam3 < lam2:
            continue
        _assert_solution_sound(cm.solve_cubic_iep(CubicSpectrumTarget(lam1, lam2, lam3)))


def test_uniform_equals_grouped_exactly():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        lam = float(rng.uniform(0.1, 10.0))
        uniform = cm.solve_uniform(n, lam)
        grouped = cm.solve_grouped(GroupedSpec((-lam,), (n,)))
        assert uniform.x.entries == grouped.x.entries
        assert uniform.head_values == grouped.head_values
        assert uniform.full_spectrum.values == grouped.full_spectrum.values


def test_two_group_agrees_with_grouped():
    rng = np.random.default_rng(43)
    for _ in range(20):
        _, mults = random_group_shape(rng, k_max=2, n_max=40)
        if len(mults) != 2:
            continue
        l1, l2 = mults
        t3, t4 = sorted(-rng.uniform(0.2, 20.0, size=2))
        if t3 == t4:
            continue
        direct = cm.solve_two_group(t4, t3, l1, l2)
        grouped = cm.solve_grouped(GroupedSpec((t4, t3), (l1, l2)))
        assert direct.x.entries == grouped.x.entries
        assert cm.multisets_close(direct.head_values, grouped.head_values, 1e-10)
        assert direct.full_spectrum.matches(grouped.full_spectrum, 1e-10)


def test_head_dominance_diagnostic_holds():
    rng = np.random.default_rng(44)
    for _ in range(20):
        solution = cm.solve_grouped(random_grouped_spec(rng, n_max=40))
        head = sorted(solution.head_values, reverse=True)
        assert head[0] > sum(abs(v) for v in head[1:])


def test_membership_tolerance_is_relative():
    spec = GroupedSpec((-2e-6,), (3,))
    assert cm.verify_membership([4e-6, -2e-6, -2e-6], spec).accepted
    # 1e-9 is within 1e-8 absolute, but 250 times the relative radius here
    assert not cm.verify_membership([4e-6 + 1e-9, -2e-6, -2e-6 - 1e-9], spec).accepted
    with pytest.raises(DomainError, match="finite"):
        cm.verify_membership([math.inf, -2e-6, -2e-6], spec)
