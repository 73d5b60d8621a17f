"""Cell matrices: construction, spectra by two independent routes, and
inverse eigenvalue solvers for the spectrum families they can realize.

A cell matrix is the symmetric hollow matrix with off-diagonal entries
``x[i] + x[j]`` for a strictly positive generating vector ``x``.  The package
provides:

- construction, recognition, and determinant identities (:mod:`cellmat.cell`),
- a Jacobi eigensolver, the independent oracle (:mod:`cellmat.eigen`),
- the elementary-similarity reduction of grouped vectors to a small core,
  rooted as a symmetric matrix by LAPACK (:mod:`cellmat.reduction`),
- inverse eigenvalue solvers and family membership checks (:mod:`cellmat.iep`),
- permutation actions and spectrum-invariance verification
  (:mod:`cellmat.perm`),
- a JSON-speaking command line (:mod:`cellmat.cli`).
"""

from .cell import (
    CellMatrix,
    GroupedVector,
    PositiveVector,
    Spectrum,
    construct_cell_matrix,
    group_vector,
    matrix_from_json_dict,
    matrix_to_json_dict,
    multisets_close,
    numeric_determinant,
    principal_subdeterminant,
    recognize_cell,
    vector_from_json_dict,
    vector_to_json_dict,
)
from .eigen import eig_symmetric
from .errors import CellMatrixError, ConvergenceError, DomainError
from .iep import (
    CubicSpectrumTarget,
    GroupedSpec,
    IEPSolution,
    MembershipReport,
    solve_cubic_iep,
    solve_grouped,
    solve_two_group,
    solve_uniform,
    verify_membership,
)
from .perm import (
    Permutation,
    PermInvarianceReport,
    permute_vector,
    spectrum_invariance_check,
    transposition_similarity_check,
)
from .reduction import (
    ElementaryOp,
    ReductionResult,
    apply_similarity,
    build_dk,
    reduce_grouped,
    spectrum_via_reduction,
)

__version__ = "0.1.0"

__all__ = [
    "CellMatrix",
    "CellMatrixError",
    "ConvergenceError",
    "CubicSpectrumTarget",
    "DomainError",
    "ElementaryOp",
    "GroupedSpec",
    "GroupedVector",
    "IEPSolution",
    "MembershipReport",
    "Permutation",
    "PermInvarianceReport",
    "PositiveVector",
    "ReductionResult",
    "Spectrum",
    "apply_similarity",
    "build_dk",
    "construct_cell_matrix",
    "eig_symmetric",
    "group_vector",
    "matrix_from_json_dict",
    "matrix_to_json_dict",
    "multisets_close",
    "numeric_determinant",
    "permute_vector",
    "principal_subdeterminant",
    "recognize_cell",
    "reduce_grouped",
    "solve_cubic_iep",
    "solve_grouped",
    "solve_two_group",
    "solve_uniform",
    "spectrum_invariance_check",
    "spectrum_via_reduction",
    "transposition_similarity_check",
    "vector_from_json_dict",
    "vector_to_json_dict",
    "verify_membership",
]
