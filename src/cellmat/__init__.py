"""Cell matrices: construction, spectra by two independent routes, and
inverse eigenvalue solvers for the spectrum families they can realize.

A cell matrix is the symmetric hollow matrix with off-diagonal entries
``x[i] + x[j]`` for a strictly positive generating vector ``x``.  The package
provides:

- construction, recognition, and determinant identities (:mod:`cellmat.cell`),
- a Jacobi eigensolver plus characteristic-polynomial machinery
  (:mod:`cellmat.eigen`),
- the elementary-similarity reduction of grouped vectors to a small core
  (:mod:`cellmat.reduction`),
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
from .eigen import (
    Polynomial,
    char_poly,
    eig_small_general,
    eig_symmetric,
    poly_roots,
)
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
    "Polynomial",
    "PositiveVector",
    "ReductionResult",
    "Spectrum",
    "apply_similarity",
    "build_dk",
    "char_poly",
    "construct_cell_matrix",
    "eig_small_general",
    "eig_symmetric",
    "group_vector",
    "matrix_from_json_dict",
    "matrix_to_json_dict",
    "multisets_close",
    "numeric_determinant",
    "permute_vector",
    "poly_roots",
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
