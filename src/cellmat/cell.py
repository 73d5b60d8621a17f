"""Core domain types and cell-matrix construction.

A cell matrix is the symmetric hollow matrix whose off-diagonal entries are
the pairwise sums ``x[i] + x[j]`` of a strictly positive generating vector.
This module owns the shared domain types, recognition of cell matrices, the
closed-form principal-subdeterminant identity, and an independent pivoted
elimination determinant used to cross-check that identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "PositiveVector",
    "CellMatrix",
    "Spectrum",
    "GroupedVector",
    "construct_cell_matrix",
    "recognize_cell",
    "principal_subdeterminant",
    "numeric_determinant",
    "group_vector",
    "multisets_close",
    "matrix_to_json_dict",
    "matrix_from_json_dict",
    "vector_to_json_dict",
    "vector_from_json_dict",
]


def _as_float_tuple(values) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in values)
    except (TypeError, ValueError, OverflowError):
        raise DomainError("expected a collection of real numbers") from None


def _checked_matrix(m, symmetric: bool = False, hollow: bool = False) -> np.ndarray:
    """Float copy of ``m``, which must be a square array of finite reals.

    ``symmetric`` also requires ``M == M^T`` and ``hollow`` a zero diagonal,
    both judged against ``1e-12 * max|M|``.  Raises ``DomainError`` otherwise.
    """
    try:
        a = np.array(m, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise DomainError("matrix entries must be real numbers in rows of equal length") from None
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError("matrix is not square")
    # max|M| without a temporary array; a NaN or an infinite entry makes it non-finite
    tol = 1e-12 * max(float(a.max(initial=0.0)), -float(a.min(initial=0.0)))
    if not math.isfinite(tol):
        raise DomainError("matrix has a non-finite entry")
    if symmetric:
        # M - M^T is antisymmetric, so its max is max|M - M^T|; an entry
        # that overflows is rejected all the same
        with np.errstate(over="ignore"):
            if float((a - a.T).max(initial=0.0)) > tol:
                raise DomainError("matrix is not symmetric")
    if hollow and float(np.abs(np.diag(a)).max(initial=0.0)) > tol:
        raise DomainError("matrix has a nonzero diagonal entry")
    return a


def multisets_close(a, b, rtol: float) -> bool:
    """Tolerance-aware multiset equality of two real value collections.

    Both collections are sorted ascending and compared elementwise with
    ``|a_i - b_i| <= rtol * max |value|``, the max running over both
    collections, so the comparison is invariant under scaling.  A
    non-finite value matches nothing.
    """
    left = sorted(float(v) for v in a)
    right = sorted(float(v) for v in b)
    if len(left) != len(right):
        return False
    if not left:
        return True
    scale = max(abs(v) for v in left + right)
    return math.isfinite(scale) and all(abs(x - y) <= rtol * scale for x, y in zip(left, right))


@dataclass(frozen=True)
class PositiveVector:
    """Generating vector with strictly positive entries, length >= 1."""

    entries: tuple[float, ...]

    def __post_init__(self):
        entries = _as_float_tuple(self.entries)
        if len(entries) < 1:
            raise DomainError("generating vector must have at least one entry")
        for i, value in enumerate(entries):
            if not math.isfinite(value) or value <= 0.0:
                raise DomainError(
                    f"generating vector entry {i} must be strictly positive, got {value!r}"
                )
        object.__setattr__(self, "entries", entries)

    @property
    def n(self) -> int:
        return len(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, index):
        return self.entries[index]

    def as_array(self) -> np.ndarray:
        return np.array(self.entries, dtype=float)


def _coerce_vector(x) -> PositiveVector:
    return x if isinstance(x, PositiveVector) else PositiveVector(tuple(x))


@dataclass(frozen=True)
class CellMatrix:
    """Dense symmetric hollow nonnegative matrix of the given order.

    The entry array is stored read-only; use :func:`recognize_cell` to check
    whether an arbitrary matrix is a genuine cell matrix.
    """

    order: int
    entries: np.ndarray

    def __post_init__(self):
        m = _checked_matrix(self.entries, symmetric=True, hollow=True)
        if self.order != m.shape[0]:
            raise DomainError(
                f"declared order {self.order} does not match entry shape {m.shape}"
            )
        # the zero diagonal makes max(M) >= 0, so this is min(M) < -1e-12 max|M|
        if float(m.min(initial=0.0)) < -1e-12 * float(m.max(initial=0.0)):
            raise DomainError("cell matrix entries must be nonnegative")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    def as_array(self) -> np.ndarray:
        """Writable copy of the entries."""
        return np.array(self.entries, dtype=float)


@dataclass(frozen=True)
class Spectrum:
    """Multiset of real eigenvalues, stored sorted descending.

    ``tolerance`` is the relative matching radius used by :meth:`matches`
    when no explicit tolerance is supplied.
    """

    values: tuple[float, ...]
    tolerance: float = 1e-8

    def __post_init__(self):
        values = tuple(sorted(_as_float_tuple(self.values), reverse=True))
        if not all(math.isfinite(v) for v in values):
            raise DomainError("spectrum values must be finite")
        if not (math.isfinite(self.tolerance) and self.tolerance >= 0.0):
            raise DomainError("spectrum tolerance must be a nonnegative real")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def matches(self, other, tol: float | None = None) -> bool:
        """Multiset equality against another spectrum or value collection."""
        if tol is None:
            tol = max(self.tolerance, getattr(other, "tolerance", 0.0))
        other_values = other.values if isinstance(other, Spectrum) else tuple(other)
        return multisets_close(self.values, other_values, tol)

    def to_json_dict(self) -> dict:
        return {"eigenvalues": list(self.values)}


@dataclass(frozen=True)
class GroupedVector:
    """Distinct positive values with multiplicities, every multiplicity >= 2."""

    distinct_values: tuple[float, ...]
    multiplicities: tuple[int, ...]

    def __post_init__(self):
        values = _as_float_tuple(self.distinct_values)
        mults = tuple(int(m) for m in self.multiplicities)
        if len(values) == 0:
            raise DomainError("grouped vector needs at least one group")
        if len(values) != len(mults):
            raise DomainError("values and multiplicities must have equal length")
        for v in values:
            if not math.isfinite(v) or v <= 0.0:
                raise DomainError(f"group value must be strictly positive, got {v!r}")
        if len(set(values)) != len(values):
            raise DomainError("group values must be pairwise distinct")
        for m in mults:
            if m < 2:
                raise DomainError(f"every group needs multiplicity >= 2, got {m}")
        object.__setattr__(self, "distinct_values", values)
        object.__setattr__(self, "multiplicities", mults)

    @property
    def k(self) -> int:
        return len(self.distinct_values)

    @property
    def n(self) -> int:
        return sum(self.multiplicities)

    def expand(self) -> PositiveVector:
        """The canonical vector: each value repeated its multiplicity, group order."""
        out: list[float] = []
        for v, m in zip(self.distinct_values, self.multiplicities):
            out.extend([v] * m)
        return PositiveVector(tuple(out))


def construct_cell_matrix(x) -> CellMatrix:
    """Build the cell matrix with entries ``x[i] + x[j]`` off the diagonal.

    Rejects any nonpositive or non-finite entry in the generating vector,
    and a vector whose pairwise sums overflow the float range.
    """
    x = _coerce_vector(x)
    v = x.as_array()
    with np.errstate(over="ignore"):
        m = v[:, None] + v[None, :]
    np.fill_diagonal(m, 0.0)
    return CellMatrix(order=x.n, entries=m)


def recognize_cell(m, rtol: float = 1e-9) -> PositiveVector:
    """Recover the generating vector of a cell matrix, or reject.

    The matrix must be square, finite, symmetric, and hollow.  For n >= 3 the
    linear system ``x[i] + x[j] = M[i][j]`` is solved from the first row and
    every entry is re-checked against the reconstruction within
    ``rtol * max|M|``.  For n = 2 the single equation is split symmetrically,
    ``x = (M[0][1]/2, M[0][1]/2)``.  n = 1 is rejected as underdetermined.
    """
    a = _checked_matrix(m, symmetric=True, hollow=True)
    n = a.shape[0]
    if n == 1:
        raise DomainError("order-1 matrix does not determine a generating vector")
    if n == 2:
        half = a[0, 1] / 2.0
        if half <= 0.0:
            raise DomainError(f"no strictly positive generating vector: x = ({half}, {half})")
        return PositiveVector((half, half))
    x = np.empty(n)
    # sums that overflow (no cell matrix) leave a non-finite residual: "not <=" flags it
    with np.errstate(over="ignore", invalid="ignore"):
        x[0] = (a[0, 1] + a[0, 2] - a[1, 2]) / 2.0
        x[1:] = a[0, 1:] - x[0]
        sums = x[:, None] + x[None, :]
        residual = np.abs(a - sums)
    np.fill_diagonal(residual, 0.0)
    bad = ~(residual <= rtol * float(np.abs(a).max()))
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise DomainError(
            f"entries are inconsistent with a cell matrix: M[{i}][{j}]={a[i, j]!r} "
            f"but x[{i}]+x[{j}]={sums[i, j]!r}"
        )
    if x.min() <= 0.0:
        i = int(np.argmin(x))
        raise DomainError(f"no strictly positive generating vector: x[{i}] = {x[i]!r}")
    return PositiveVector(tuple(x))


def principal_subdeterminant(x, i: int) -> float:
    """Closed-form determinant of the leading i-by-i principal submatrix.

    Evaluates ``(-1)^(i-1) * 2^(i-2) * (4(i-1) + sum_{j<=i} sum_{l<j}
    (x_j - x_l)^2 / (x_j x_l)) * prod_{k<=i} x_k`` for 1-based order ``i``.
    The formula is 0 at order 1 and never 0 above it, so a value that
    overflows, or underflows to 0 at order >= 2, raises ``DomainError``.
    """
    x = _coerce_vector(x)
    if not 1 <= i <= x.n:
        raise DomainError(f"principal order {i} out of range 1..{x.n}")
    v = x.as_array()[:i]
    with np.errstate(all="ignore"):
        diff = v[:, None] - v[None, :]
        ratio = diff * diff / np.outer(v, v)
        bracket = 4.0 * (i - 1) + float(np.triu(ratio, 1).sum())
        value = (-1.0) ** (i - 1) * 2.0 ** (i - 2) * bracket * float(v.prod())
    if not math.isfinite(value) or (value == 0.0 and i >= 2):
        raise DomainError(f"order-{i} principal subdeterminant {value!r} is not finite and nonzero")
    return value


def numeric_determinant(m) -> float:
    """Determinant by Gaussian elimination with partial pivoting.

    The sign is tracked through row swaps; a zero pivot column short-circuits
    to an exact 0.
    """
    a = _checked_matrix(m)
    n = a.shape[0]
    sign = 1.0
    for col in range(n):
        p = col + int(np.argmax(np.abs(a[col:, col])))
        if a[p, col] == 0.0:
            return 0.0
        if p != col:
            a[[col, p], :] = a[[p, col], :]
            sign = -sign
        factors = a[col + 1 :, col] / a[col, col]
        a[col + 1 :, col:] -= np.outer(factors, a[col, col:])
    return sign * float(np.prod(np.diag(a)))


def group_vector(x, tol: float = 1e-12) -> GroupedVector:
    """Partition a positive vector into groups of equal values.

    A value joins the first group whose first value lies within
    ``tol * max(x)`` of it, so the grouping is invariant under scaling.
    Groups are reported in order of first appearance.  Rejects vectors where
    any value occurs only once, since the grouped constructions need every
    value repeated.
    """
    return _grouping(x, tol)[0]


def _grouping(x, tol: float) -> tuple[GroupedVector, list[int]]:
    """:func:`group_vector` together with the group index of every entry."""
    x = _coerce_vector(x)
    if not (math.isfinite(tol) and tol >= 0.0):
        raise DomainError("grouping tolerance must be a nonnegative real")
    radius = tol * max(x.entries)
    reps: list[float] = []
    counts: list[int] = []
    ids: list[int] = []
    for value in x:
        for idx, rep in enumerate(reps):
            if abs(value - rep) <= radius:
                counts[idx] += 1
                break
        else:
            idx = len(reps)
            reps.append(value)
            counts.append(1)
        ids.append(idx)
    for rep, count in zip(reps, counts):
        if count < 2:
            raise DomainError(
                f"value {rep!r} occurs only once; every value must repeat at least twice"
            )
    return GroupedVector(tuple(reps), tuple(counts)), ids


# --- JSON schemas used by the CLI ---------------------------------------
# Matrix: {"n": int, "rows": [[real, ...], ...]}   Vector: {"x": [real, ...]}


def matrix_to_json_dict(m) -> dict:
    a = m.entries if isinstance(m, CellMatrix) else _checked_matrix(m)
    return {"n": int(a.shape[0]), "rows": [[float(v) for v in row] for row in a]}


def matrix_from_json_dict(d) -> np.ndarray:
    if not isinstance(d, dict) or set(d) != {"n", "rows"}:
        raise DomainError('matrix JSON must be {"n": int, "rows": [[...], ...]}')
    rows = d["rows"]
    n = d["n"]
    if not isinstance(n, int) or n < 1:
        raise DomainError("matrix JSON field 'n' must be a positive integer")
    a = _checked_matrix(rows)
    if a.shape[0] != n:
        raise DomainError(f"matrix JSON rows must form an {n}x{n} array")
    return a


def vector_to_json_dict(x) -> dict:
    x = _coerce_vector(x)
    return {"x": [float(v) for v in x]}


def vector_from_json_dict(d) -> PositiveVector:
    if not isinstance(d, dict) or set(d) != {"x"} or not isinstance(d["x"], list):
        raise DomainError('vector JSON must be {"x": [real, ...]}')
    return PositiveVector(tuple(d["x"]))
