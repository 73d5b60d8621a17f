"""Elementary-similarity reduction of grouped cell matrices.

A cell matrix whose generating vector takes k distinct values, each repeated
at least twice, is similar to a block upper-triangular matrix: a k-by-k core
followed by a diagonal run of the forced eigenvalues -2*x for each group
value x.  This module performs that reduction with explicit elementary row
operations (recording every one so the transformation can be replayed and
audited), builds the closed-form core directly, and combines the two with
the polynomial root solver into a second, independent spectrum route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cell import (
    GroupedVector,
    Spectrum,
    _checked_matrix,
    _coerce_vector,
    _grouping,
    construct_cell_matrix,
)
from .eigen import eig_small_general
from .errors import DomainError

__all__ = [
    "ElementaryOp",
    "ReductionResult",
    "apply_similarity",
    "build_dk",
    "reduce_grouped",
    "spectrum_via_reduction",
]


@dataclass(frozen=True)
class ElementaryOp:
    """One elementary similarity: a row/column swap or a row-sum.

    Indices are 0-based row indices of the full matrix.  ``swap`` exchanges
    rows i,j and columns i,j (an involution).  ``row_sum`` with factor
    ``lam`` adds ``lam * row j`` to row i and subtracts ``lam * column i``
    from column j, which is conjugation by the row-sum elementary matrix
    (whose inverse simply negates ``lam``).
    """

    kind: str
    i: int
    j: int
    lam: float | None = None

    def __post_init__(self):
        if self.kind not in ("swap", "row_sum"):
            raise DomainError(f"unknown elementary op kind {self.kind!r}")
        if self.i == self.j:
            raise DomainError("elementary op indices must differ")
        if self.i < 0 or self.j < 0:
            raise DomainError("elementary op indices must be nonnegative")
        if self.kind == "row_sum":
            if self.lam is None or not math.isfinite(self.lam):
                raise DomainError("row_sum op needs a finite factor")
            object.__setattr__(self, "lam", float(self.lam))
        elif self.lam is not None:
            raise DomainError("swap op takes no factor")

    def inverse(self) -> "ElementaryOp":
        if self.kind == "swap":
            return self
        return ElementaryOp("row_sum", self.i, self.j, -self.lam)

    def to_json_dict(self) -> dict:
        d = {"kind": self.kind, "i": self.i, "j": self.j}
        if self.kind == "row_sum":
            d["lambda"] = self.lam
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "ElementaryOp":
        if not isinstance(d, dict) or "kind" not in d:
            raise DomainError("elementary op JSON needs a 'kind' field")
        return cls(d["kind"], int(d["i"]), int(d["j"]), d.get("lambda"))


def _apply_inplace(a: np.ndarray, op: ElementaryOp) -> None:
    n = a.shape[0]
    if op.i >= n or op.j >= n:
        raise DomainError(f"elementary op index out of range for order {n}")
    if op.kind == "swap":
        a[[op.i, op.j], :] = a[[op.j, op.i], :]
        a[:, [op.i, op.j]] = a[:, [op.j, op.i]]
    else:
        a[op.i, :] += op.lam * a[op.j, :]
        a[:, op.j] -= op.lam * a[:, op.i]


def apply_similarity(m, op: ElementaryOp) -> np.ndarray:
    """Return ``E M E^-1`` for the elementary matrix of ``op``."""
    a = _checked_matrix(m)
    _apply_inplace(a, op)
    return a


def build_dk(g: GroupedVector) -> np.ndarray:
    """Closed-form k-by-k core of a grouped cell matrix.

    With group values x and multiplicities l (group order as given), entry
    (i, j) is ``(l[a]-1) * 2*x[a]`` on the diagonal and ``l[a] * (x[a]+x[b])``
    off it, where ``a = k-1-j`` and ``b = k-1-i`` reverse the group order.
    """
    if not isinstance(g, GroupedVector):
        raise DomainError("build_dk expects a GroupedVector")
    k = g.k
    x = g.distinct_values
    l = g.multiplicities
    core = np.empty((k, k))
    for i in range(k):
        for j in range(k):
            a = k - 1 - j
            b = k - 1 - i
            if i == j:
                core[i, j] = (l[a] - 1) * (2.0 * x[a])
            else:
                core[i, j] = l[a] * (x[a] + x[b])
    return core


@dataclass(frozen=True)
class ReductionResult:
    """Outcome of the staged elementary reduction.

    ``core`` is the leading k-by-k block of the reduced matrix,
    ``known_blocks`` lists the forced diagonal eigenvalues as
    (value, count) = (-2*x, multiplicity-1) pairs in group order, and
    ``ops_applied`` is the full similarity trace (including the swaps that
    first sort the vector into contiguous groups), so replaying it on the
    original cell matrix reproduces the block-triangular form.
    ``sort_permutation`` records, 0-based, which original entry each sorted
    position took.
    """

    core: np.ndarray
    known_blocks: tuple[tuple[float, int], ...]
    ops_applied: tuple[ElementaryOp, ...]
    sort_permutation: tuple[int, ...] = field(default=())

    def __post_init__(self):
        core = _checked_matrix(self.core)
        blocks = tuple((float(v), int(c)) for v, c in self.known_blocks)
        core.setflags(write=False)
        object.__setattr__(self, "core", core)
        object.__setattr__(self, "known_blocks", blocks)
        object.__setattr__(self, "ops_applied", tuple(self.ops_applied))
        object.__setattr__(self, "sort_permutation", tuple(int(p) for p in self.sort_permutation))

    @property
    def k(self) -> int:
        return self.core.shape[0]

    @property
    def n(self) -> int:
        return self.k + sum(c for _, c in self.known_blocks)

    def known_values(self) -> tuple[float, ...]:
        """The forced eigenvalues expanded to their multiplicities."""
        out: list[float] = []
        for value, count in self.known_blocks:
            out.extend([value] * count)
        return tuple(out)

    def to_json_dict(self) -> dict:
        return {
            "core": [[float(v) for v in row] for row in self.core],
            "known_blocks": [{"value": v, "count": c} for v, c in self.known_blocks],
            "ops": [op.to_json_dict() for op in self.ops_applied],
            "sort_permutation": list(self.sort_permutation),
        }


def _sort_swaps(group_ids: list[int]) -> tuple[list[ElementaryOp], list[int]]:
    """Swaps that stably sort positions by group id; also the permutation.

    Selection pass: each position receives the first remaining entry of the
    group that belongs there, so equal groups keep their original order.
    """
    n = len(group_ids)
    desired = sorted(range(n), key=lambda idx: (group_ids[idx], idx))
    current = list(range(n))
    ops: list[ElementaryOp] = []
    for pos in range(n):
        if current[pos] == desired[pos]:
            continue
        src = current.index(desired[pos], pos + 1)
        ops.append(ElementaryOp("swap", pos, src))
        current[pos], current[src] = current[src], current[pos]
    return ops, desired


def reduce_grouped(x, tol: float = 1e-12) -> ReductionResult:
    """Reduce a grouped cell matrix to core-plus-diagonal triangular form.

    The groups are those of :func:`group_vector` with the same ``tol``.  The
    vector is first sorted into contiguous groups (spectrum-preserving by
    permutation similarity; the swaps are part of the recorded trace).  Then,
    processing groups last-to-first, each group's trailing rows are
    eliminated against its first row with factor -1 row sums, and the
    accumulated pivot rows are swapped ahead of the next group.  The leading
    k-by-k block of the result equals :func:`build_dk` on the grouping and
    the trailing diagonal carries each forced eigenvalue ``-2*x`` exactly
    ``multiplicity - 1`` times.
    """
    x = _coerce_vector(x)
    g, group_ids = _grouping(x, tol)
    k = g.k
    mults = g.multiplicities

    a = construct_cell_matrix(x).as_array()
    ops, sort_perm = _sort_swaps(group_ids)
    for op in ops:
        _apply_inplace(a, op)

    prefix = [0] * k
    for s in range(1, k):
        prefix[s] = prefix[s - 1] + mults[s - 1]

    for m in range(1, k + 1):
        s = k - m
        q = prefix[s] + m - 1
        for r in range(q + mults[s] - 1, q, -1):
            op = ElementaryOp("row_sum", r, q, -1.0)
            _apply_inplace(a, op)
            ops.append(op)
        if s > 0:
            for t in range(m):
                op = ElementaryOp("swap", prefix[s - 1] + t, prefix[s] + t)
                _apply_inplace(a, op)
                ops.append(op)

    core = a[:k, :k].copy()
    blocks = tuple(
        (-2.0 * v, m - 1) for v, m in zip(g.distinct_values, g.multiplicities)
    )
    return ReductionResult(
        core=core,
        known_blocks=blocks,
        ops_applied=tuple(ops),
        sort_permutation=tuple(sort_perm),
    )


def spectrum_via_reduction(x, tol: float = 1e-8) -> Spectrum:
    """Spectrum of a grouped cell matrix through the triangular reduction.

    The head eigenvalues come from the characteristic polynomial of the core;
    the tail is the forced diagonal.  ``tol`` becomes the matching radius of
    the returned spectrum (it also bounds the imaginary parts tolerated when
    rooting the core, which are provably spurious here).
    """
    result = reduce_grouped(x)
    head = eig_small_general(result.core, tol=tol)
    return Spectrum(tuple(head.values) + result.known_values(), tolerance=tol)
