"""Permutations of generating vectors and spectrum-invariance checks.

Permuting the generating vector conjugates the cell matrix by a permutation
matrix, so the spectrum cannot change.  This module verifies that both ways:
entrywise-exact similarity for single transpositions, and an eigensolver
comparison for arbitrary permutations via their transposition decomposition.

Permutations are 1-indexed at the API surface (mappings, cycle strings, and
row indices), matching the usual cycle notation; they are converted to
0-based indices internally.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .cell import PositiveVector, Spectrum, _coerce_vector, construct_cell_matrix, multisets_close
from .eigen import eig_symmetric
from .errors import CellMatrixError, DomainError

__all__ = [
    "Permutation",
    "PermInvarianceReport",
    "permute_vector",
    "transposition_similarity_check",
    "spectrum_invariance_check",
]

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


@dataclass(frozen=True)
class Permutation:
    """A bijection of {0, ..., n-1}; ``mapping[i]`` is the image of ``i``."""

    mapping: tuple[int, ...]

    def __post_init__(self):
        mapping = tuple(int(v) for v in self.mapping)
        if sorted(mapping) != list(range(len(mapping))):
            raise DomainError(f"mapping {mapping} is not a bijection of 0..{len(mapping) - 1}")
        object.__setattr__(self, "mapping", mapping)

    @property
    def n(self) -> int:
        return len(self.mapping)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    @classmethod
    def from_one_based(cls, images) -> "Permutation":
        return cls(tuple(int(v) - 1 for v in images))

    @classmethod
    def transposition(cls, n: int, a: int, b: int) -> "Permutation":
        """The swap of 1-based positions ``a`` and ``b``."""
        if not (1 <= a <= n and 1 <= b <= n):
            raise DomainError(f"transposition indices ({a}, {b}) out of range 1..{n}")
        if a == b:
            raise DomainError("transposition indices must differ")
        mapping = list(range(n))
        mapping[a - 1], mapping[b - 1] = mapping[b - 1], mapping[a - 1]
        return cls(tuple(mapping))

    @classmethod
    def from_cycles(cls, text: str, n: int) -> "Permutation":
        """Parse cycle notation like ``"(1 4)(2 5)(3 7 6)"`` (1-based).

        Elements omitted from every cycle are fixed points; ``""`` and
        ``"()"`` both denote the identity.
        """
        stripped = text.strip()
        leftovers = _CYCLE_RE.sub("", stripped).strip()
        if leftovers:
            raise DomainError(f"cycle notation has stray text {leftovers!r}")
        mapping = list(range(n))
        seen: set[int] = set()
        for body in _CYCLE_RE.findall(stripped):
            elements = [int(tok) for tok in body.replace(",", " ").split()]
            if not elements:
                continue
            for e in elements:
                if not 1 <= e <= n:
                    raise DomainError(f"cycle element {e} out of range 1..{n}")
                if e - 1 in seen:
                    raise DomainError(f"cycle element {e} repeats")
                seen.add(e - 1)
            for idx, e in enumerate(elements):
                succ = elements[(idx + 1) % len(elements)]
                mapping[e - 1] = succ - 1
        return cls(tuple(mapping))

    def to_one_based(self) -> tuple[int, ...]:
        return tuple(v + 1 for v in self.mapping)

    def _cycles(self) -> list[list[int]]:
        """All cycles, fixed points included, 0-based; each starts at its
        least element, and they come in increasing order of that element."""
        seen = [False] * self.n
        cycles: list[list[int]] = []
        for start in range(self.n):
            cycle = []
            element = start
            while not seen[element]:
                seen[element] = True
                cycle.append(element)
                element = self.mapping[element]
            if cycle:
                cycles.append(cycle)
        return cycles

    def cycles_string(self) -> str:
        """Canonical 1-based cycle notation, fixed points omitted."""
        parts = [
            "(" + " ".join(str(c + 1) for c in cycle) + ")"
            for cycle in self._cycles()
            if len(cycle) > 1
        ]
        return "".join(parts) if parts else "()"

    def compose(self, other: "Permutation") -> "Permutation":
        """Function composition ``self o other`` (other applied first)."""
        if self.n != other.n:
            raise DomainError("cannot compose permutations of different sizes")
        return Permutation(tuple(self.mapping[other.mapping[i]] for i in range(self.n)))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, image in enumerate(self.mapping):
            inv[image] = i
        return Permutation(tuple(inv))

    def transpositions(self) -> tuple[tuple[int, int], ...]:
        """Decompose into transpositions, 0-based pairs.

        Cycles are peeled as ``(c1 ... cm) = (c1 cm)(c1 c(m-1))...(c1 c2)``;
        applying the returned pairs to a vector in list order reproduces the
        action of the whole permutation.
        """
        return tuple(
            (cycle[0], element) for cycle in self._cycles() for element in reversed(cycle[1:])
        )

    def to_json_dict(self) -> dict:
        return {"mapping": list(self.to_one_based())}

    @classmethod
    def from_json_dict(cls, d: dict, n: int | None = None) -> "Permutation":
        if not isinstance(d, dict) or not ({"mapping"} == set(d) or {"cycles"} == set(d)):
            raise DomainError('permutation JSON must be {"mapping": [...]} or {"cycles": "..."}')
        if "mapping" in d:
            pi = cls.from_one_based(d["mapping"])
            if n is not None and pi.n != n:
                raise DomainError(f"permutation size {pi.n} does not match expected {n}")
            return pi
        if n is None:
            raise DomainError("cycle notation needs the vector length for context")
        return cls.from_cycles(d["cycles"], n)


def permute_vector(x, pi: Permutation) -> PositiveVector:
    """The vector ``(x[pi(1)], ..., x[pi(n)])``."""
    x = _coerce_vector(x)
    if pi.n != x.n:
        raise DomainError(f"permutation size {pi.n} does not match vector length {x.n}")
    return PositiveVector(tuple(x.entries[pi.mapping[i]] for i in range(x.n)))


def transposition_similarity_check(x, l: int, k: int) -> bool:
    """Exact similarity of a transposition: ``P D(swap(x)) P == D(x)``.

    ``l`` and ``k`` are 1-based positions.  Conjugating by the transposition
    matrix ``P`` only reorders rows and columns, so the identity is checked as
    ``D(swap(x)) == D(x)[idx, idx]`` with ``idx`` the swapped index order.
    Both sides hold exactly the same floating-point sums, so the comparison
    is entrywise equality with no tolerance.
    """
    x = _coerce_vector(x)
    pi = Permutation.transposition(x.n, l, k)
    idx = np.array(pi.mapping)
    original = construct_cell_matrix(x).entries
    permuted = construct_cell_matrix(permute_vector(x, pi)).entries
    return bool(np.array_equal(original[np.ix_(idx, idx)], permuted))


@dataclass(frozen=True)
class PermInvarianceReport:
    """Outcome of a spectrum-invariance verification.

    ``transpositions`` lists the 1-based decomposition steps; each was
    checked with :func:`transposition_similarity_check` on the intermediate
    vector it was applied to.  ``spectra_match`` compares the eigensolver
    outputs for the original and fully permuted vectors.
    """

    ok: bool
    transpositions: tuple[tuple[int, int], ...]
    steps_ok: bool
    spectra_match: bool
    spectrum_original: Spectrum
    spectrum_permuted: Spectrum

    def __bool__(self) -> bool:
        return self.ok

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "transpositions": [list(pair) for pair in self.transpositions],
            "steps_ok": self.steps_ok,
            "spectra_match": self.spectra_match,
            "spectrum_original": list(self.spectrum_original.values),
            "spectrum_permuted": list(self.spectrum_permuted.values),
        }


def spectrum_invariance_check(x, pi: Permutation, tol: float = 1e-8) -> PermInvarianceReport:
    """Verify that permuting the generating vector preserves the spectrum.

    The permutation is decomposed into transpositions, each step is verified
    exactly on the intermediate vector, and the end-to-end claim is confirmed
    independently by comparing eigensolver outputs within ``tol``.
    """
    x = _coerce_vector(x)
    if pi.n != x.n:
        raise DomainError(f"permutation size {pi.n} does not match vector length {x.n}")
    steps = pi.transpositions()
    steps_ok = True
    current = list(x.entries)
    for a, b in steps:
        steps_ok = steps_ok and transposition_similarity_check(
            PositiveVector(tuple(current)), a + 1, b + 1
        )
        current[a], current[b] = current[b], current[a]
    permuted = permute_vector(x, pi)
    if tuple(current) != permuted.entries:
        raise CellMatrixError(
            "internal error: transposition decomposition does not compose to "
            "the permutation"
        )
    s_original = eig_symmetric(construct_cell_matrix(x).entries)
    s_permuted = eig_symmetric(construct_cell_matrix(permuted).entries)
    match = multisets_close(s_original.values, s_permuted.values, tol)
    return PermInvarianceReport(
        ok=steps_ok and match,
        transpositions=tuple((a + 1, b + 1) for a, b in steps),
        steps_ok=steps_ok,
        spectra_match=match,
        spectrum_original=s_original,
        spectrum_permuted=s_permuted,
    )
