"""Inverse eigenvalue solvers for the characterized spectrum families.

Each solver turns a target spectrum into a generating vector whose cell
matrix realizes it: the zero-sum 3x3 family (closed form), the uniform
family (single repeated value), the two-group family (explicit radicals),
and the general grouped family, where the free head eigenvalues are the
roots of the closed-form core.  ``verify_membership`` checks an externally
supplied spectrum against the grouped family.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .cell import (
    GroupedVector,
    PositiveVector,
    Spectrum,
    construct_cell_matrix,
    multisets_close,
)
from .eigen import eig_small_general, eig_symmetric
from .errors import CellMatrixError, DomainError
from .reduction import build_dk

__all__ = [
    "CubicSpectrumTarget",
    "GroupedSpec",
    "IEPSolution",
    "MembershipReport",
    "solve_cubic_iep",
    "solve_uniform",
    "solve_two_group",
    "solve_grouped",
    "verify_membership",
]

# Head eigenvalues closer to zero than this cannot be sign-classified.
SIGN_DEAD_ZONE = 1e-10


@dataclass(frozen=True)
class CubicSpectrumTarget:
    """Zero-sum target spectrum for the 3x3 solver.

    Ordered so that ``lambda1 >= 0 > lambda3 >= lambda2``: the third value is
    the negative eigenvalue of smallest magnitude.  The three values must sum
    to zero within 1e-12 absolute (the matrix is hollow, so its trace is 0).
    """

    lambda1: float
    lambda2: float
    lambda3: float

    def __post_init__(self):
        l1, l2, l3 = (float(v) for v in (self.lambda1, self.lambda2, self.lambda3))
        for v in (l1, l2, l3):
            if not math.isfinite(v):
                raise DomainError("spectrum values must be finite")
        if not (l1 >= 0.0 > l3 >= l2):
            raise DomainError(
                f"cubic target must satisfy lambda1 >= 0 > lambda3 >= lambda2, "
                f"got ({l1}, {l2}, {l3})"
            )
        if abs(l1 + l2 + l3) > 1e-12:
            raise DomainError(
                f"cubic target must sum to zero within 1e-12, got sum {l1 + l2 + l3!r}"
            )
        object.__setattr__(self, "lambda1", l1)
        object.__setattr__(self, "lambda2", l2)
        object.__setattr__(self, "lambda3", l3)

    @classmethod
    def from_multiset(cls, values) -> "CubicSpectrumTarget":
        """Order an unordered triple into the canonical target form."""
        vals = sorted(float(v) for v in values)
        if len(vals) != 3:
            raise DomainError(f"cubic target needs exactly 3 values, got {len(vals)}")
        return cls(lambda1=vals[2], lambda2=vals[0], lambda3=vals[1])


@dataclass(frozen=True)
class GroupedSpec:
    """Forced tail of a grouped target spectrum.

    ``tail_values`` are the k distinct negative eigenvalues; the i-th appears
    with multiplicity ``multiplicities[i] - 1`` in the target, and the group
    sizes must sum to the matrix order with every size >= 2.
    """

    tail_values: tuple[float, ...]
    multiplicities: tuple[int, ...]

    def __post_init__(self):
        tails = tuple(float(v) for v in self.tail_values)
        mults = tuple(int(m) for m in self.multiplicities)
        if len(tails) == 0:
            raise DomainError("grouped spec needs at least one tail value")
        if len(tails) != len(mults):
            raise DomainError("tails and multiplicities must have equal length")
        for v in tails:
            if not math.isfinite(v) or v >= 0.0:
                raise DomainError(f"tail values must be strictly negative, got {v!r}")
        if len(set(tails)) != len(tails):
            raise DomainError("tail values must be pairwise distinct")
        for m in mults:
            if m < 2:
                raise DomainError(f"every multiplicity must be >= 2, got {m}")
        object.__setattr__(self, "tail_values", tails)
        object.__setattr__(self, "multiplicities", mults)

    @property
    def k(self) -> int:
        return len(self.tail_values)

    @property
    def n(self) -> int:
        return sum(self.multiplicities)

    def grouped_vector(self) -> GroupedVector:
        """The generating groups: value -tail/2 with the same multiplicity."""
        return GroupedVector(
            tuple(-v / 2.0 for v in self.tail_values), self.multiplicities
        )

    def to_json_dict(self) -> dict:
        return {"tails": list(self.tail_values), "multiplicities": list(self.multiplicities)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "GroupedSpec":
        if not isinstance(d, dict) or set(d) != {"tails", "multiplicities"}:
            raise DomainError('grouped spec JSON must be {"tails": [...], "multiplicities": [...]}')
        return cls(tuple(d["tails"]), tuple(d["multiplicities"]))


@dataclass(frozen=True)
class IEPSolution:
    """A solved inverse problem: generating vector, head values, full spectrum."""

    x: PositiveVector
    head_values: tuple[float, ...]
    full_spectrum: Spectrum

    def __post_init__(self):
        object.__setattr__(self, "head_values", tuple(float(v) for v in self.head_values))

    def to_json_dict(self) -> dict:
        return {
            "x": [float(v) for v in self.x],
            "head": list(self.head_values),
            "spectrum": list(self.full_spectrum.values),
        }


def _verify_reconstruction(x: PositiveVector, target_values, rtol: float) -> None:
    actual = eig_symmetric(construct_cell_matrix(x).entries)
    if not multisets_close(actual.values, target_values, rtol):
        raise CellMatrixError(
            f"internal cross-check failed: constructed matrix has spectrum "
            f"{actual.values} instead of {tuple(target_values)}"
        )


def solve_cubic_iep(t: CubicSpectrumTarget) -> IEPSolution:
    """Solve the 3x3 inverse problem for a zero-sum target spectrum.

    Returns ``x = (sqrt(|l1*l2|/2) - |l3|/2, |l3|/2, |l3|/2)``.  The last two
    entries are constructed identical, so the two larger pairwise sums of the
    vector coincide.  ``lambda1 = 0`` is rejected: it forces the zero matrix,
    which no positive vector generates.  The constructed matrix is verified
    to reproduce the target within 1e-9 before returning.
    """
    if not isinstance(t, CubicSpectrumTarget):
        t = CubicSpectrumTarget.from_multiset(t)
    if t.lambda1 <= 0.0:
        raise DomainError("lambda1 must be strictly positive; the zero spectrum "
                          "is not realizable by a positive vector")
    half3 = abs(t.lambda3) / 2.0
    first = math.sqrt(abs(t.lambda1 * t.lambda2) / 2.0) - half3
    x = PositiveVector((first, half3, half3))
    target = (t.lambda1, t.lambda2, t.lambda3)
    _verify_reconstruction(x, target, 1e-9)
    return IEPSolution(
        x=x, head_values=(t.lambda1, t.lambda2), full_spectrum=Spectrum(target)
    )


def solve_uniform(n: int, lam: float) -> IEPSolution:
    """Solve for the uniform spectrum ``{(n-1)*lam, -lam x (n-1)}``.

    The generating vector is ``lam/2`` repeated n times.
    """
    if int(n) != n or n < 2:
        raise DomainError(f"uniform solver needs an integer order n >= 2, got {n!r}")
    n = int(n)
    lam = float(lam)
    if not math.isfinite(lam) or lam <= 0.0:
        raise DomainError(f"uniform solver needs lambda > 0, got {lam!r}")
    x = PositiveVector((lam / 2.0,) * n)
    head = (n - 1) * lam
    values = (head,) + (-lam,) * (n - 1)
    return IEPSolution(x=x, head_values=(head,), full_spectrum=Spectrum(values))


def solve_two_group(lambda3: float, lambda4: float, l1: int, l2: int) -> IEPSolution:
    """Solve the two-group family with explicit radicals.

    For distinct negative ``lambda3, lambda4`` with group sizes ``l1, l2 >= 2``
    and ``n = l1 + l2``, the head eigenvalues are ``mean +- sqrt(radicand)``
    with ``mean = (l1-1)(-lambda3/2) + (l2-1)(-lambda4/2)`` and
    ``radicand = (l1(n-2)+1)(lambda3/2)^2 + (n-1)/2 * lambda3*lambda4
    + (n^2 - n(l1+2) + 2 l1 + 1)(lambda4/2)^2``.  The radicals are
    cross-validated against the spectrum of the closed-form 2x2 core within
    1e-9.
    """
    lambda3 = float(lambda3)
    lambda4 = float(lambda4)
    for v in (lambda3, lambda4):
        if not math.isfinite(v) or v >= 0.0:
            raise DomainError(f"tail eigenvalues must be strictly negative, got {v!r}")
    if lambda3 == lambda4:
        raise DomainError("tail eigenvalues must be distinct; use solve_uniform "
                          "for a single repeated value")
    if int(l1) != l1 or int(l2) != l2 or l1 < 2 or l2 < 2:
        raise DomainError(f"group sizes must be integers >= 2, got ({l1!r}, {l2!r})")
    l1, l2 = int(l1), int(l2)
    n = l1 + l2
    h3 = -lambda3 / 2.0
    h4 = -lambda4 / 2.0
    mean = (l1 - 1) * h3 + (l2 - 1) * h4
    radicand = (
        (l1 * (n - 2) + 1) * h3 * h3
        + 0.5 * (n - 1) * lambda3 * lambda4
        + (n * n - n * (l1 + 2) + 2 * l1 + 1) * h4 * h4
    )
    if radicand < 0.0:
        raise DomainError(f"radicand {radicand!r} is negative; the two-group "
                          "formulas do not apply")
    root = math.sqrt(radicand)
    head = (mean + root, mean - root)

    g = GroupedVector((h3, h4), (l1, l2))
    core_spectrum = eig_small_general(build_dk(g))
    if not multisets_close(head, core_spectrum.values, 1e-9):
        raise CellMatrixError(
            f"internal cross-check failed: radical head {head} disagrees with "
            f"core spectrum {core_spectrum.values}"
        )
    # PositiveVector construction re-checks entry positivity, unreachable as
    # that is for negative tails.
    x = PositiveVector((h3,) * l1 + (h4,) * l2)
    values = head + (lambda3,) * (l1 - 1) + (lambda4,) * (l2 - 1)
    return IEPSolution(x=x, head_values=head, full_spectrum=Spectrum(values))


def solve_grouped(g: GroupedSpec) -> IEPSolution:
    """Solve the general grouped family.

    The vector repeats ``-tail/2`` per group; the head eigenvalues are the
    real roots of the closed-form core.  Exactly one head value must be
    strictly positive and the rest strictly negative (values inside the
    ``1e-10`` dead zone around zero are rejected as unclassifiable).  The
    dominance property ``lambda1 > |lambda2| + ... + |lambda_k|`` is checked
    as a diagnostic and only warns, since no failure is reachable from a
    genuine construction.
    """
    if not isinstance(g, GroupedSpec):
        raise DomainError("solve_grouped expects a GroupedSpec")
    grouping = g.grouped_vector()
    head = eig_small_general(build_dk(grouping))
    for v in head.values:
        if abs(v) < SIGN_DEAD_ZONE:
            raise DomainError(
                f"head eigenvalue {v!r} is too close to zero to sign-classify"
            )
    positives = [v for v in head.values if v > 0.0]
    if len(positives) != 1:
        raise DomainError(
            f"head spectrum {head.values} must contain exactly one positive value"
        )
    lead = positives[0]
    rest = sum(abs(v) for v in head.values if v < 0.0)
    if lead <= rest * (1.0 - 1e-12):
        warnings.warn(
            f"head eigenvalue {lead} does not dominate the others (sum {rest})",
            RuntimeWarning,
            stacklevel=2,
        )
    tail: list[float] = []
    for value, mult in zip(g.tail_values, g.multiplicities):
        tail.extend([value] * (mult - 1))
    return IEPSolution(
        x=grouping.expand(),
        head_values=head.values,
        full_spectrum=Spectrum(head.values + tuple(tail)),
    )


@dataclass(frozen=True)
class MembershipReport:
    """Verdict on whether a spectrum belongs to a grouped family.

    ``condition1_ok`` records the sign pattern of the candidate (exactly one
    positive value); ``condition2_ok`` records whether, after removing the
    forced tail, the remainder matches the core's roots.  ``accepted`` is the
    overall multiset comparison against the solved spectrum.
    """

    accepted: bool
    condition1_ok: bool
    condition2_ok: bool
    expected: Spectrum
    detail: str

    def __bool__(self) -> bool:
        return self.accepted

    def to_json_dict(self) -> dict:
        return {
            "accepted": self.accepted,
            "condition1_ok": self.condition1_ok,
            "condition2_ok": self.condition2_ok,
            "expected": list(self.expected.values),
            "detail": self.detail,
        }


def _remove_close(pool: list[float], value: float, count: int, tol_abs: float) -> bool:
    """Remove ``count`` elements near ``value`` from ``pool``; False if short."""
    for _ in range(count):
        best = None
        best_gap = tol_abs
        for idx, v in enumerate(pool):
            gap = abs(v - value)
            if gap <= best_gap:
                best = idx
                best_gap = gap
        if best is None:
            return False
        pool.pop(best)
    return True


def verify_membership(s, g: GroupedSpec, tol: float = 1e-8) -> MembershipReport:
    """Check whether spectrum ``s`` is the grouped-family spectrum of ``g``.

    Returns a structured report rather than raising: ``accepted`` is the
    multiset comparison against :func:`solve_grouped`'s spectrum within
    ``tol * max|value|`` over both spectra, and the two condition flags
    localize a failure to the sign pattern or to the head/tail structure.
    Raises ``DomainError`` when ``s`` has a non-finite value.
    """
    values = Spectrum(tuple(s)).values
    solution = solve_grouped(g)
    expected = solution.full_spectrum

    problems: list[str] = []
    positives = sum(1 for v in values if v > 0.0)
    negatives = sum(1 for v in values if v < 0.0)
    condition1 = positives == 1 and negatives == len(values) - 1
    if not condition1:
        problems.append(
            f"condition 1 violated: {positives} positive / {negatives} negative "
            f"values among {len(values)}"
        )

    scale = max([abs(v) for v in values] + [abs(v) for v in expected.values])
    tol_abs = tol * scale
    pool = list(values)
    condition2 = len(values) == g.n
    if not condition2:
        problems.append(f"size mismatch: got {len(values)} values, expected {g.n}")
    else:
        for value, mult in zip(g.tail_values, g.multiplicities):
            if not _remove_close(pool, value, mult - 1, tol_abs):
                condition2 = False
                problems.append(
                    f"condition 2 violated: tail value {value} is short of "
                    f"multiplicity {mult - 1}"
                )
                break
        else:
            if not multisets_close(pool, solution.head_values, tol):
                condition2 = False
                problems.append(
                    f"condition 2 violated: head must be {solution.head_values}, "
                    f"got {tuple(sorted(pool, reverse=True))}"
                )

    accepted = expected.matches(values, tol)
    if accepted and not (condition1 and condition2):
        # Defensive: an accepted spectrum satisfies both conditions by construction.
        accepted = False
    detail = "; ".join(problems) if problems else "spectrum matches the grouped family"
    return MembershipReport(
        accepted=accepted,
        condition1_ok=condition1,
        condition2_ok=condition2,
        expected=expected,
        detail=detail,
    )
