"""Independent spectral oracles.

Three routes that never share code with the structural reduction: a Jacobi
eigensolver for symmetric matrices, the Faddeev-LeVerrier trace recursion for
characteristic polynomials, and Durand-Kerner simultaneous iteration for the
roots of small monic polynomials.  The last two compose into
``eig_small_general``, the solver used on the nonsymmetric core that the
grouped reduction produces.

The Jacobi solver scales its input by a power of two, so that no norm
overflows or underflows at any finite magnitude.  It visits the pairs in
round-robin (parallel) order after Brent and Luk (1985): each round rotates
n/2 disjoint pairs in one vectorized step.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .cell import Spectrum, _checked_matrix
from .errors import ConvergenceError, DomainError

__all__ = [
    "Polynomial",
    "eig_symmetric",
    "char_poly",
    "poly_roots",
    "eig_small_general",
]

CHAR_POLY_MAX_ORDER = 32


@dataclass(frozen=True)
class Polynomial:
    """Real-coefficient polynomial, coefficients in ascending degree order."""

    coefficients: tuple[float, ...]

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coefficients)
        if not coeffs:
            raise DomainError("polynomial needs at least one coefficient")
        if not all(math.isfinite(c) for c in coeffs):
            raise DomainError("polynomial coefficients must be finite")
        if len(coeffs) > 1 and coeffs[-1] == 0.0:
            raise DomainError("leading coefficient must be nonzero")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def is_monic(self) -> bool:
        return self.coefficients[-1] == 1.0

    def __call__(self, z):
        """Horner evaluation at a real or complex point."""
        acc = 0.0 + 0.0j if isinstance(z, complex) else 0.0
        for c in reversed(self.coefficients):
            acc = acc * z + c
        return acc

    def evaluation_scale(self, z) -> float:
        """Sum of |c_i| |z|^i, a magnitude bound for rounding in __call__."""
        azs = abs(z)
        acc = 0.0
        for c in reversed(self.coefficients):
            acc = acc * azs + abs(c)
        return acc


def _off_norm(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.sqrt((off * off).sum()))


def _round_robin_step(size: int) -> np.ndarray:
    """How the indices move between two rounds of a round-robin sweep.

    ``size`` is even.  The indices sit at the slots of a tournament table,
    slot ``i`` facing slot ``size - 1 - i``, and a round rotates every facing
    pair.  Between rounds slot 0 stays and the others advance by one place,
    so any ``size - 1`` consecutive rounds pair every two indices exactly
    once, and bring every index back to its slot.  The matrix is kept with
    facing slots at positions ``(2i, 2i + 1)``; the returned ``step`` says
    that position ``j`` of the next round holds the index now at position
    ``step[j]``.
    """
    half = size // 2
    position = np.empty(size, dtype=np.intp)
    position[:half] = np.arange(0, size, 2)
    position[half:] = np.arange(size - 1, 0, -2)
    previous_slot = np.r_[0, size - 1, 1:size - 1]
    return position[previous_slot][np.argsort(position)]


def eig_symmetric(m, tol: float = 1e-12, max_sweeps: int = 50) -> Spectrum:
    """All eigenvalues of a symmetric matrix by round-robin Jacobi rotations.

    The matrix is first scaled by the power of two that brings ``max|M|``
    into [1/2, 1), and the eigenvalues are scaled back at the end.  Both
    steps are exact unless a value is subnormal, so scaling ``M`` by a power
    of two scales the result by the same power, and no norm overflows or
    underflows at any finite magnitude.

    A sweep is a round-robin tournament over the index pairs: ``n - 1``
    rounds for even ``n`` (``n`` rounds for odd ``n``, with one padding
    index), each rotating ``n/2`` disjoint pairs at once, and it visits
    every pair once.  Each rotated pair gets its exact 2x2 result: diagonal
    ``a_pp - t a_pq`` and ``a_qq + t a_pq``, off-diagonal 0.

    Sweeps run until the off-diagonal Frobenius norm drops below
    ``tol * ||M||_F``.  Pairs whose pivot is already below the sweep
    threshold are not rotated; a full sweep of skips implies convergence.
    Raises ``DomainError`` on a non-square, non-finite or asymmetric matrix,
    and when an eigenvalue overflows the float range.  Raises
    ``ConvergenceError`` after ``max_sweeps`` sweeps, and cross-checks the
    eigenvalue sum against the trace (1e-10 relative) before returning.
    """
    a = _checked_matrix(m, symmetric=True)
    exponent = math.frexp(float(np.abs(a).max(initial=0.0)))[1]
    a = np.ldexp(a, -exponent)
    trace = float(np.trace(a))
    fro = float(np.sqrt((a * a).sum()))
    if a.shape[0] > 1 and fro > 0.0:
        diagonal = _round_robin_jacobi(a, tol * fro, max_sweeps)
    else:
        diagonal = np.diag(a)
    values = tuple(float(v) for v in diagonal)
    drift = abs(sum(values) - trace)
    if drift > 1e-10 * max(1.0, sum(abs(v) for v in values)):
        raise ConvergenceError(
            f"eigenvalue sum drifted from the trace by {drift!r}; input is pathological"
        )
    try:
        return Spectrum(tuple(math.ldexp(v, exponent) for v in values))
    except OverflowError:
        raise DomainError("an eigenvalue overflows the float range") from None


def _round_robin_jacobi(a: np.ndarray, goal: float, max_sweeps: int) -> np.ndarray:
    """Diagonal of the symmetric ``a`` (order >= 2) once its off-diagonal
    norm is at most ``goal``; raises ``ConvergenceError`` after
    ``max_sweeps`` sweeps."""
    n = a.shape[0]
    skip = goal / (2.0 * n)
    size = n + n % 2
    if size != n:
        a = np.pad(a, (0, 1))
    step = _round_robin_step(size)
    back = np.argsort(step)
    even = np.arange(0, size, 2)
    odd = even + 1
    # Flat indices of each pair's a_pp, a_qq and a_pq in the round's layout,
    # and of a_pp, a_qq, a_pq and a_qp once the round has moved the rows on
    # to the next layout.
    block = np.concatenate((even * (size + 1), odd * (size + 1), even * size + odd))
    moved = np.concatenate((back[even] * size + even, back[odd] * size + odd,
                            back[even] * size + odd, back[odd] * size + even))
    for _ in range(max_sweeps):
        if _off_norm(a) <= goal:
            break
        for _ in range(size - 1):
            app, aqq, apq = a.take(block).reshape(3, -1)
            active = np.abs(apq) > skip
            if not active.any():
                a = a[step].T[step]
                continue
            theta = (aqq - app) / (2.0 * np.where(active, apq, 1.0))
            # copysign(active, theta) is sign(theta) on active pairs and 0 on
            # the rest, whose rotation is then exactly the identity
            t = np.copysign(active, theta) / (np.abs(theta) + np.hypot(theta, 1.0))
            # Columns 2i and 2i+1 viewed as one complex column z: the pair's
            # rotation (c a_p - s a_q, s a_p + c a_q) is z * (c + i s), and
            # c + i s = (1 + i t) / sqrt(1 + t^2).
            rotation = (1.0 + 1j * t) / np.hypot(t, 1.0)
            z = a.view(np.complex128)
            z *= rotation
            # a is now M J.  Its transpose is J^T M, so one more column
            # rotation of the transpose gives J^T M J.  Each transposed copy
            # also takes the rows in the next round's order; after both, rows
            # and columns are in that order.
            a = a.T[step]
            z = a.view(np.complex128)
            z *= rotation
            tapq = t * apq
            kept = np.where(active, 0.0, apq)
            a.put(moved, np.concatenate((app - tapq, aqq + tapq, kept, kept)))
            a = a.T[step]
    else:
        if _off_norm(a) > goal:
            raise ConvergenceError(
                f"Jacobi iteration did not converge within {max_sweeps} sweeps"
            )
    # a sweep of size - 1 rounds brings every index back to its place, so
    # the padding index is last
    return np.diag(a)[:n]


def char_poly(m) -> Polynomial:
    """Monic characteristic polynomial ``det(xI - M)`` by the
    Faddeev-LeVerrier trace recursion.

    Guarded to order <= 32: the recursion's coefficients lose accuracy
    rapidly beyond small orders, and every intended caller hands it a small
    core matrix.
    """
    a = _checked_matrix(m)
    n = a.shape[0]
    if n > CHAR_POLY_MAX_ORDER:
        raise DomainError(f"order {n} exceeds the characteristic-polynomial guard "
                          f"({CHAR_POLY_MAX_ORDER})")
    # p(x) = x^n + c[1] x^(n-1) + ... + c[n]
    c = [0.0] * (n + 1)
    mk = a.copy()
    c[1] = -float(np.trace(mk))
    # a coefficient that overflows is caught as non-finite by Polynomial
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(2, n + 1):
            mk = a @ (mk + c[k - 1] * np.eye(n))
            c[k] = -float(np.trace(mk)) / k
    ascending = [c[n - d] for d in range(n)] + [1.0]
    return Polynomial(tuple(ascending))


def _quadratic_roots(b: float, c: float) -> tuple[complex, complex]:
    """Roots of x^2 + bx + c, computed stably."""
    disc = b * b - 4.0 * c
    if disc >= 0.0:
        s = math.sqrt(disc)
        q = -0.5 * (b + math.copysign(s, b)) if b != 0.0 else 0.5 * s
        if q == 0.0:
            return (0.0 + 0.0j, 0.0 + 0.0j)
        return (complex(q), complex(c / q))
    s = math.sqrt(-disc)
    return (complex(-b / 2.0, s / 2.0), complex(-b / 2.0, -s / 2.0))


def poly_roots(p: Polynomial, tol: float = 1e-10, max_iter: int = 500) -> tuple[complex, ...]:
    """All complex roots of a monic polynomial.

    Degrees 1 and 2 use closed forms.  Higher degrees run Durand-Kerner
    simultaneous iteration from a circle of radius ``1 + max|coefficient|``
    (the Cauchy bound) with start angles offset by 0.4 rad to avoid symmetric
    stagnation.  Iterates are polished until every residual satisfies
    ``|p(r)| <= tol * scale(r)`` where ``scale`` bounds Horner rounding;
    raises ``ConvergenceError`` after ``max_iter`` iterations.  Roots are
    returned sorted by (real, imaginary) part.
    """
    if not isinstance(p, Polynomial):
        p = Polynomial(tuple(p))
    if p.degree < 1:
        raise DomainError("root finding needs degree >= 1")
    if not p.is_monic:
        raise DomainError("root finding expects a monic polynomial")
    deg = p.degree
    if deg == 1:
        roots = [complex(-p.coefficients[0])]
    elif deg == 2:
        roots = list(_quadratic_roots(p.coefficients[1], p.coefficients[0]))
    else:
        radius = 1.0 + max(abs(c) for c in p.coefficients[:-1])
        z = [radius * cmath.exp(1j * (2.0 * math.pi * j / deg + 0.4)) for j in range(deg)]
        converged = False
        polish = 0
        for _ in range(max_iter):
            new_z = []
            for j in range(deg):
                denom = 1.0 + 0.0j
                for k in range(deg):
                    if k != j:
                        denom *= z[j] - z[k]
                if denom == 0:
                    denom = complex(1e-300)
                new_z.append(z[j] - p(z[j]) / denom)
            z = new_z
            if converged:
                # two more sweeps after the residual gate: simple roots
                # converge quadratically, so this lands at limiting accuracy
                polish += 1
                if polish >= 2:
                    break
            else:
                converged = all(
                    abs(p(r)) <= tol * max(1.0, p.evaluation_scale(r)) for r in z
                )
        if not converged:
            raise ConvergenceError(
                f"Durand-Kerner did not converge within {max_iter} iterations"
            )
        roots = z
    return tuple(sorted(roots, key=lambda r: (r.real, r.imag)))


def eig_small_general(m, tol: float = 1e-8) -> Spectrum:
    """Real spectrum of a small general matrix via its characteristic polynomial.

    Composes :func:`char_poly` and :func:`poly_roots`, then rejects the input
    if any root carries an imaginary part above ``tol * max(1, |root|)``.
    """
    roots = poly_roots(char_poly(m))
    for r in roots:
        if abs(r.imag) > tol * max(1.0, abs(r)):
            raise DomainError(
                f"matrix has a genuinely complex eigenvalue {r!r}; "
                "no real spectrum exists within tolerance"
            )
    return Spectrum(tuple(r.real for r in roots))
