"""Independent spectral oracle: a Jacobi eigensolver for symmetric matrices.

It never shares code with the structural reduction, so it can cross-check
the reduction route, which roots the grouped core with LAPACK (see
:mod:`cellmat.reduction`).

The Jacobi solver scales its input by a power of two, so that no norm
overflows or underflows at any finite magnitude.  It visits the pairs in
round-robin (parallel) order after Brent and Luk (1985): each round rotates
n/2 disjoint pairs in one vectorized step.
"""

from __future__ import annotations

import math

import numpy as np

from .cell import Spectrum, _checked_matrix
from .errors import ConvergenceError, DomainError

__all__ = ["eig_symmetric"]


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
