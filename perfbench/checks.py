"""Independent references for every answer the benchmark checks.

Nothing here calls cellmat.  Spectra come from LAPACK (``numpy.linalg.eigvalsh``
for symmetric matrices, ``numpy.linalg.eigvals`` for the reduction core),
determinants from LAPACK LU (``numpy.linalg.slogdet``), and the closed-form
solvers are checked against the formulas they document.  All of this runs
outside the timed region.
"""

from __future__ import annotations

import math
import time

import numpy as np

# An answer is correct when it is within TOL of the reference, relative to the
# largest reference magnitude.
TOL = 1e-8
# Relative error reported for an exact answer, so accuracy stays finite.
ERR_FLOOR = 2.0**-52


def cell_matrix(x) -> np.ndarray:
    """The cell matrix of ``x``, built without cellmat."""
    v = np.asarray(x, dtype=float)
    m = v[:, None] + v[None, :]
    np.fill_diagonal(m, 0.0)
    return m


def reference_spectrum(m: np.ndarray) -> tuple[np.ndarray, float]:
    """Descending eigenvalues of a symmetric matrix, and the eigvalsh seconds.

    The matrix is scaled by a power of two (exact) so that LAPACK sees entries
    of order one at every magnitude where the entries are finite.
    """
    shift = math.frexp(float(np.max(np.abs(m))))[1] if m.size else 0
    scaled = np.ldexp(m, -shift)
    start = time.perf_counter()
    values = np.linalg.eigvalsh(scaled)
    seconds = time.perf_counter() - start
    return np.ldexp(values[::-1], shift), seconds


def reference_logdets(m: np.ndarray) -> list[tuple[float, float]]:
    """(sign, log|det|) of every leading principal submatrix, orders 1..n."""
    return [tuple(float(v) for v in np.linalg.slogdet(m[:i, :i])) for i in range(1, len(m) + 1)]


def spectrum_error(values, ref: np.ndarray) -> float:
    """Largest eigenvalue deviation relative to max|ref|; inf if not comparable."""
    v = np.sort(np.asarray(values, dtype=float))[::-1]
    if v.shape != ref.shape:
        return math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        err = float(np.max(np.abs(v - ref)) / np.max(np.abs(ref)))
    return err if math.isfinite(err) else math.inf


def determinant_error(value: float, ref: tuple[float, float]) -> float:
    """Relative deviation of a determinant from its (sign, log|det|) reference."""
    sign, logdet = ref
    if sign == 0.0:
        return 0.0 if value == 0.0 else math.inf
    if not math.isfinite(value) or value == 0.0 or math.copysign(1.0, value) != sign:
        return math.inf
    return abs(math.expm1(math.log(abs(value)) - logdet))


def exact_error(got, expected) -> float:
    """0 when two float sequences are identical, inf otherwise."""
    return 0.0 if tuple(float(v) for v in got) == tuple(float(v) for v in expected) else math.inf


def vector_error(got, expected) -> float:
    """Largest entry deviation relative to max|expected|."""
    g = np.asarray(got, dtype=float)
    e = np.asarray(expected, dtype=float)
    if g.shape != e.shape:
        return math.inf
    err = float(np.max(np.abs(g - e)) / np.max(np.abs(e)))
    return err if math.isfinite(err) else math.inf


def cubic_spectrum(a: float, b: float) -> tuple[float, float, float]:
    """Spectrum of the cell matrix of ``(a, b, b)``: ``b +- sqrt(b^2 + 2(a+b)^2)``
    and ``-2b``."""
    root = math.sqrt(b * b + 2.0 * (a + b) ** 2)
    return (b + root, b - root, -2.0 * b)


def two_group_head(t3: float, t4: float, l1: int, l2: int) -> tuple[float, float]:
    """Head eigenvalues of the two-group family by the explicit radicals."""
    n = l1 + l2
    h3, h4 = -t3 / 2.0, -t4 / 2.0
    mean = (l1 - 1) * h3 + (l2 - 1) * h4
    radicand = (
        (l1 * (n - 2) + 1) * h3 * h3
        + 0.5 * (n - 1) * t3 * t4
        + (n * n - n * (l1 + 2) + 2 * l1 + 1) * h4 * h4
    )
    root = math.sqrt(radicand)
    return (mean + root, mean - root)
