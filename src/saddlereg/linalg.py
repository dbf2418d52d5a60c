"""Dense symmetric eigensolver and the vector helpers around it.

Routines for small dimensions (n up to a few hundred): a validating wrapper
over LAPACK's symmetric eigensolver, its spectral norm, and the row norms the
descent engine and the region grid share.
"""

import numpy as np


class NumericalError(RuntimeError):
    """An iterative numerical procedure failed to converge."""


def as_vector(x):
    """Coerce to a finite 1-D float array; reject NaN/Inf and higher ranks."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.ndim != 1:
        raise ValueError(f"expected a vector, got array of shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("vector has non-finite entries")
    return x


def _norms(A):
    """Row norms of A; equal bit for bit to np.linalg.norm of each row."""
    return np.sqrt(np.vecdot(A, A))


def check_symmetric(a):
    """Validate a square, finite, exactly symmetric matrix or stack (..., n, n) and return it."""
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    if not np.array_equal(a, a.mT):
        raise ValueError("matrix is not symmetric")
    return a


def symmetrize(a):
    """Exact symmetrization by averaging, (A + A^T)/2, of a matrix or a stack (..., n, n)."""
    a = np.asarray(a, dtype=float)
    return 0.5 * (a + a.mT)


def sym_eigen(a):
    """Full eigendecomposition of a symmetric matrix or a stack (..., n, n) (LAPACK,
    via numpy.linalg.eigh), the package's only eigensolver call.

    Returns numpy's EighResult: eigenvalues ascending, eigenvectors[..., :, i] the
    unit vector for eigenvalues[..., i]. A stack runs the same LAPACK routine on
    every matrix, so each result equals its single-matrix solve bit for bit. The
    input is validated by check_symmetric. Raises NumericalError if LAPACK does not
    converge.
    """
    a = check_symmetric(a)
    try:
        return np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"symmetric eigensolver failed: {exc}") from exc


def spectral_norm(a):
    """Largest absolute eigenvalue of a symmetric matrix, or over a stack (..., n, n)."""
    return float(np.max(np.abs(sym_eigen(a).eigenvalues)))
