"""Dense symmetric eigensolver, small linear systems, and the vector helpers around them.

Routines for small dimensions (n up to a few hundred): a validating wrapper over LAPACK's
symmetric eigensolver, its spectral norm, the determinants and solves of Hessian stacks
(closed form for n <= 2), and the row norms the descent engine and the region grid share.
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


def _det_and_solve(H, B):
    """Determinants (m,) and solutions (m, n) of the systems H x = B, for a stack H
    (m, n, n) and right-hand sides B (m, n); a singular system gives a non-finite row,
    never an exception or a warning.

    n <= 2 is solved in closed form, each row on its own: B / H, and ad - bc with
    Cramer's rule, which differs from LAPACK's pivoted elimination in the last bits and
    loses a product that under- or overflows: diag(1e-200, 1e-200), which LAPACK solves,
    reads as singular, and diag(1e200, 1e200) gives 0. Above 2 it runs LAPACK's det and
    solve.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if H.shape[-1] == 1:
            return H[:, 0, 0], B / H[:, 0]
        if H.shape[-1] == 2:
            (a, b, c, d), (u, v) = H.reshape(-1, 4).T, B.T
            det, X = a * d - b * c, np.empty_like(B)
            X[:, 0], X[:, 1] = (d * u - b * v) / det, (a * v - c * u) / det
            return det, X
    det = np.linalg.det(H)
    try:
        return det, np.linalg.solve(H, B[..., None])[..., 0]
    except np.linalg.LinAlgError:
        ok = np.linalg.slogdet(H)[0] != 0.0  # slogdet's LU is solve's: 0 marks what it rejects
        X = np.full(B.shape, np.nan)
        X[ok] = np.linalg.solve(H[ok], B[ok, :, None])[..., 0]
        return det, X


def spectral_norm(a):
    """Largest absolute eigenvalue of a symmetric matrix, or over a stack (..., n, n)."""
    return float(np.max(np.abs(sym_eigen(a).eigenvalues)))
