"""Dense symmetric eigensolver and finite-difference derivative stencils.

Routines for small dimensions (n up to a few hundred): a validating wrapper
over LAPACK's symmetric eigensolver, plus central difference gradient /
Hessian / third-derivative stencils that serve as independent oracles for
analytic derivatives throughout the package.
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
    """Validate a square, finite, exactly symmetric matrix and return it."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    if not np.array_equal(a, a.T):
        raise ValueError("matrix is not symmetric")
    return a


def symmetrize(a):
    """Exact symmetrization by averaging, (A + A^T)/2, of a matrix or a stack (..., n, n)."""
    a = np.asarray(a, dtype=float)
    return 0.5 * (a + a.mT)


def sym_eigen(a):
    """Full eigendecomposition of a symmetric matrix (LAPACK, via numpy.linalg.eigh).

    Returns numpy's EighResult: eigenvalues ascending, eigenvectors[:, i] the
    unit vector for eigenvalues[i]. The input is validated by check_symmetric.
    Raises NumericalError if LAPACK does not converge.
    """
    a = check_symmetric(a)
    try:
        return np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"symmetric eigensolver failed: {exc}") from exc


def spectral_norm(a):
    """Largest absolute eigenvalue of a symmetric matrix."""
    dec = sym_eigen(a)
    return float(np.max(np.abs(dec.eigenvalues)))


def _default_h(x, base):
    return base * max(1.0, float(np.max(np.abs(x)))) if x.size else base


def _eval(f, x):
    v = float(f(x))
    if not np.isfinite(v):
        raise NumericalError(f"objective evaluation returned non-finite value at {x}")
    return v


def fd_gradient(f, x, h=None):
    """Central-difference gradient of a scalar field, componentwise O(h^2).

    Default h = 1e-5 * max(1, ||x||_inf).
    """
    x = as_vector(x)
    if h is None:
        h = _default_h(x, 1e-5)
    if h <= 0:
        raise ValueError("h must be positive")
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (_eval(f, x + e) - _eval(f, x - e)) / (2.0 * h)
    return g


def fd_hessian(f, x, h=None):
    """Second-order central stencil Hessian, symmetrized by averaging.

    Default h = 1e-4 * max(1, ||x||_inf).
    """
    x = as_vector(x)
    if h is None:
        h = _default_h(x, 1e-4)
    if h <= 0:
        raise ValueError("h must be positive")
    n = x.size
    H = np.empty((n, n))
    f0 = _eval(f, x)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        H[i, i] = (_eval(f, x + ei) - 2.0 * f0 + _eval(f, x - ei)) / (h * h)
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h
            H[i, j] = (
                _eval(f, x + ei + ej)
                - _eval(f, x + ei - ej)
                - _eval(f, x - ei + ej)
                + _eval(f, x - ei - ej)
            ) / (4.0 * h * h)
            H[j, i] = H[i, j]
    return symmetrize(H)


def third_directional(f, x, v, h=None):
    """Third directional derivative d^3/dt^3 f(x + t v) at t = 0.

    Central difference in t of the second central difference of f along v,
    which collapses to the 4-point stencil
    (f(x+2hv) - 2 f(x+hv) + 2 f(x-hv) - f(x-2hv)) / (2 h^3).
    Requires ||v|| = 1. Default h = 1e-4 * max(1, ||x||_inf).
    """
    x = as_vector(x)
    v = as_vector(v)
    if v.size != x.size:
        raise ValueError("direction and point dimensions differ")
    if abs(np.linalg.norm(v) - 1.0) > 1e-9:
        raise ValueError("direction must be a unit vector")
    if h is None:
        h = _default_h(x, 1e-4)
    if h <= 0:
        raise ValueError("h must be positive")
    return (
        _eval(f, x + 2.0 * h * v)
        - 2.0 * _eval(f, x + h * v)
        + 2.0 * _eval(f, x - h * v)
        - _eval(f, x - 2.0 * h * v)
    ) / (2.0 * h ** 3)
