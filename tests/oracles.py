"""Finite-difference oracles for the exact derivatives the library computes.

Central-difference gradients, Hessians and third directional derivatives of a
scalar field, evaluated one point at a time. The tests compare the closed-form
and backpropagated derivatives against them; nothing in the library uses them.
"""

import numpy as np

from saddlereg.linalg import NumericalError, as_vector, symmetrize


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
