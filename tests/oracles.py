"""Reference implementations the tests compare the library against.

Central-difference gradients, Hessians and third directional derivatives of a
scalar field, evaluated one point at a time, for the closed-form and
backpropagated derivatives; the descent algorithm for one start, written
as a plain loop, for the lockstep engine; the network's gradient with each
layer's part formed on its own and concatenated, for the gradient written into
views of one array; mlp-compare's lockstep batch with an observer that compares
twin rows at every step, for the observer that stops once every prefix settles;
damped Newton halving its damping one gradient call at a time, for the stacked
damping search; the Milnor fraction from one critical-point search per draw,
for the stacked draws; the region grid's gradient norms from one gradient
call on the whole mesh, for the grid built slab by slab; the region grid's CSV
written through `csv.writer`, for the streamed writer; and the planar corpus
entries' evaluators written out one closure each, for the builder that makes
them from coordinate expressions. Nothing in the library uses them.
"""

import csv
import itertools

import numpy as np

from saddlereg.critical import (
    DEDUP_RADIUS,
    DEFAULT_ZERO_TAU,
    NEWTON_TOL,
    _grid_seeds,
    newton_root,
)
from saddlereg.linalg import NumericalError, _det_and_solve, _norms, as_vector, symmetrize
from saddlereg.mlp import _backward, _forward, pack_params, unpack_params
from saddlereg.optimizer import (
    STATUS_CONVERGED,
    STATUS_DIVERGED,
    STATUS_MAX_ITERS,
    STATUS_NUMERICAL_FAILURE,
    _descend,
)
from saddlereg.sampling import _sphere_direction


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


def descend_one(f, x0, cfg, gamma, theta):
    """The descent algorithm from one start, one iteration at a time.

    Plain steps x - gamma * g while ||g|| > theta; from the first iterate with
    ||g|| <= theta (theta > 0 only) steps x - gamma * (g + l) with l frozen to
    that iterate's gradient, until ||g|| > theta again. The run stops at its
    current iterate on the first of: leaving the escape ball (from k = 1 on),
    a non-finite gradient, a converged active gradient, k = max_iters, and a
    step that leaves the finite numbers. Arithmetic is the engine's, row by
    row, so the results must agree bit for bit. Returns (final, grad_norm, k,
    status, entered, closed).
    """
    center = np.mean(np.asarray(f.domain_box, dtype=float), axis=1)
    x = np.array(x0, dtype=float)
    l = None  # the frozen regularizer while inside the region
    entered = closed = False
    k = 0
    with np.errstate(all="ignore"):
        while True:
            g = f.gradient(x[None])[0]
            gn = _norms(g)
            if k > 0 and _norms(x - center) > cfg.escape_radius:
                return x, gn, k, STATUS_DIVERGED, entered, closed
            if not np.isfinite(gn):
                return x, gn, k, STATUS_NUMERICAL_FAILURE, entered, closed
            if l is None and theta > 0 and gn <= theta:
                l, entered = g, True
            elif l is not None and not gn <= theta:
                l, closed = None, True
            step = g if l is None else g + l
            if _norms(step) < cfg.eps_converge:
                return x, gn, k, STATUS_CONVERGED, entered, closed
            if k >= cfg.max_iters:
                return x, gn, k, STATUS_MAX_ITERS, entered, closed
            x_next = x - gamma * step
            if not np.isfinite(x_next).all():
                return x, gn, k, STATUS_NUMERICAL_FAILURE, entered, closed
            x = x_next
            k += 1


def mlp_value_and_gradient(spec, dataset, params):
    """The network's mean cross-entropy and its gradient from one backpropagation,
    each layer's weight and bias gradient formed as an array of its own and the
    parts concatenated by pack_params."""
    X = np.ascontiguousarray(dataset.inputs.T)
    y, m = dataset.labels, len(dataset.labels)
    onehot = np.ascontiguousarray(np.eye(spec.layer_widths[-1])[y].T)
    Ws, bs = unpack_params(spec, params)
    activations, ls = _forward(Ws, bs, X)
    deltas = _backward(Ws, activations, ls, onehot)
    loss = -np.ascontiguousarray(ls[..., y, np.arange(m)]).mean(axis=-1)
    return loss, pack_params([d @ a.mT for d, a in zip(deltas, activations)],
                             [d.sum(axis=-1) for d in deltas])


def compare_every_step(f, starts, cfg):
    """mlp-compare's batch of plain rows 0..T-1 and regularized rows T..2T-1 from
    `starts`, with an observer that compares trial t's two rows at every step
    that both reach, one trial at a time, and records each row's loss and
    gradient norm at each of its steps. Trial t's prefix is equal while every
    comparison up to and including its plain row's first step with gn <= theta
    holds. Returns (k per row, loss per row, gradient norm per row, prefix
    equality per trial), the per-row values as arrays of k + 1 entries.
    """
    T = len(starts)
    loss, gnorm = [[] for _ in range(2 * T)], [[] for _ in range(2 * T)]
    equal, settled = [True] * T, [False] * T

    def observe(k, X, G, gn, inside, rows, F):
        at = {row: j for j, row in enumerate(rows.tolist())}
        for row, j in at.items():
            loss[row].append(F[j])
            gnorm[row].append(gn[j])
        for t in range(T):
            if t in at and t + T in at:
                same = bool((X[at[t]] == X[at[t + T]]).all())
                if not settled[t]:
                    equal[t] = same
                    settled[t] = not same or gn[at[t]] <= cfg.theta

    res = _descend(f, np.concatenate([starts, starts]), cfg, float(cfg.gamma), observe,
                   theta=np.repeat([0.0, cfg.theta], T), values=True)
    return (res["k"].tolist(), [np.array(v) for v in loss], [np.array(v) for v in gnorm],
            equal)


def newton_root_halving(f, x0, shift, tol=NEWTON_TOL, max_steps=50):
    """Damped Newton on f.gradient(x) + shift = 0 from a batch of starts (m, n), each
    step's damping starting at 1 and halving, one gradient call per damping, until a
    row's gradient norm decreases; no decrease at 2^-10 ends the row, and a row already
    below `tol` ends when the full step (damping 1) fails. Arithmetic is the library's,
    so (x, converged) must agree bit for bit."""
    X = np.array(x0, dtype=float)
    S = np.broadcast_to(np.asarray(shift, dtype=float), X.shape)
    with np.errstate(all="ignore"):
        G = np.asarray(f.gradient(X), dtype=float) + S
        gn = _norms(G)
        running = np.isfinite(gn)
        for _ in range(max_steps):
            rows = (running & (gn != 0.0)).nonzero()[0]
            if not rows.size:
                break
            H = np.asarray(f.hessian(X[rows]), dtype=float)
            D = _det_and_solve(H, -G[rows])[1]
            ok = np.isfinite(D).all(axis=1)
            rows, D = rows[ok], D[ok]
            running[:] = False
            lam = 1.0
            while rows.size and lam >= 2.0 ** -10:
                trial = X[rows] + lam * D
                G_trial = np.asarray(f.gradient(trial), dtype=float) + S[rows]
                gn_trial = _norms(G_trial)
                ok = gn_trial < gn[rows]
                done = rows[ok]
                X[done], G[done], gn[done] = trial[ok], G_trial[ok], gn_trial[ok]
                running[done] = True
                rows, D = rows[~ok], D[~ok]
                if lam == 1.0:  # no dampings for a row below tol
                    below = gn[rows] < tol
                    rows, D = rows[~below], D[~below]
                lam *= 0.5
    return X, (gn < tol) | (gn == 0.0)


def milnor_per_draw(f, n_l, l_scale, seed, l_min=0.0, box=None, grid_density=7):
    """milnor_sample's fraction from one Newton call per draw: the draw's roots from the
    grid seeds, kept when flagged converged, in the box (1e-9 margin) and not within
    DEDUP_RADIUS of a root kept before them, each root tested on its own Hessian."""
    box = np.asarray(f.domain_box if box is None else box, dtype=float)
    rng = np.random.default_rng(seed)
    n = f.dim
    seeds = _grid_seeds(box, grid_density)
    flagged = 0
    for _ in range(n_l):
        u = rng.uniform(0.0, 1.0)
        radius = (l_min ** n + u * (l_scale ** n - l_min ** n)) ** (1.0 / n)
        X, ok = newton_root(f, seeds, radius * _sphere_direction(rng, n))
        kept = []
        for x, ok_x in zip(X, ok):
            inside = np.all((x >= box[:, 0] - 1e-9) & (x <= box[:, 1] + 1e-9))
            if ok_x and inside and all(_norms(x - y) > DEDUP_RADIUS for y in kept):
                kept.append(x)
        for x in kept:
            eig = np.abs(np.linalg.eigvalsh(np.asarray(f.hessian(x), dtype=float)))
            if eig.min() <= DEFAULT_ZERO_TAU * max(1.0, eig.max()):
                flagged += 1
                break
    return flagged / n_l


def grad_norm_grid(f, box, resolution):
    """||grad f|| at every cell center of a region grid, from one (cells, n) mesh."""
    widths = (box[:, 1] - box[:, 0]) / resolution
    axes = [lo + (np.arange(resolution) + 0.5) * w for lo, w in zip(box[:, 0], widths)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return _norms(np.asarray(f.gradient(np.stack(mesh, axis=-1)), dtype=float))


def region_csv(grid, path):
    """A RegionGrid's CSV through `csv.writer`: one row tuple per cell, in np.ndindex order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(grid.dim)] + ["inside", "boundary"])
        # coordinate i depends on index i alone; row k is cell_center((k,) * n)
        centers = grid.cell_center(np.arange(grid.resolution)[:, None])
        rows = itertools.product(*[[repr(v) for v in col] for col in centers.T.tolist()])
        flags = zip(*(m.ravel().astype(int).tolist() for m in (grid.inside, grid.boundary)))
        writer.writerows(map(tuple.__add__, rows, flags))


PLANAR_BOX = [[-3.0, 3.0], [-3.0, 3.0]]


def _sym2(h11, h12, h22):
    """Stack the entries (...) of symmetric 2x2 matrices into (..., 2, 2)."""
    return np.stack([np.stack([h11, h12], axis=-1), np.stack([h12, h22], axis=-1)], axis=-2)


def cubic_valley():
    """(value, gradient, hessian) of f(x, y) = x^3/3 + y^2/2, on PLANAR_BOX."""

    def value(x):
        x = np.asarray(x, dtype=float)
        u, v = x[..., 0], x[..., 1]
        return u * u * u / 3.0 + v * v / 2.0

    def gradient(x):
        x = np.asarray(x, dtype=float)
        u = x[..., 0]
        return np.stack([u * u, x[..., 1]], axis=-1)

    def hessian(x):
        u = np.asarray(x, dtype=float)[..., 0]
        return _sym2(2.0 * u, np.zeros_like(u), np.ones_like(u))

    return value, gradient, hessian


def cubic_cone():
    """(value, gradient, hessian) of f(x, y) = x^3/3 + x y^2, on PLANAR_BOX."""

    def value(x):
        x = np.asarray(x, dtype=float)
        u, v = x[..., 0], x[..., 1]
        return u * u * u / 3.0 + u * v * v

    def gradient(x):
        x = np.asarray(x, dtype=float)
        u, v = x[..., 0], x[..., 1]
        return np.stack([u * u + v * v, 2.0 * u * v], axis=-1)

    def hessian(x):
        x = np.asarray(x, dtype=float)
        u, v = x[..., 0], x[..., 1]
        return _sym2(2.0 * u, 2.0 * v, 2.0 * u)

    return value, gradient, hessian


def monkey_line():
    """(value, gradient, hessian) of f(x, y) = x y^3 / 3, on PLANAR_BOX."""

    def value(x):
        x = np.asarray(x, dtype=float)
        u, v = x[..., 0], x[..., 1]
        return u * (v * v * v) / 3.0

    def gradient(x):
        x = np.asarray(x, dtype=float)
        u, v = x[..., 0], x[..., 1]
        return np.stack([v * v * v / 3.0, u * (v * v)], axis=-1)

    def hessian(x):
        x = np.asarray(x, dtype=float)
        u, v = x[..., 0], x[..., 1]
        return _sym2(np.zeros_like(u), v * v, 2.0 * u * v)

    return value, gradient, hessian


PLANAR = {"cubic_valley": cubic_valley, "cubic_cone": cubic_cone, "monkey_line": monkey_line}
