"""Monte Carlo analyses: basin measurement, degeneracy sampling, error bounds.

Batched descent runs all samples in lockstep through the optimizer's single
descent engine, with per-sample regularization state, so basin fractions over
thousands of starts stay cheap. Each row evolves exactly as the sequential run
from the same start would, and leaves the working set when it terminates.
The PL error check solves all its shifted minimizers in one batched Newton call
and classifies them in one batched call.
"""

import numpy as np

from .critical import (
    DEDUP_RADIUS,
    DEFAULT_ZERO_TAU,
    LOCAL_MIN,
    STRATUM_NEGATIVE,
    STRATUM_POSITIVE,
    _as_box,
    _distinct_rows,
    _grid_seeds,
    classify_point,
    newton_root,
    solve_gradient_equation,
)
from .linalg import NumericalError, as_vector, sym_eigen
from .objectives import make_regularized
from .optimizer import _descend


def run_gd_batch(f, x0_batch, cfg):
    """Run many descent trajectories in lockstep; returns per-row outcomes.

    cfg.theta > 0 regularizes every row, theta = 0 is plain descent; a batch
    that mixes the two, as `mlp-compare` runs, calls the engine with theta per
    row. Every row ends exactly as the sequential run from the same start with
    the same gamma does (the same engine runs both). Result dict keys: final
    (m, n), status (m,), entered (m,), closed (m,), and the final grad_norm
    (m,) and iteration k (m,). `entered` marks rows whose run opened at least one
    regularization event, `closed` rows whose first event finished (the
    iterate left the small-gradient region again).
    """
    X = np.atleast_2d(np.asarray(x0_batch, dtype=float))
    if X.shape[1] != f.dim:
        raise ValueError("sample dimension mismatch")
    if cfg.gamma is None:
        raise ValueError("batched runs need an explicit gamma")
    return _descend(f, X, cfg, float(cfg.gamma))


def sample_in_box(rng, box, n_samples, exclude=None):
    """Uniform samples over a box, rejecting points where `exclude` is true; each of
    at most 1,000 rounds draws as many candidates as samples are still missing."""
    box = np.asarray(box, dtype=float)
    out = np.empty((n_samples, box.shape[0]))
    filled = 0
    for _ in range(1000):
        need = n_samples - filled
        if need == 0:
            break
        cand = rng.uniform(box[:, 0], box[:, 1], size=(need, box.shape[0]))
        if exclude is not None:
            cand = cand[~exclude(cand)]
        out[filled:filled + len(cand)] = cand
        filled += len(cand)
    if filled < n_samples:
        raise ValueError("exclusion rejected too many samples")
    return out


def sample_in_region(rng, region, n_samples):
    """Uniform samples over the inside cells of a region grid."""
    return sample_in_box(rng, region.box, n_samples, lambda points: ~region.contains_point(points))


def stable_set_fraction(f, target, box=None, n_samples=2000, *, cfg, seed=0, exclude=None):
    """Fraction of uniform starts whose descent ends within 0.01 of the target.

    `target` is either a point or a callable mapping a batch of final points
    (m, n) to distances (m,), which lets callers measure convergence to a
    critical subspace. cfg.theta > 0 runs the regularized algorithm, theta = 0
    plain descent. `exclude` removes a sampling subset (e.g. a thin strip
    around a basin boundary).
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    box = _as_box(f, box)
    rng = np.random.default_rng(seed)
    X0 = sample_in_box(rng, box, n_samples, exclude=exclude)
    out = run_gd_batch(f, X0, cfg)
    final = out["final"]
    if callable(target):
        dist = np.asarray(target(final), dtype=float)
    else:
        dist = np.linalg.norm(final - as_vector(target), axis=1)
    with np.errstate(invalid="ignore"):
        hits = dist <= 1e-2
    return float(np.count_nonzero(hits)) / n_samples


def escape_fraction(f, x0_batch, cfg):
    """Fraction of regularized runs (cfg.theta > 0) whose first small-gradient
    excursion closes."""
    out = run_gd_batch(f, x0_batch, cfg)
    entered = out["entered"]
    if not entered.any():
        return 0.0
    return float(np.count_nonzero(out["closed"] & entered)) / int(np.count_nonzero(entered))


def _sphere_direction(rng, dim):
    while True:
        v = rng.standard_normal(dim)
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            return v / norm


# Most rows of one Newton call in milnor_sample, which stacks whole draws. The bound
# is for peak RSS: `analyze --milnor 200` peaks at 39.3 MB with its 9,800 rows in one
# call, and at 37.6 MB, as with one call per draw, in blocks of at most 1,024 rows.
MILNOR_BLOCK_ROWS = 1024


def milnor_sample(f, box=None, n_l=500, l_scale=1.0, seed=0, l_min=0.0, grid_density=7):
    """Fraction of random linear shifts whose critical points stay near-singular.

    Draws regularizers uniformly from the ball of radius `l_scale` (or the
    annulus [l_min, l_scale]), finds all critical points of the shifted
    objective in the box, and flags a draw when any of them has
    min |lambda| <= DEFAULT_ZERO_TAU * max(1, |lambda|_max). Almost every draw should
    produce only non-singular Hessians, so the returned fraction is a
    statistical check that the shift restores strictness. Each draw's search is
    find_critical_points's on make_regularized(f, l), bit for bit, in Newton blocks.
    """
    if n_l < 1:
        raise ValueError("n_l must be at least 1")
    if not (l_scale > 0.0 and 0.0 <= l_min <= l_scale):
        raise ValueError(f"need 0 <= l_min <= l_scale and l_scale > 0, got {l_min}, {l_scale}")
    box = _as_box(f, box)
    rng = np.random.default_rng(seed)
    n = f.dim
    L = np.empty((n_l, n))
    for i in range(n_l):
        u = rng.uniform(0.0, 1.0)
        radius = (l_min ** n + u * (l_scale ** n - l_min ** n)) ** (1.0 / n)
        L[i] = radius * _sphere_direction(rng, n)
    seeds = _grid_seeds(box, grid_density)
    k = len(seeds)
    draws = max(1, MILNOR_BLOCK_ROWS // k)  # whole draws per Newton call
    points, kept = [], []  # per draw, its distinct critical points in the box, and their rows
    for first in range(0, n_l, draws):
        shifts = np.repeat(L[first:first + draws], k, axis=0)
        X, ok = newton_root(f, np.tile(seeds, (len(shifts) // k, 1)), shifts)
        kept.append(_distinct_rows(X.reshape(-1, k, n), ok.reshape(-1, k), box, DEDUP_RADIUS))
        points.append(X[kept[-1].ravel()])  # within a draw, never across
    eig = np.abs(sym_eigen(f.hessian(np.concatenate(points))).eigenvalues)
    flat = eig.min(axis=1) <= DEFAULT_ZERO_TAU * np.maximum(1.0, eig.max(axis=1))
    owners = np.concatenate(kept).nonzero()[0]  # the draw of each point
    return len(set(owners[flat].tolist())) / n_l


def pl_error_check(f, xstar, theta, n_l=200, seed=0):
    """Largest value increase of the shifted minimizer over `n_l` regularizers.

    Draws regularizers with norm at most theta (every other draw sits exactly
    on the sphere of radius theta so the bound's supremum is probed), Newton
    solves grad f(x) + l = 0 to 1e-10 from `xstar` for all draws in one batch, and
    returns the maximum of f(x_l) - f(xstar). When f satisfies the
    Polyak-Lojasiewicz inequality with constant c on the region, the result is
    bounded by theta^2 / (2 c).
    """
    if n_l < 1:
        raise ValueError("n_l must be at least 1")
    if not 0.0 <= theta < np.inf:
        raise ValueError(f"theta must be finite and non-negative, got {theta}")
    xstar = as_vector(xstar)
    if classify_point(f, xstar).classification != LOCAL_MIN:
        raise ValueError("xstar must be a local minimum")
    rng = np.random.default_rng(seed)
    L = np.empty((n_l, f.dim))
    for i in range(n_l):
        radius = theta if i % 2 == 0 else rng.uniform(0.0, theta)
        L[i] = radius * _sphere_direction(rng, f.dim)
    X, ok = newton_root(f, np.tile(xstar, (n_l, 1)), L, tol=1e-10)
    # the first failing row decides the error; rows past the first unconverged one
    # are never classified
    n_ok = n_l if ok.all() else int(np.argmin(ok))
    if any(rep.stratum != STRATUM_POSITIVE for rep in classify_point(f, X[:n_ok])):
        raise NumericalError("shifted critical point left the positive-definite stratum")
    if n_ok < n_l:
        raise NumericalError("Newton solve for the shifted minimizer failed")
    return max(0.0, float(np.max(f.value(X))) - float(f.value(xstar)))


def psi_witness_check(f, region, x0, max_seeds=200):
    """Search the region for a point where grad f = -grad f(x0) outside the
    strictly indefinite stratum.

    Such a point witnesses that choosing the regularizer l = grad f(x0) would
    plant a minimum or degenerate critical point of the shifted objective
    inside the region (a false minimum the descent could fall into). Newton
    solves to 1e-9 from at most `max_seeds` evenly strided inside cell centers;
    each solution is classified under DEFAULT_ZERO_TAU. Returns the witness's
    report, or None when every solution is a strict saddle or none exists.
    """
    if max_seeds < 1:
        raise ValueError("max_seeds must be at least 1")
    x0 = as_vector(x0)
    if not region.contains_point(x0):
        raise ValueError("x0 must lie inside the region")
    l = f.gradient(x0)
    centers = region.inside_cell_centers()
    stride = -(-len(centers) // max_seeds)  # ceiling: at most max_seeds seeds
    solutions = solve_gradient_equation(f, -l, centers[::stride], tol=1e-9, box=region.box)
    inside = solutions[region.contains_point(solutions)]
    for rep in classify_point(make_regularized(f, l), inside):
        if rep.stratum != STRATUM_NEGATIVE:
            return rep
    return None
