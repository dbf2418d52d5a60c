"""Critical-point location and classification.

Classification is by the sign pattern of Hessian eigenvalues under a relative zero
tolerance tau: an eigenvalue counts as zero when |lambda| <= tau * max(1, |lambda|_max).
Strata record the sign of the smallest eigenvalue; the classification refines that into
minimum, strict saddle, maximum, or non-strict/degenerate. Every critical-point solve is
one call of `newton_root(f, x0, shift)`, which runs a whole batch of starts in lockstep
and evaluates only the rows still running.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .linalg import _det_and_solve, _norms, as_vector, sym_eigen

logger = logging.getLogger(__name__)

# sign of the smallest Hessian eigenvalue
STRATUM_POSITIVE = "min_eig_positive"
STRATUM_ZERO = "min_eig_zero"
STRATUM_NEGATIVE = "min_eig_negative"

LOCAL_MIN = "local_min"
STRICT_SADDLE = "strict_saddle"
NON_STRICT_OR_DEGENERATE = "non_strict_or_degenerate"
LOCAL_MAX = "local_max"

DEFAULT_ZERO_TAU = 1e-6
# Newton's tolerance and the radius within which two roots count as one; every
# critical-point search reads both, so a Milnor draw's is find_critical_points's
NEWTON_TOL = 1e-8
DEDUP_RADIUS = 1e-4


@dataclass
class CriticalPointReport:
    location: np.ndarray
    grad_norm: float
    eigenvalues: np.ndarray  # ascending
    stratum: str
    classification: str


def classify_eigenvalues(eigenvalues, tau=DEFAULT_ZERO_TAU):
    """Map ascending eigenvalues (n,) to (stratum, classification), or each row of a
    stack (m, n) to a pair of string arrays (m,)."""
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    zero = tau * np.maximum(1.0, np.max(np.abs(eigenvalues), axis=-1))
    lo, hi = eigenvalues[..., 0], eigenvalues[..., -1]
    stratum = np.select([lo > zero, lo < -zero], [STRATUM_POSITIVE, STRATUM_NEGATIVE],
                        STRATUM_ZERO)
    classification = np.select([lo > zero, hi < -zero, (lo < -zero) & (hi > zero)],
                               [LOCAL_MIN, LOCAL_MAX, STRICT_SADDLE], NON_STRICT_OR_DEGENERATE)
    if eigenvalues.ndim == 1:
        return str(stratum), str(classification)
    return stratum, classification


def classify_point(f, x, tau=DEFAULT_ZERO_TAU):
    """Classify a point (n,) of an objective by its Hessian eigenvalues, or every row
    of a batch (m, n) with one gradient, one Hessian and one eigensolver call.

    Returns a report for a point and a list of reports for a batch, each equal bit
    for bit to the single point's. The gradient norm is reported as-is; callers
    decide whether the point is close enough to critical for the label to be
    meaningful.
    """
    X = np.array(x, dtype=float)
    if X.ndim != 2:
        X = as_vector(X)
    elif not np.all(np.isfinite(X)):
        raise ValueError("points have non-finite entries")
    if X.shape[-1] != f.dim or not 0.0 <= tau < np.inf:
        raise ValueError(f"need points of dimension {f.dim} and 0 <= tau < inf, got "
                         f"dimension {X.shape[-1]} and tau {tau}")
    grad_norm = _norms(f.gradient(X))
    eigenvalues = sym_eigen(f.hessian(X)).eigenvalues
    stratum, classification = classify_eigenvalues(eigenvalues, tau)
    if X.ndim == 1:
        return CriticalPointReport(X, float(grad_norm), eigenvalues, stratum, classification)
    return [CriticalPointReport(*row) for row in zip(
        X, grad_norm.tolist(), eigenvalues, stratum.tolist(), classification.tolist())]


def newton_root(f, x0, shift, tol=NEWTON_TOL, max_steps=50):
    """Damped Newton on f.gradient(x) + shift = 0 with Jacobian f.hessian(x), from one
    start (n,) or every row of a batch (m, n) in lockstep; `shift` is (n,) or (m, n).

    After the first call both evaluators get only the rows still running. Each step solves
    its stack of Newton systems in one `_det_and_solve` call, closed form for n <= 2. It
    tries the full Newton step on every row, then the dampings 2^-1..2^-10 in one stacked
    gradient call on the rows it did not improve; each row takes the largest damping whose
    gradient norm decreases, the one halving from 1 would stop at. No decrease at any
    damping or a non-finite step, which a singular system gives, ends the row; so does a
    failed full step on a row below `tol`. Full steps polish rows past `tol`, bringing a
    degenerate root's seeds together. Returns (x, converged), converged = gradient norm
    below tol or zero; per row for a batch, each row equal bit for bit to its single start.
    """
    X = np.atleast_2d(np.array(x0, dtype=float))
    if X.ndim != 2 or not np.all(np.isfinite(X)):
        raise ValueError(f"starts must be a finite (m, n) array, got shape {X.shape}")
    S = np.broadcast_to(np.asarray(shift, dtype=float), X.shape)
    with np.errstate(all="ignore"):
        G = f.gradient(X) + S
        gn = _norms(G)
        running = np.isfinite(gn)
        for _ in range(max_steps):
            rows = (running & (gn != 0.0)).nonzero()[0]
            if not rows.size:
                break
            D = _det_and_solve(f.hessian(X[rows]), -G[rows])[1]  # a singular row is non-finite
            rows, D = rows[ok := np.isfinite(D).all(axis=1)], D[ok]
            running[:] = False  # rows run on only when their damped step improves
            if not rows.size:
                break
            trial = X[rows] + D  # the full step
            G_trial = f.gradient(trial) + S[rows]
            hit = (gn_trial := _norms(G_trial)) < gn[rows]  # NaN and inf fail: gn[rows] is finite
            done = rows[hit]
            X[done], G[done], gn[done] = trial[hit], G_trial[hit], gn_trial[hit]
            running[done] = True
            rows, D = rows[miss := ~hit & (gn[rows] >= tol)], D[miss]  # below tol: no dampings
            if not rows.size:
                continue
            # 2^-1..2^-10 stacked (rows, dampings, n) for the rows the full step did not improve
            trial = X[rows, None] + 2.0 ** -np.arange(1.0, 11.0)[:, None] * D[:, None]
            G_trial = f.gradient(trial.reshape(-1, X.shape[1]))
            G_trial = G_trial.reshape(trial.shape) + S[rows, None]
            ok = (gn_trial := _norms(G_trial)) < gn[rows, None]
            hit, k = ok.any(axis=1), ok.argmax(axis=1)  # the largest improving damping
            done, k = rows[hit], k[hit]
            X[done], G[done], gn[done] = trial[hit, k], G_trial[hit, k], gn_trial[hit, k]
            running[done] = True
    converged = (gn < tol) | (gn == 0.0)
    return (X, converged) if np.ndim(x0) == 2 else (X[0], bool(converged[0]))


def _as_box(f, box):
    """`box`, or f's domain box for None, as rows [lo, hi] of positive finite width."""
    box = np.asarray(f.domain_box if box is None else box, dtype=float).reshape(-1, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        widths = box[:, 1] - box[:, 0]
    if not np.all((widths > 0) & np.isfinite(widths)):
        raise ValueError("box lower bounds must be below upper bounds by a finite width")
    return box


def _grid_seeds(box, grid_density):
    if grid_density < 1:
        raise ValueError(f"grid_density must be at least 1, got {grid_density}")
    axes = [np.linspace(lo, hi, grid_density) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def solve_gradient_equation(f, rhs, seeds, tol=NEWTON_TOL, box=None):
    """Multistart damped Newton solve of grad f(x) = rhs, all seeds in one batch.

    Returns the deduplicated solutions (k, n) (within DEDUP_RADIUS, the earliest
    seed's kept), restricted to `box` when given, in lexicographic row order.
    """
    X, ok = newton_root(f, np.atleast_2d(seeds), -as_vector(rhs), tol=tol)
    logger.debug("solve_gradient_equation: %d seeds skipped (no convergence)", np.sum(~ok))
    return _distinct_in_box(X, ok, box, DEDUP_RADIUS)


def _distinct_in_box(X, ok, box, dedup_radius):
    """Rows of X flagged `ok` in `box` (1e-9 margin) and not within `dedup_radius` of
    an earlier such row, as an array (k, n) in lexicographic row order."""
    solutions = sorted(X[_distinct_rows(X[None], ok[None], box, dedup_radius)[0]], key=tuple)
    return np.reshape(solutions, (-1, X.shape[1]))


def _distinct_rows(X, ok, box, dedup_radius):
    """Mask (g, k) of the rows _distinct_in_box keeps of each group of X (g, k, n), in lockstep."""
    if box is not None:
        box, margin = np.asarray(box, dtype=float), 1e-9
        ok = ok & np.all((X >= box[:, 0] - margin) & (X <= box[:, 1] + margin), axis=-1)
    live, kept, groups = ok.copy(), np.zeros_like(ok), np.arange(len(X))
    while live.any():
        first = live.argmax(axis=1)  # each group keeps its first live row (none when spent)
        kept[groups, first] |= live[groups, first]
        live &= _norms(X - X[groups, first, None]) > dedup_radius  # and drops those near it
    return kept


def find_critical_points(f, box=None, grid_density=10, tol=NEWTON_TOL, tau=DEFAULT_ZERO_TAU):
    """Locate and classify all critical points of `f` inside `box`.

    Damped Newton iteration on grad f = 0 is seeded from every node of a
    `grid_density`-per-axis grid; converged points with gradient norm below
    `tol` are deduplicated at DEDUP_RADIUS and classified by Hessian
    eigenvalues under `tau`. Seeds that hit a singular Newton system are skipped.
    """
    box = _as_box(f, box)
    points = solve_gradient_equation(f, np.zeros(f.dim), _grid_seeds(box, grid_density), tol, box)
    return classify_point(f, points, tau)
