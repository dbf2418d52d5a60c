"""Plain and locally linearly regularized gradient descent with event logging.

The regularized run keeps the plain update x - gamma * grad f(x) while the
gradient norm exceeds theta. On the step where the norm first drops to
theta or below, the regularizer l is frozen to the gradient at that entry
point and the update becomes x - gamma * (grad f(x) + l) until the norm
exceeds theta again; each re-entry samples a fresh l. One engine, `_descend`,
advances any number of rows in lockstep, each with its own theta: the
recorded plain and regularized runs are its single-row case, and batched runs
(`sampling.run_gd_batch`, and `mlp-compare`'s plain and regularized rows side
by side) call it directly, so a batch row ends exactly where the sequential
run does. Plain and regularized iterates are bit-identical up to and
including the first iterate inside the small-gradient region.
"""

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .linalg import NumericalError, _norms, as_vector, spectral_norm

STATUS_CONVERGED = "converged"
STATUS_DIVERGED = "diverged"
STATUS_MAX_ITERS = "max_iters"
STATUS_NUMERICAL_FAILURE = "numerical_failure"

MODE_PLAIN = "plain"
MODE_REGULARIZED = "regularized"


@dataclass
class OptimizerConfig:
    """Step size, small-gradient threshold, and termination settings.

    gamma=None selects the default rule 1 / (2 * Lhat) with Lhat the spectral
    norm of the Hessian at the start point, floored at 1e-3. theta=0 disables
    regularization entirely. escape_radius is measured from the center of the
    objective's domain box.
    """

    gamma: float | None = None
    theta: float = 0.0
    eps_converge: float = 1e-8
    max_iters: int = 10_000
    escape_radius: float = 10.0

    def __post_init__(self):
        # negated comparisons, so that NaN fails every check
        if self.gamma is not None and not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if not 0.0 <= self.theta < np.inf:
            raise ValueError(f"theta must be finite and non-negative, got {self.theta}")
        if not self.eps_converge > 0:
            raise ValueError(f"eps_converge must be positive, got {self.eps_converge}")
        if self.theta > 0 and self.theta <= self.eps_converge:
            raise ValueError("theta must exceed eps_converge")
        if (not isinstance(self.max_iters, (int, np.integer)) or isinstance(self.max_iters, bool)
                or self.max_iters < 1):
            raise ValueError(f"max_iters must be an integer of at least 1, got {self.max_iters!r}")
        if not self.escape_radius > 0:
            raise ValueError(f"escape_radius must be positive, got {self.escape_radius}")


@dataclass
class RegularizationEvent:
    """One excursion into the small-gradient region: l = grad f(x_entry) exactly."""

    k_entry: int
    x_entry: np.ndarray
    l: np.ndarray
    k_exit: int | None = None


@dataclass
class TrajectoryRecord:
    """Stored iterates (every `stride`-th plus the final one) and run outcome."""

    ks: list = field(default_factory=list)
    iterates: list = field(default_factory=list)
    grad_norms: list = field(default_factory=list)
    modes: list = field(default_factory=list)
    event_ids: list = field(default_factory=list)  # index into events, or None
    events: list = field(default_factory=list)
    status: str = STATUS_MAX_ITERS
    final_x: np.ndarray | None = None
    final_value: float = float("nan")
    stride: int = 1

    @property
    def n_iters(self):
        return self.ks[-1] if self.ks else 0

    def save_csv(self, path):
        dim = len(self.final_x)
        header = ["k"] + [f"x{i}" for i in range(dim)] + ["grad_norm", "mode", "event_id"]
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\r\n")
            for k, x, gn, mode, eid in zip(
                self.ks, self.iterates, self.grad_norms, self.modes, self.event_ids
            ):
                fields = [str(k), *(repr(float(v)) for v in x), repr(float(gn)), mode,
                          "" if eid is None else str(eid)]
                fh.write(",".join(fields) + "\r\n")


def resolve_gamma(f, x0, cfg):
    """Step size for a run: the user's value, or 1 / (2 * Lhat) at the start point.

    A user-supplied gamma at or above 1 / lipschitz_hint gets a warning but is
    used as given. The default rule raises NumericalError where the Hessian at
    x0 is not finite.
    """
    if cfg.gamma is not None:
        if f.lipschitz_hint is not None and cfg.gamma >= 1.0 / f.lipschitz_hint:
            warnings.warn(
                f"gamma={cfg.gamma} is not below 1/L={1.0 / f.lipschitz_hint:.4g} "
                f"for objective {f.name}; descent may not contract",
                stacklevel=2,
            )
        return float(cfg.gamma)
    with np.errstate(all="ignore"):
        H = np.asarray(f.hessian(as_vector(x0)), dtype=float)
    if not np.all(np.isfinite(H)):
        raise NumericalError("the default gamma needs a finite Hessian at x0; pass gamma")
    lhat = max(spectral_norm(H), 1e-3)
    return 1.0 / (2.0 * lhat)


def _descend(f, X, cfg, gamma, observe=None, theta=None, *, values=False):
    """Advance the rows of X (m, n) in lockstep until each one terminates.

    theta is the small-gradient threshold per row, an (m,) array (default:
    cfg.theta for every row); theta_i > 0 alone turns row i's regularization
    on. Each row runs plain steps while its gradient norm exceeds its theta
    and, when that theta > 0, steps with l frozen to the gradient at its entry
    point while inside the region. observe(k, X, G, gn, inside, rows), when
    given, sees the working set at every iteration after the region update
    and before the step, the step a row halts at included; rows holds the
    original indices of its rows. values=True hands it f(X) as a seventh
    argument, from the gradient's own pass where f has value_and_gradient.

    A row halts at its current iterate, with the status of the first of these
    that holds: 1. it left the escape ball (diverged; never at k = 0); 2. its
    gradient is not finite (numerical_failure); 3. the active map's gradient,
    grad f + l inside the region, is below eps_converge (converged); 4. k has
    reached max_iters (max_iters); 5. its step would leave the finite numbers
    (numerical_failure). A row halting on 1 or 2 keeps its region state.

    Tests 1 and 5 run exactly only near the sphere. Per row, reach bounds the
    value _norms(X - center) returns: exact at k = 0, then (reach + gamma *
    ||S||) * g + slack per step S, with u the unit roundoff, g = 1 + 2 (n + 8) u
    and slack = 2 u sum|center| + (1 + gamma) 2**-500. The step's rounding,
    relative to center, and that of the norms it passes through (sums of n
    squares; Higham 2002, ch. 3) cost (n + 5) u of reach + gamma ||S|| and
    u ||center||; the factor 2 covers the update's own rounding, and 2**-500
    underflow. A row whose bound is at most
    min(escape_radius, 2**500) / g is inside the ball, with a finite next
    iterate and no overflowing square; only the other rows take the exact
    tests, and their exact distance resets reach.

    Every step computes gn, the region test (in a batch with a regularized
    row), S, its norm sn and reach; tests 1-4 and the statuses run only on a
    step the screen flags: a row changed region, a row is near, k = max_iters,
    or count_nonzero(sn >= eps_converge), which NaN fails, misses a row. No
    halt slips past it. A row that left the ball stays near, as reach only
    grows. A NaN gradient makes sn NaN on a row outside the region, and an
    infinite one makes reach infinite, so the row is near; on a row inside,
    any non-finite gn flips now, as theta is capped at the largest float. On
    the regularized stable-set batch a step costs about 15 us, against 17 us
    when every test ran every step.

    Returns per-row arrays: final (m, n), grad_norm, k (the iteration the row
    stopped at), status, entered (an event opened) and closed (an event ended).
    """
    X = np.array(X, dtype=float)
    m = len(X)
    theta = np.broadcast_to(cfg.theta if theta is None else theta, (m,)).astype(float)
    theta[theta == 0.0] = -np.inf  # a plain row's threshold, which no gradient norm reaches
    theta[theta == np.inf] = np.finfo(float).max  # so that gn = inf fails gn <= theta
    center = np.mean(np.asarray(f.domain_box, dtype=float), axis=1)
    out = {
        "final": np.empty_like(X),
        "grad_norm": np.empty(m),
        "k": np.empty(m, dtype=int),
        "status": np.empty(m, dtype=object),
        "entered": np.zeros(m, dtype=bool),
        "closed": np.zeros(m, dtype=bool),
    }
    if not m:
        return out
    rows = np.arange(m)
    ones = np.ones(X.shape[1])
    L = np.zeros_like(X)
    inside = np.zeros(m, dtype=bool)
    n_inside = 0
    diverged = np.zeros(m, dtype=bool)
    regularized = np.any(theta > 0.0)
    u = np.finfo(float).eps / 2  # unit roundoff
    g = 1.0 + 2 * (X.shape[1] + 8) * u
    slack = 2 * u * np.sum(np.abs(center)) + (1.0 + gamma) * 2.0 ** -500
    trigger = min(cfg.escape_radius, 2.0 ** 500) / g
    with np.errstate(all="ignore"):
        reach = np.nan_to_num(_norms(X - center), nan=np.inf)
        k = 0
        while True:
            if values:
                F, G = (f.value_and_gradient(X) if f.value_and_gradient is not None
                        else (f.value(X), f.gradient(X)))
            else:
                G = f.gradient(X)
            G = np.asarray(G, dtype=float)
            gn = _norms(G)
            flipped = False
            if regularized:
                now = gn <= theta
                flipped = np.count_nonzero(now != inside)
                if flipped:
                    # rows that halt on cause 1 or 2 keep their region state
                    held = diverged | ~np.isfinite(gn)
                    now[held] = inside[held]
                    entering = now & ~inside
                    L[entering] = G[entering]
                    out["entered"][rows[entering]] = True
                    out["closed"][rows[inside & ~now]] = True
                    inside = now
                    n_inside = np.count_nonzero(inside)
            if observe is not None:
                observe(k, X, G, gn, inside, rows, *((F,) if values else ()))

            if n_inside:
                S = np.where(inside[:, None], G + L, G)
                sn = _norms(S)
            else:
                S, sn = G, gn
            X_next = X - gamma * S
            reach = (reach + gamma * sn) * g + slack
            near = reach > trigger
            n_near = np.count_nonzero(near)
            at_max = k >= cfg.max_iters
            # the screen: a step that no clause flags halts no row (see the docstring)
            if (flipped or n_near or at_max
                    or np.count_nonzero(sn >= cfg.eps_converge) < rows.size):
                held = diverged | ~np.isfinite(gn)
                converged = sn < cfg.eps_converge
                halt = held | converged | at_max
                if n_near:
                    # x * 0.0 is NaN only where x is not finite, and a sum of zeros cannot overflow
                    halt[near] |= ~np.isfinite((X_next[near] * 0.0) @ ones)
                if np.count_nonzero(halt):
                    r = rows[halt]
                    out["final"][r] = X[halt]
                    out["grad_norm"][r] = gn[halt]
                    out["k"][r] = k
                    # the first cause that holds, in the docstring's order
                    out["status"][r] = np.where(diverged[halt], STATUS_DIVERGED, np.where(
                        held[halt], STATUS_NUMERICAL_FAILURE, np.where(
                            converged[halt], STATUS_CONVERGED,
                            STATUS_MAX_ITERS if at_max else STATUS_NUMERICAL_FAILURE)))
                    keep = ~halt
                    X_next, L, inside, theta, rows, reach, near, diverged = (
                        X_next[keep], L[keep], inside[keep], theta[keep], rows[keep],
                        reach[keep], near[keep], diverged[keep])
                    if not rows.size:
                        return out

            X = X_next
            k += 1
            if n_near:
                reach[near] = _norms(X[near] - center)
                # reach is the exact distance on near rows, and at most trigger on the others
                diverged = reach > cfg.escape_radius


def _run(f, x0, cfg, record_stride):
    """One recorded run: the engine on a single row, observed into a TrajectoryRecord."""
    x = as_vector(x0)
    if x.size != f.dim:
        raise ValueError(f"x0 has dimension {x.size}, objective has {f.dim}")
    gamma = resolve_gamma(f, x, cfg)
    rec = TrajectoryRecord(stride=record_stride)
    event_id = None  # index into rec.events while regularized

    def store(k, x, gn):
        rec.ks.append(k)
        rec.iterates.append(x.copy())
        rec.grad_norms.append(float(gn))
        rec.modes.append(MODE_PLAIN if event_id is None else MODE_REGULARIZED)
        rec.event_ids.append(event_id)

    def observe(k, X, G, gn, inside, rows):
        nonlocal event_id
        if inside[0] != (event_id is not None):
            if inside[0]:
                rec.events.append(
                    RegularizationEvent(k_entry=k, x_entry=X[0].copy(), l=G[0].copy()))
                event_id = len(rec.events) - 1
            else:
                rec.events[-1].k_exit = k
                event_id = None
        if k % record_stride == 0:
            store(k, X[0], gn[0])

    out = _descend(f, x[np.newaxis], cfg, gamma, observe)
    k = int(out["k"][0])
    if rec.ks[-1] != k:
        store(k, out["final"][0], out["grad_norm"][0])
    rec.status = out["status"][0]
    rec.final_x = out["final"][0]
    with np.errstate(all="ignore"):
        rec.final_value = float(f.value(rec.final_x))
    return rec


def run_regularized_gd(f, x0, cfg=None, record_stride=1):
    """Gradient descent with locally sampled linear regularization.

    A start point already inside the small-gradient region counts as an entry
    at k = 0, so l = grad f(x0) immediately. Convergence tests the active
    map's gradient (||grad f + l|| while regularized), so runs may converge to
    a shifted minimum of the regularized objective.
    """
    cfg = cfg or OptimizerConfig()
    return _run(f, x0, cfg, record_stride)


def run_plain_gd(f, x0, cfg=None, record_stride=1):
    """Plain gradient descent: the same engine with theta set to 0."""
    cfg = cfg or OptimizerConfig()
    return _run(f, x0, replace(cfg, theta=0.0), record_stride)
