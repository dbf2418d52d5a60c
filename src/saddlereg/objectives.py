"""Objective functions with analytic derivatives, and the annotated test corpus.

Every corpus entry carries analytic gradient and Hessian, a recommended
domain box, a grid-estimated Lipschitz hint for the gradient, and ground
truth annotations of its critical points. Every Objective's evaluators accept
a single point of shape (n,) or a batch of shape (..., n) natively: value,
gradient and Hessian are closed-form array expressions over leading axes, and
nothing loops over rows. `make_objective` checks that contract once, on a
two-row probe. The planar entries are built by one builder, `_planar`, from
their value, gradient and Hessian entries as expressions in the coordinates.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .critical import LOCAL_MIN, NON_STRICT_OR_DEGENERATE, _grid_seeds
from .linalg import as_vector, spectral_norm


@dataclass
class Objective:
    """A C^2 scalar field with evaluators for value, gradient, and Hessian.

    value/gradient/hessian map (..., dim) -> (...)/(..., dim)/(..., dim, dim),
    each Hessian symmetric. Objectives are immutable after construction and
    their evaluators must be pure, the optional value_and_gradient too: it
    gives (value, gradient) from one pass, bit for bit equal to the two.
    """

    name: str
    dim: int
    value: callable
    gradient: callable
    hessian: callable
    domain_box: np.ndarray  # (dim, 2) rows of [lo, hi]
    lipschitz_hint: float | None = None
    value_and_gradient: callable = None


@dataclass
class CorpusEntry:
    objective: Objective
    known_critical_points: list = field(default_factory=list)  # (location, classification)
    notes: str = ""


def make_objective(name, dim, value, gradient, hessian, domain_box=None, lipschitz_hint=None):
    """Build an Objective from evaluators that take (n,) points and (..., n) batches.

    The evaluators run once on a two-row probe, the lower and upper corners
    of the box; a ValueError names every one whose result is not shaped
    (2,), (2, n) and (2, n, n) respectively.
    """
    if domain_box is None:
        domain_box = np.repeat([[-3.0, 3.0]], dim, axis=0)
    domain_box = np.asarray(domain_box, dtype=float).reshape(dim, 2)
    probe = domain_box.T
    expected = {"value": (2,), "gradient": (2, dim), "hessian": (2, dim, dim)}
    wrong = []
    for label, fn in zip(expected, (value, gradient, hessian)):
        try:
            shape = np.shape(fn(probe))
        except (ValueError, TypeError, IndexError) as exc:
            shape = f"an error ({exc})"
        if shape != expected[label]:
            wrong.append(f"{label} gives {shape}, expected {expected[label]}")
    if wrong:
        raise ValueError(f"objective {name!r} on a (2, {dim}) batch: " + "; ".join(wrong))
    return Objective(
        name=name,
        dim=dim,
        value=value,
        gradient=gradient,
        hessian=hessian,
        domain_box=domain_box,
        lipschitz_hint=lipschitz_hint,
    )


def make_regularized(f, l):
    """Add the linear term l^T x to an objective.

    The gradient shifts by exactly l and the Hessian callable is the very
    same object as f's: linear terms do not change curvature.
    """
    l = as_vector(l)
    if l.size != f.dim:
        raise ValueError(f"regularizer has dimension {l.size}, objective has {f.dim}")

    def value(x, _f=f.value, _l=l):
        x = np.asarray(x, dtype=float)
        return _f(x) + np.sum(x * _l, axis=-1)

    def gradient(x, _g=f.gradient, _l=l):
        return _g(x) + _l

    return Objective(
        name=f"{f.name}+linear",
        dim=f.dim,
        value=value,
        gradient=gradient,
        hessian=f.hessian,
        domain_box=f.domain_box,
        lipschitz_hint=f.lipschitz_hint,
    )


def _grid_lipschitz(hessian, box):
    """Max spectral norm of the Hessian over a grid on the box (offline estimate),
    41 points per axis up to dimension 2 and 5 above."""
    box = np.asarray(box, dtype=float)
    return spectral_norm(hessian(_grid_seeds(box, 41 if box.shape[0] <= 2 else 5)))


def _planar(name, value, gradient, hessian):
    """A 2-D Objective on [-3, 3]^2 from expressions in the coordinates (u, v): the value,
    the two gradient entries and the Hessian entries (h11, h12, h22)."""

    def value_fn(x):
        x = np.asarray(x, dtype=float)
        return value(x[..., 0], x[..., 1])

    def gradient_fn(x):
        x = np.asarray(x, dtype=float)
        g = np.empty(x.shape)
        g[..., 0], g[..., 1] = gradient(x[..., 0], x[..., 1])
        return g

    def hessian_fn(x):
        x = np.asarray(x, dtype=float)
        H = np.empty(x.shape + (2,))
        H[..., 0, 0], H[..., 0, 1], H[..., 1, 1] = hessian(x[..., 0], x[..., 1])
        H[..., 1, 0] = H[..., 0, 1]
        return H

    box = [[-3.0, 3.0], [-3.0, 3.0]]
    return make_objective(
        name, 2, value_fn, gradient_fn, hessian_fn, box,
        lipschitz_hint=_grid_lipschitz(hessian_fn, box),
    )


def cubic_valley():
    """f(x, y) = x^3/3 + y^2/2, a non-strict saddle at the origin."""
    return _planar("cubic_valley", lambda u, v: u * u * u / 3.0 + v * v / 2.0,
                   lambda u, v: (u * u, v),
                   lambda u, v: (2.0 * u, np.zeros_like(u), np.ones_like(u)))


def cubic_cone():
    """f(x, y) = x^3/3 + x y^2; df/dx = x^2 + y^2 >= 0 everywhere."""
    return _planar("cubic_cone", lambda u, v: u * u * u / 3.0 + u * v * v,
                   lambda u, v: (u * u + v * v, 2.0 * u * v),
                   lambda u, v: (2.0 * u, 2.0 * v, 2.0 * u))


def monkey_line():
    """f(x, y) = x y^3 / 3, critical along the whole line y = 0."""
    return _planar("monkey_line", lambda u, v: u * (v * v * v) / 3.0,
                   lambda u, v: (v * v * v / 3.0, u * (v * v)),
                   lambda u, v: (np.zeros_like(u), v * v, 2.0 * u * v))


def double_degenerate():
    """f(x) = (x^2 - 1)^3: minimum at 0, non-strict saddles at +-1."""

    def value(x):
        x = np.asarray(x, dtype=float)
        t = x[..., 0] * x[..., 0] - 1.0
        return t * t * t

    def gradient(x):
        x = np.asarray(x, dtype=float)
        u = x[..., 0]
        t = u * u - 1.0
        return (6.0 * u * (t * t))[..., None]

    def hessian(x):
        u = np.asarray(x, dtype=float)[..., 0:1, None]
        u2 = u * u
        return 6.0 * (u2 - 1.0) * (5.0 * u2 - 1.0)

    box = [[-2.0, 2.0]]
    return make_objective(
        "double_degenerate", 1, value, gradient, hessian, box,
        lipschitz_hint=_grid_lipschitz(hessian, box),
    )


def quadratic_bowl(c=1.0, dim=2):
    """f(x) = (c/2) ||x||^2, strongly convex with PL constant exactly c."""
    if c <= 0:
        raise ValueError("curvature c must be positive")

    def value(x, _c=c):
        x = np.asarray(x, dtype=float)
        return 0.5 * _c * np.sum(x * x, axis=-1)

    def gradient(x, _c=c):
        return _c * np.asarray(x, dtype=float)

    def hessian(x, _c=c, _n=dim):
        return _c * np.broadcast_to(np.eye(_n), np.shape(x)[:-1] + (_n, _n))

    box = np.repeat([[-3.0, 3.0]], dim, axis=0)
    return make_objective(
        "quadratic_bowl", dim, value, gradient, hessian, box,
        lipschitz_hint=float(c),
    )


@lru_cache(maxsize=1)
def corpus():
    """The annotated test-function corpus. Treat entries as immutable."""
    entries = [
        CorpusEntry(
            objective=cubic_valley(),
            known_critical_points=[(np.array([0.0, 0.0]), NON_STRICT_OR_DEGENERATE)],
            notes="Hessian eigenvalues at the origin are (0, 1); the basin of the "
            "saddle under plain gradient descent is the halfspace x > 0.",
        ),
        CorpusEntry(
            objective=cubic_cone(),
            known_critical_points=[(np.array([0.0, 0.0]), NON_STRICT_OR_DEGENERATE)],
            notes="df/dx = x^2 + y^2 is non-negative everywhere, so the gradient "
            "image of any neighborhood of the origin sits in a half-space.",
        ),
        CorpusEntry(
            objective=monkey_line(),
            known_critical_points=[
                (np.array([0.0, 0.0]), NON_STRICT_OR_DEGENERATE),
                (np.array([1.0, 0.0]), NON_STRICT_OR_DEGENERATE),
                (np.array([-1.0, 0.0]), NON_STRICT_OR_DEGENERATE),
            ],
            notes="Defined as f(x, y) = x*y^3/3 with the whole line y = 0 critical; "
            "gradients are odd (grad f(-x, -y) = -grad f(x, y)), so any linear shift "
            "l = grad f(x0, y0) creates a critical point at (-x0, -y0), which has a "
            "negative Hessian eigenvalue whenever y0 != 0 (e.g. at (-1.5, -1)). "
            "Easily mislabeled as x^3/3 + x*y^2 (that surface is cubic_cone here); "
            "this corpus keeps the two distinct.",
        ),
        CorpusEntry(
            objective=double_degenerate(),
            known_critical_points=[
                (np.array([0.0]), LOCAL_MIN),
                (np.array([1.0]), NON_STRICT_OR_DEGENERATE),
                (np.array([-1.0]), NON_STRICT_OR_DEGENERATE),
            ],
            notes="Third derivative is +48 at x = 1 and -48 at x = -1, so every "
            "non-zero linear shift bifurcates one saddle into a false minimum plus "
            "a maximum and eliminates the other.",
        ),
        CorpusEntry(
            objective=quadratic_bowl(1.0, 2),
            known_critical_points=[(np.array([0.0, 0.0]), LOCAL_MIN)],
            notes="Satisfies the Polyak-Lojasiewicz inequality with constant c = 1; "
            "used as the oracle for the regularization error bound theta^2 / (2 c).",
        ),
    ]
    return entries


def corpus_names():
    return [entry.objective.name for entry in corpus()]


def get_objective(name):
    """Look up a corpus objective by name (as used by the command line)."""
    for entry in corpus():
        if entry.objective.name == name:
            return entry.objective
    raise ValueError(
        f"unknown objective {name!r}; available: {', '.join(corpus_names())}"
    )
