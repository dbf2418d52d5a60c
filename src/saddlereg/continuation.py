"""Predictor-corrector tracking of regularized critical points back to mu = 0.

Solutions of grad f(x) + mu * l = 0 form a smooth curve through the starting
critical point of the fully regularized objective (mu = 1). Tracing mu down
to 0 identifies the unregularized ancestor: differentiating the defining
equation gives the tangent dx/dmu = -hess f(x)^{-1} l for the predictor,
and damped Newton on the shifted gradient corrects each step. A singular
Hessian along the way, or a corrector that stops converging, is the
signature of a fold (a saddle-node pair annihilating): the partial path is
returned with its stop reason. A batch of starts advances in lockstep.
"""

from dataclasses import dataclass, field

import numpy as np

from .critical import newton_root
from .linalg import _norms

COMPLETED, SINGULAR_HESSIAN, CORRECTOR_FAILED = "completed", "singular_hessian", "corrector_failed"
# a start's largest residual ||grad f(x) + l||; Newton's tolerance and step cap for
# polishing a start and for each corrector
START_SLACK, CORRECTOR_TOL, CORRECTOR_STEPS = 1e-6, 1e-9, 60


@dataclass
class ContinuationPath:
    """Samples of (mu, x, ||grad f(x)||) with mu strictly decreasing from 1."""

    samples: list = field(default_factory=list)
    stop: str = COMPLETED  # or SINGULAR_HESSIAN or CORRECTOR_FAILED

    @property
    def fold(self):
        return self.stop != COMPLETED

    @property
    def mus(self):
        return np.array([s[0] for s in self.samples])

    @property
    def points(self):
        return np.array([s[1] for s in self.samples])

    @property
    def grad_norms(self):
        return np.array([s[2] for s in self.samples])


class StartError(ValueError):
    """A start that cannot be traced; `row` is its index in the batch."""

    def __init__(self, message, row):
        super().__init__(message)
        self.row = row


def continuation_trace(f, x_at_mu1, l, steps=100, det_tol=1e-10):
    """Trace the critical-point curve of f + mu * l^T x from mu = 1 to mu = 0.

    One start (n,) gives a ContinuationPath; a batch (m, n), with l (n,) or (m, n),
    a list of them, each equal bit for bit to its row's single trace. A start must
    satisfy ||grad f(x) + l|| <= START_SLACK, polish to CORRECTOR_TOL and have a
    nonsingular Hessian, else StartError names the first bad row. A row stops early,
    `stop` saying why, when |det hess| < det_tol * max(1, ||hess||_F)^n or its
    corrector fails.
    """
    X = np.atleast_1d(np.array(x_at_mu1, dtype=float))
    L = np.atleast_1d(np.array(l, dtype=float))
    if (X.ndim > 2 or X.shape[-1] != f.dim or L.shape not in ((f.dim,), X.shape)
            or not (np.all(np.isfinite(X)) and np.all(np.isfinite(L)))):
        raise ValueError(f"starts and l must be finite, of shape ({f.dim},) or (m, {f.dim})")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    X = np.atleast_2d(X)
    L = np.broadcast_to(L, X.shape)

    def singular(H):
        scale = np.maximum(1.0, _norms(H.reshape(len(H), -1)))
        return np.abs(np.linalg.det(H)) < det_tol * scale ** f.dim

    residual = _norms(f.gradient(X) + L)
    X, polished = newton_root(f, X, L, CORRECTOR_TOL, CORRECTOR_STEPS)
    flat = singular(f.hessian(X))
    for row in range(len(X)):
        if residual[row] > START_SLACK:
            raise StartError(f"start point is not a critical point of the regularized objective "
                             f"(residual {residual[row]:.3g} > {START_SLACK:.3g})", row)
        if not polished[row]:
            raise StartError("start point could not be polished to a regularized critical "
                             "point", row)
        if flat[row]:
            raise StartError("Hessian is singular at the start point", row)

    norms = _norms(f.gradient(X))
    paths = [ContinuationPath([(1.0, x.copy(), float(g))]) for x, g in zip(X, norms)]
    live, mu_prev = np.arange(len(X)), 1.0
    for mu in np.linspace(1.0, 0.0, steps + 1)[1:]:
        H = f.hessian(X[live])
        flat = singular(H)
        for i in live[flat]:
            paths[i].stop = SINGULAR_HESSIAN
        live, H = live[~flat], H[~flat]
        if not live.size:
            break
        X_pred = X[live] + (mu - mu_prev) * np.linalg.solve(H, -L[live, :, np.newaxis])[..., 0]
        X_new, ok = newton_root(f, X_pred, mu * L[live], CORRECTOR_TOL, CORRECTOR_STEPS)
        for i in live[~ok]:
            paths[i].stop = CORRECTOR_FAILED
        X[live[ok]] = X_new[ok]
        live = live[ok]
        if not live.size:
            break
        for i, g in zip(live, _norms(f.gradient(X[live]))):
            paths[i].samples.append((float(mu), X[i].copy(), float(g)))
        mu_prev = mu
    return paths if np.ndim(x_at_mu1) == 2 else paths[0]
