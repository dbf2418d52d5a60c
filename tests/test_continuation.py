import numpy as np
import pytest

from saddlereg import (
    continuation_trace,
    get_objective,
    make_objective,
    make_regularized,
    quadratic_bowl,
    theta_region,
)


def test_valley_path_reaches_ancestor():
    # solutions of grad f + mu*l = 0 for l=(-1,0) are x(mu) = (sqrt(mu), 0)
    f = get_objective("cubic_valley")
    path = continuation_trace(f, [1.0, 0.0], [-1.0, 0.0], steps=100)
    assert not path.fold
    assert len(path.samples) == 101
    mus = path.mus
    assert mus[0] == 1.0 and mus[-1] == 0.0
    assert np.all(np.diff(mus) < 0)
    np.testing.assert_allclose(path.points[:, 0], np.sqrt(mus), atol=1e-4)
    np.testing.assert_allclose(path.points[:, 1], 0.0, atol=1e-12)
    assert np.linalg.norm(path.points[-1]) < 1e-3


def test_norm_law_along_path():
    # ||grad f(x(mu))|| = mu * ||l|| along the whole curve
    f = get_objective("cubic_valley")
    l = np.array([-1.0, 0.0])
    path = continuation_trace(f, [1.0, 0.0], l, steps=100)
    np.testing.assert_allclose(path.grad_norms, path.mus * np.linalg.norm(l), atol=1e-6)


def test_bowl_path_is_straight_no_fold():
    bowl = quadratic_bowl(1.0)
    l = np.array([0.4, -0.3])
    path = continuation_trace(bowl, -l, l, steps=50)
    assert not path.fold
    np.testing.assert_allclose(path.points, -np.outer(path.mus, l), atol=1e-9)
    np.testing.assert_allclose(path.points[-1], [0.0, 0.0], atol=1e-9)


def test_false_minimum_traces_back_to_saddle():
    # l = -0.01 bifurcates the saddle at x=1 into a minimum near 1.0204 and a
    # maximum near 0.9796 (roots of 6x(x^2-1)^2 = 0.01); the minimum's curve
    # ends at the degenerate ancestor x = 1, inside its own small-gradient region
    f = get_objective("double_degenerate")
    l = np.array([-0.01])
    fl = make_regularized(f, l)
    from saddlereg.critical import newton_root
    start, ok = newton_root(fl.gradient, fl.hessian, [1.02], tol=1e-12)
    assert ok and abs(start[0] - 1.0204) < 1e-3
    path = continuation_trace(f, start, l, steps=200)
    assert abs(path.points[-1][0] - 1.0) < 1e-3
    region = theta_region(f, [1.0], 0.1, resolution=400)
    assert all(region.contains_point(x) for x in path.points)


def test_containment_in_small_gradient_region():
    # with ||l|| <= theta every sample satisfies ||grad f|| = mu ||l|| <= theta,
    # so the whole curve stays in the ancestor's region component
    f = get_objective("cubic_valley")
    path = continuation_trace(f, [1.0, 0.0], [-1.0, 0.0], steps=100)
    region = theta_region(f, [0.0, 0.0], 1.0, box=[[-2, 2], [-2, 2]], resolution=401)
    assert all(region.contains_point(x) for x in path.points)


def _quintic_with_fold():
    # f' = x^4/4 + x^2/2 + 1 has no roots; with l = -2 the critical-point
    # curve x(mu) of f + mu*l*x satisfies f'(x) = 2 mu and dies in a fold at
    # mu* = f'(0)/2 = 0.5 where f'' = x^3 + x vanishes
    xv = lambda x: np.asarray(x, dtype=float)[..., 0]
    return make_objective(
        "quintic_fold", 1,
        value=lambda x: xv(x) ** 5 / 20 + xv(x) ** 3 / 6 + xv(x),
        gradient=lambda x: np.stack([xv(x) ** 4 / 4 + xv(x) ** 2 / 2 + 1.0], axis=-1),
        hessian=lambda x: (xv(x) ** 3 + xv(x))[..., None, None],
        domain_box=[[-3, 3]],
    )


def test_fold_detected_with_partial_path():
    f = _quintic_with_fold()
    x1 = np.sqrt((-2.0 + np.sqrt(20.0)) / 2.0)  # f'(x1) = 2 exactly
    path = continuation_trace(f, [x1], [-2.0], steps=100)
    assert path.fold
    assert len(path.samples) < 101
    assert path.mus[-1] >= 0.5 - 1e-9  # the curve cannot continue below mu* = 0.5


def test_start_must_be_regularized_critical_point():
    f = get_objective("cubic_valley")
    with pytest.raises(ValueError):
        continuation_trace(f, [2.0, 2.0], [-1.0, 0.0], steps=10)


def test_start_with_singular_hessian_rejected():
    f = get_objective("double_degenerate")
    with pytest.raises(ValueError):
        continuation_trace(f, [1.0], [0.0], steps=10)  # hessian vanishes at x=1


def test_rejects_bad_arguments():
    f = get_objective("cubic_valley")
    with pytest.raises(ValueError):
        continuation_trace(f, [1.0, 0.0], [-1.0], steps=10)  # dim mismatch
    with pytest.raises(ValueError):
        continuation_trace(f, [1.0, 0.0], [-1.0, 0.0], steps=0)
