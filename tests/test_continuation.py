import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from saddlereg import (
    continuation_trace,
    find_critical_points,
    get_objective,
    make_objective,
    make_regularized,
    quadratic_bowl,
    theta_region,
)
from saddlereg.continuation import (
    COMPLETED,
    CORRECTOR_FAILED,
    SINGULAR_HESSIAN,
    ContinuationPath,
    StartError,
)
from saddlereg.critical import newton_root
from saddlereg.linalg import _det_and_solve


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
    start, ok = newton_root(f, [1.02], l, tol=1e-12)
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


def _cubic_fold():
    # f' = x^3 - 3x + 3; with l = -2 the curve f'(x) = 2 mu starts at the three
    # roots of x^3 - 3x + 1: the outer left one reaches mu = 0 near x = -2.104,
    # the other two meet at x = 1, where f'' = 3x^2 - 3 vanishes, at mu = 0.5
    xv = lambda x: np.asarray(x, dtype=float)[..., 0]
    return make_objective(
        "cubic_fold", 1,
        value=lambda x: xv(x) ** 4 / 4 - 1.5 * xv(x) ** 2 + 3.0 * xv(x),
        gradient=lambda x: np.stack([xv(x) ** 3 - 3.0 * xv(x) + 3.0], axis=-1),
        hessian=lambda x: (3.0 * xv(x) ** 2 - 3.0)[..., None, None],
        domain_box=[[-3, 3]],
    )


_CUBIC_FOLD_STARTS = np.sort(np.roots([1.0, 0.0, -3.0, 1.0]).real)[:, None]


def test_stop_completed():
    f = get_objective("cubic_valley")
    path = continuation_trace(f, [1.0, 0.0], [-1.0, 0.0], steps=100)
    assert path.stop == COMPLETED and not path.fold
    assert path.mus[-1] == 0.0


def test_stop_singular_hessian():
    # the corrector lands on the fold point x = 1 at mu = 0.5; the next step's
    # Hessian check stops the row there
    path = continuation_trace(_cubic_fold(), _CUBIC_FOLD_STARTS[1], [-2.0], steps=100,
                              det_tol=1e-3)
    assert path.stop == SINGULAR_HESSIAN and path.fold
    assert path.mus[-1] == 0.5 and abs(path.points[-1][0] - 1.0) < 1e-6


def test_stop_corrector_failed():
    # a step from mu = 2/3 to 1/3 crosses the fold at mu = 0.5, where the branch dies
    path = continuation_trace(_cubic_fold(), _CUBIC_FOLD_STARTS[1], [-2.0], steps=3)
    assert path.stop == CORRECTOR_FAILED and path.fold
    assert len(path.samples) == 2
    # the quintic's fold is found by the corrector as well
    f = _quintic_with_fold()
    path = continuation_trace(f, [np.sqrt((-2.0 + np.sqrt(20.0)) / 2.0)], [-2.0], steps=100)
    assert path.stop == CORRECTOR_FAILED


def test_batch_stops_each_row_for_its_own_reason():
    paths = continuation_trace(_cubic_fold(), _CUBIC_FOLD_STARTS, [-2.0], steps=100, det_tol=1e-3)
    assert [p.stop for p in paths] == [COMPLETED, SINGULAR_HESSIAN, SINGULAR_HESSIAN]
    assert [len(p.samples) for p in paths] == [101, 51, 51]


def test_batch_names_first_bad_start():
    # row 1 is singular at its start (the Hessian of double_degenerate vanishes
    # at x = 1), row 2 is no critical point at all; the first bad row is reported
    f = get_objective("double_degenerate")
    with pytest.raises(StartError, match="singular") as err:
        continuation_trace(f, [[0.0], [1.0], [0.5]], [[0.0], [0.0], [0.0]], steps=5)
    assert err.value.row == 1
    with pytest.raises(StartError, match="not a critical point") as err:
        continuation_trace(f, [[0.0], [0.5]], [0.0], steps=5)
    assert err.value.row == 1


def test_batch_rejects_mismatched_shifts():
    f = get_objective("cubic_valley")
    with pytest.raises(ValueError):
        continuation_trace(f, [[1.0, 0.0], [2.0, 0.0]], [[-1.0, 0.0]] * 3)
    with pytest.raises(ValueError):
        continuation_trace(f, [[1.0, 0.0]], [-1.0, np.nan])


def _assert_same_path(batched, single):
    assert batched.stop == single.stop
    assert len(batched.samples) == len(single.samples)
    for (mu_b, x_b, g_b), (mu_s, x_s, g_s) in zip(batched.samples, single.samples):
        assert mu_b == mu_s and g_b == g_s
        np.testing.assert_array_equal(x_b, x_s)


def _trace_one_at_a_time(f, x, l, steps, det_tol, tol=1e-9, max_newton=60):
    # the single-start reference: one Newton call per mu step; (samples, fold)
    x, _ = newton_root(f, np.array(x, dtype=float), l, tol=tol, max_steps=max_newton)

    def singular(h):
        return abs(float(_det_and_solve(h[None], -l[None])[0][0])) < det_tol * max(
            1.0, float(np.linalg.norm(h))) ** f.dim

    samples = [(1.0, x.copy(), float(np.linalg.norm(f.gradient(x))))]
    mu_prev = 1.0
    for mu in np.linspace(1.0, 0.0, steps + 1)[1:]:
        h = np.asarray(f.hessian(x), dtype=float)
        if singular(h):
            return samples, True
        x_pred = x + (mu - mu_prev) * _det_and_solve(h[None], -l[None])[1][0]
        x, ok = newton_root(f, x_pred, mu * l, tol=tol, max_steps=max_newton)
        if not ok:
            return samples, True
        samples.append((float(mu), x.copy(), float(np.linalg.norm(f.gradient(x)))))
        mu_prev = mu
    return samples, False


_TRACE_OBJECTIVES = [_cubic_fold(), _quintic_with_fold(), get_objective("double_degenerate"),
                     get_objective("cubic_valley"), get_objective("cubic_cone"),
                     get_objective("monkey_line")]


@st.composite
def _trace_batches(draw):
    f = draw(st.sampled_from(_TRACE_OBJECTIVES))
    shifts = draw(st.lists(st.lists(st.floats(-2.5, 2.5), min_size=f.dim, max_size=f.dim),
                           min_size=1, max_size=3))
    steps = draw(st.sampled_from([1, 3, 7, 20, 50]))
    return f, [np.array(l) for l in shifts], steps, draw(st.sampled_from([1e-10, 1e-3]))


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(case=_trace_batches())
@example(case=(_cubic_fold(), [np.array([-2.0])], 100, 1e-3))
@example(case=(_cubic_fold(), [np.array([-2.0])], 3, 1e-10))
def test_batched_trace_equals_single_traces(case):
    # every branch of every shift, traced in one lockstep call, equals its own
    # single trace bit for bit, in samples and in stop reason
    f, shifts, steps, det_tol = case
    starts, rows, singles = [], [], []
    for l in shifts:
        points = [r.location for r in find_critical_points(make_regularized(f, l))]
        if f.name == "cubic_fold" and l[0] == -2.0:
            points += list(_CUBIC_FOLD_STARTS)  # rows that fold
        for x in points:
            try:
                singles.append(continuation_trace(f, x, l, steps=steps, det_tol=det_tol))
            except StartError:
                continue
            starts.append(x)
            rows.append(l)
    assume(starts)
    batched = continuation_trace(f, np.array(starts), np.array(rows), steps=steps,
                                 det_tol=det_tol)
    assert isinstance(batched, list) and len(batched) == len(singles)
    for b, s, x, l in zip(batched, singles, starts, rows):
        _assert_same_path(b, s)
        # and both equal the one-start-at-a-time loop
        samples, fold = _trace_one_at_a_time(f, x, l, steps, det_tol)
        _assert_same_path(b, ContinuationPath(samples, b.stop))
        assert b.fold == fold


def test_start_that_cannot_be_polished_is_named():
    # a gradient of 1e-7 everywhere is within START_SLACK of critical, but with a zero
    # Hessian Newton cannot bring it down to CORRECTOR_TOL
    f = make_objective(
        "tilted_flat", 1,
        value=lambda x: 1e-7 * np.asarray(x, dtype=float)[..., 0],
        gradient=lambda x: np.full(np.shape(x), 1e-7),
        hessian=lambda x: np.zeros(np.shape(x) + (1,)),
    )
    with pytest.raises(StartError, match="could not be polished") as err:
        continuation_trace(f, [[0.0], [1.0]], [0.0])
    assert err.value.row == 0
