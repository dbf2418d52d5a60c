import csv
import dataclasses
import json
import signal

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from saddlereg import (
    MODE_REGULARIZED,
    STATUS_CONVERGED,
    STATUS_DIVERGED,
    STATUS_MAX_ITERS,
    STATUS_NUMERICAL_FAILURE,
    MlpSpec,
    OptimizerConfig,
    corpus,
    escape_fraction,
    get_objective,
    init_params,
    make_blobs,
    make_objective,
    make_regularized,
    mlp_objective,
    quadratic_bowl,
    run_gd_batch,
    run_plain_gd,
    run_regularized_gd,
    spectral_norm,
)
from saddlereg.cli import write_json
from saddlereg.linalg import _norms
from saddlereg.optimizer import _descend

from oracles import descend_one


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(gamma=-0.1)
    with pytest.raises(ValueError):
        OptimizerConfig(theta=-1.0)
    with pytest.raises(ValueError):
        OptimizerConfig(theta=1e-9, eps_converge=1e-8)  # theta must exceed eps
    with pytest.raises(ValueError):
        OptimizerConfig(max_iters=0)
    OptimizerConfig(theta=0.0, eps_converge=1e-8)  # theta=0 disables regularization


@pytest.mark.parametrize("field", ["gamma", "theta", "eps_converge", "max_iters",
                                   "escape_radius"])
def test_config_rejects_nan(field):
    # NaN fails every comparison, so it must not slip past the range checks
    with pytest.raises(ValueError, match=field):
        OptimizerConfig(**{field: float("nan")})


def test_config_rejects_infinite_theta():
    # as the CLI's `--theta inf` is rejected; every gradient norm would count as inside
    with pytest.raises(ValueError, match="theta must be finite"):
        OptimizerConfig(theta=float("inf"))


@pytest.mark.parametrize("value", [float("inf"), 2.5, 10.0, True])
def test_config_rejects_max_iters_that_is_not_an_integer(value):
    # `k >= max_iters` never holds for NaN or inf, so the run would not stop
    with pytest.raises(ValueError, match="max_iters"):
        OptimizerConfig(max_iters=value)


def test_config_accepts_numpy_integer_max_iters():
    assert OptimizerConfig(max_iters=np.int64(7)).max_iters == 7


def test_plain_descent_into_nonstrict_saddle():
    # from x > 0 the valley's flow converges to the degenerate saddle at the origin
    f = get_objective("cubic_valley")
    cfg = OptimizerConfig(theta=0.0, eps_converge=1e-6, max_iters=20_000)
    rec = run_regularized_gd(f, [1.5, 0.5], cfg)  # theta=0: regularization disabled
    assert rec.status == STATUS_CONVERGED
    assert rec.grad_norms[-1] < 1e-6
    assert np.linalg.norm(rec.final_x) < 2e-3
    assert rec.events == []


def test_cone_event_and_escape():
    f = get_objective("cubic_cone")
    cfg = OptimizerConfig(gamma=0.05, theta=3.0, eps_converge=1e-8, max_iters=2000)
    rec = run_regularized_gd(f, [1.5, 0.5], cfg)
    assert len(rec.events) == 1
    ev = rec.events[0]
    np.testing.assert_array_equal(ev.l, [2.5, 1.5])  # l = grad f(x0) exactly
    assert ev.k_entry == 0  # start already inside the small-gradient region
    assert ev.k_exit is not None and ev.k_exit <= 50
    post = [x for k, x in zip(rec.ks, rec.iterates) if k >= ev.k_exit]
    assert any(x[0] < 0 for x in post)


def test_bowl_converges_to_shifted_minimum():
    bowl = quadratic_bowl(1.0)
    cfg = OptimizerConfig(theta=0.5, eps_converge=1e-8, max_iters=5000)
    rec = run_regularized_gd(bowl, [2.0, 0.0], cfg)
    assert rec.status == STATUS_CONVERGED
    ev = rec.events[0]
    np.testing.assert_allclose(rec.final_x, -ev.l, atol=1e-7)
    # value increase against the unregularized minimum is bounded by theta^2/2
    assert rec.final_value - 0.0 <= 0.5 ** 2 / 2.0 + 1e-12


def test_plain_monkey_converges_to_critical_line():
    f = get_objective("monkey_line")
    cfg = OptimizerConfig(gamma=0.05, theta=0.0, eps_converge=1e-9, max_iters=30_000)
    with pytest.warns(UserWarning):  # gamma 0.05 is above 1/L for this objective
        rec = run_plain_gd(f, [1.5, 1.0], cfg)
    assert abs(rec.final_x[1]) < 1e-3


def test_plain_valley_diverges_from_negative_x():
    f = get_objective("cubic_valley")
    cfg = OptimizerConfig(gamma=0.15, theta=0.0, eps_converge=1e-8, max_iters=5000)
    rec = run_plain_gd(f, [-0.5, 0.0], cfg)
    assert rec.status == STATUS_DIVERGED


def test_start_at_critical_point_converges_immediately():
    f = get_objective("double_degenerate")
    cfg = OptimizerConfig(theta=0.1, eps_converge=1e-8, max_iters=100)
    for x0 in ([0.0], [1.0], [-1.0]):
        rec = run_regularized_gd(f, x0, cfg)
        assert rec.status == STATUS_CONVERGED
        assert rec.n_iters == 0


def test_prefix_equality_until_threshold():
    f = get_objective("cubic_cone")
    cfg = OptimizerConfig(gamma=0.05, theta=3.0, eps_converge=1e-8, max_iters=2000)
    x0 = [2.5, 1.5]  # starts outside the small-gradient region
    plain = run_plain_gd(f, x0, cfg)
    reg = run_regularized_gd(f, x0, cfg)
    k_first = next(k for k, gn in zip(plain.ks, plain.grad_norms) if gn <= 3.0)
    assert k_first > 0
    for k, xp, xr in zip(plain.ks, plain.iterates, reg.iterates):
        if k > k_first:
            break
        np.testing.assert_array_equal(xp, xr)
    # and they must differ afterwards (the regularizer kicks in)
    assert not np.array_equal(plain.final_x, reg.final_x)


def test_event_norm_bound():
    # every sampled regularizer satisfies ||l|| <= theta
    cfg = OptimizerConfig(gamma=0.1, theta=1.0, eps_converge=1e-8, max_iters=3000)
    rng = np.random.default_rng(2)
    f = get_objective("cubic_valley")
    for _ in range(20):
        rec = run_regularized_gd(f, rng.uniform(-2, 2, 2), cfg)
        for ev in rec.events:
            assert np.linalg.norm(ev.l) <= 1.0 + 1e-15


def test_monotone_descent_on_active_potential():
    # f_l decreases along any segment with fixed mode and l when gamma <= 1/Lhat
    f = get_objective("cubic_cone")
    cfg = OptimizerConfig(gamma=0.05, theta=3.0, eps_converge=1e-8, max_iters=2000)
    rec = run_regularized_gd(f, [1.5, 0.5], cfg)
    ev = rec.events[0]
    fl = make_regularized(f, ev.l)
    seg = [x for k, x in zip(rec.ks, rec.iterates) if ev.k_entry <= k < ev.k_exit]
    lhat = max(spectral_norm(f.hessian(x)) for x in seg)
    assert cfg.gamma <= 1.0 / lhat
    vals = [fl.value(x) for x in seg]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_hessian_trace_identical_under_regularization():
    f = get_objective("cubic_cone")
    cfg = OptimizerConfig(gamma=0.05, theta=3.0, eps_converge=1e-8, max_iters=2000)
    rec = run_regularized_gd(f, [1.5, 0.5], cfg)
    fl = make_regularized(f, rec.events[0].l)
    for x in rec.iterates[:10]:
        np.testing.assert_array_equal(f.hessian(x), fl.hessian(x))


def test_numerical_failure_is_distinct_from_divergence():
    f = get_objective("cubic_valley")
    cfg = OptimizerConfig(gamma=1e308, theta=0.0, eps_converge=1e-8, max_iters=10)
    with pytest.warns(UserWarning):  # gamma far above 1/L
        rec = run_plain_gd(f, [1.5, 0.5], cfg)
    assert rec.status == STATUS_NUMERICAL_FAILURE
    assert np.all(np.isfinite(rec.final_x))


def test_record_stride_decimation():
    f = quadratic_bowl(1.0)
    cfg = OptimizerConfig(gamma=0.1, theta=0.0, eps_converge=1e-10, max_iters=500)
    rec = run_plain_gd(f, [2.0, 1.0], cfg, record_stride=7)
    assert rec.stride == 7
    assert all(k % 7 == 0 for k in rec.ks[:-1])
    assert rec.ks[-1] == rec.n_iters  # final iterate always stored
    np.testing.assert_array_equal(rec.iterates[-1], rec.final_x)


@pytest.mark.parametrize("run", [run_plain_gd, run_regularized_gd])
@pytest.mark.parametrize("stride", [0, -1, float("nan"), 2.5, True])
def test_record_stride_that_is_not_a_positive_integer_is_rejected(run, stride):
    # 0 divided by zero, NaN indexed past the record, and -1, 2.5 and True ran quietly
    cfg = OptimizerConfig(gamma=0.1, theta=0.5, max_iters=5)
    with pytest.raises(ValueError, match="record_stride"):
        run(quadratic_bowl(), [2.0, 1.0], cfg, record_stride=stride)


def test_grad_norms_match_stored_iterates():
    f = get_objective("cubic_cone")
    cfg = OptimizerConfig(gamma=0.05, theta=3.0, eps_converge=1e-8, max_iters=2000)
    rec = run_regularized_gd(f, [1.5, 0.5], cfg)
    for x, gn in zip(rec.iterates, rec.grad_norms):
        assert gn == pytest.approx(float(np.linalg.norm(f.gradient(x))), abs=0)


def test_trajectory_json_roundtrip(tmp_path):
    f = get_objective("cubic_cone")
    cfg = OptimizerConfig(gamma=0.05, theta=3.0, eps_converge=1e-8, max_iters=2000)
    rec = run_regularized_gd(f, [1.5, 0.5], cfg)
    path = tmp_path / "traj.json"
    write_json(path, rec)
    data = json.loads(path.read_text())
    assert data["status"] == rec.status
    np.testing.assert_array_equal(data["final_x"], rec.final_x)
    assert data["final_value"] == rec.final_value
    assert data["events"][0]["k_exit"] == rec.events[0].k_exit


def test_trajectory_csv_format(tmp_path):
    f = get_objective("cubic_cone")
    cfg = OptimizerConfig(gamma=0.05, theta=3.0, eps_converge=1e-8, max_iters=2000)
    rec = run_regularized_gd(f, [1.5, 0.5], cfg)
    path = tmp_path / "traj.csv"
    rec.save_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "x0", "x1", "grad_norm", "mode", "event_id"]
    assert len(rows) - 1 == len(rec.ks)
    last = rows[-1]
    np.testing.assert_allclose([float(last[1]), float(last[2])], rec.final_x)
    # regularized rows reference their event
    reg_rows = [r for r in rows[1:] if r[4] == MODE_REGULARIZED]
    assert reg_rows and all(r[5] == "0" for r in reg_rows)


def test_explicit_gamma_above_lipschitz_warns():
    f = get_objective("cubic_valley")  # lipschitz_hint = 6 on its box
    cfg = OptimizerConfig(gamma=0.5, theta=0.0, eps_converge=1e-8, max_iters=5)
    with pytest.warns(UserWarning):
        run_plain_gd(f, [0.1, 0.1], cfg)


_NET_SPEC = MlpSpec((2, 8, 8, 2))
_NET = mlp_objective(_NET_SPEC, make_blobs(25, 2, 2, 1.0, seed=0))


@st.composite
def _mixed_theta_batches(draw):
    """A batch whose rows carry their own theta, at least one of them 0."""
    m = draw(st.integers(2, 6))
    if draw(st.integers(0, 2)) == 2:  # the 2-8-8-2 net beside the 5 corpus objectives
        f = _NET
        X0 = np.array([init_params(_NET_SPEC, draw(st.integers(0, 2 ** 16))) for _ in range(m)])
        gamma = draw(st.sampled_from([0.5, 2.0, 80.0]))
        thetas = [draw(st.sampled_from([0.04, 0.5])) for _ in range(m - 1)]
        cfg = OptimizerConfig(eps_converge=1e-10, max_iters=draw(st.integers(1, 60)),
                              escape_radius=draw(st.sampled_from([1e6, 3.0])))
    else:
        f = draw(st.sampled_from([entry.objective for entry in corpus()]))
        # starts reach past the domain box so that some rows diverge at once
        X0 = np.array([[draw(st.floats(1.5 * float(lo), 1.5 * float(hi)))
                        for lo, hi in f.domain_box] for _ in range(m)])
        gamma = draw(st.floats(1e-3, 0.7))
        thetas = [draw(st.floats(1e-2, 5.0)) for _ in range(m - 1)]
        cfg = OptimizerConfig(eps_converge=draw(st.floats(1e-10, 1e-3)),
                              max_iters=draw(st.integers(1, 200)),
                              escape_radius=draw(st.floats(0.5, 20.0)))
    theta = np.array(draw(st.permutations([0.0] + thetas)))
    return f, X0, cfg, gamma, theta


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=_mixed_theta_batches())
# both rows start with a zero gradient, which is <= every theta, 0 included
@example(case=(quadratic_bowl(), np.zeros((2, 2)), OptimizerConfig(), 0.5, np.array([0.0, 0.5])))
def test_mixed_theta_batch_rows_equal_single_runs(case):
    f, X0, cfg, gamma, theta = case
    seen = []
    out = _descend(f, X0, cfg, gamma, lambda *args: seen.append(args[-1]), theta=theta)
    # the observer gets the original row ids of the working set, which only shrinks
    assert all(np.isin(later, earlier).all() for earlier, later in zip(seen, seen[1:]))
    for i, th in enumerate(theta):
        one = _descend(f, X0[i:i + 1], dataclasses.replace(cfg, theta=th), gamma)
        assert out["final"][i].tobytes() == one["final"][0].tobytes()
        assert out["grad_norm"][i].tobytes() == one["grad_norm"][0].tobytes()
        for key in ("k", "status", "entered", "closed"):
            assert out[key][i] == one[key][0], key
        if th == 0.0:
            assert not out["entered"][i]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=_mixed_theta_batches())
# row 0 starts inside the region and its first step leaves the escape ball,
# row 1 diverges on plain steps, row 2 meets an infinite gradient at k = 0
@example(case=(quadratic_bowl(), np.array([[0.1, 0.0], [100.0, 100.0], [np.inf, 0.0], [0.0, 0.0]]),
               OptimizerConfig(max_iters=20), 100.0, np.array([0.5, 0.0, 0.5, 0.0])))
def test_observer_sees_every_row_through_its_last_step(case):
    f, X0, cfg, gamma, theta = case
    ks, last, insides = ([[] for _ in X0] for _ in range(3))

    def observe(k, X, G, gn, inside, rows):
        for j, i in enumerate(rows):
            ks[i].append(k)
            insides[i].append(bool(inside[j]))
            last[i] = (X[j].copy(), gn[j])

    out = _descend(f, X0, cfg, gamma, observe, theta=theta)
    for i in range(len(X0)):
        assert ks[i] == list(range(out["k"][i] + 1))
        x, gn = last[i]
        assert x.tobytes() == out["final"][i].tobytes()
        assert gn.tobytes() == out["grad_norm"][i].tobytes()
        if out["status"][i] in (STATUS_DIVERGED, STATUS_NUMERICAL_FAILURE):
            # a halting row keeps its region state on its last step
            assert insides[i][-1] == ([False] + insides[i])[-2]


# Ties between halt causes. The step from (1, 1) lands on the bowl's minimum
# at k = 1 = max_iters: converged outranks max_iters. The step from (1e50, 0)
# leaves the escape ball at k = 1, where the gradient norm overflows to inf:
# diverged outranks the non-finite gradient.
_CONVERGES_AT_MAX_ITERS = (quadratic_bowl(), np.array([[1.0, 1.0]]), OptimizerConfig(max_iters=1),
                           1.0, np.array([0.0]))
_DIVERGES_TO_INFINITE_GRADIENT = (get_objective("cubic_valley"), np.array([[1e50, 0.0]]),
                                  OptimizerConfig(), 1.0, np.array([0.0]))


@pytest.mark.parametrize("case, status, grad_norm", [
    (_CONVERGES_AT_MAX_ITERS, STATUS_CONVERGED, 0.0),
    (_DIVERGES_TO_INFINITE_GRADIENT, STATUS_DIVERGED, np.inf),
])
def test_halt_cause_ties(case, status, grad_norm):
    f, X0, cfg, gamma, theta = case
    out = _descend(f, X0, cfg, gamma, theta=theta)
    assert (out["status"][0], out["k"][0], out["grad_norm"][0]) == (status, 1, grad_norm)


def test_only_a_step_with_a_non_finite_entry_halts_as_numerical_failure():
    # the plane's gradient is finite everywhere, so only the step test (cause 5) sees the
    # non-finite entries; (1e308, 1e308) steps to itself, a row whose plain sum overflows
    plane = make_objective("plane", 2, lambda x: np.sum(x, axis=-1), np.ones_like,
                           lambda x: np.zeros(np.shape(x) + (2,)))
    bad = [np.where(np.arange(2) == c, v, 0.0) for c in range(2)
           for v in (np.inf, -np.inf, np.nan)]
    out = _descend(plane, bad + [[1e308, 1e308]], OptimizerConfig(), 1.0)
    assert out["status"].tolist() == [STATUS_NUMERICAL_FAILURE] * 6 + [STATUS_DIVERGED]
    assert out["k"].tolist() == [0] * 6 + [1]


# Rows whose halt the engine's step screen must flag, each in a batch beside ordinary
# rows. The first objective is x0^2 / 2, flat along x1; a row tagged x1 > 0 meets
# `trap` in place of the gradient once x0 < 0, and the ordinary rows have x1 <= 0.
# gamma 1.5 flips the sign of x0 on every plain step, and a row that starts inside
# the region steps by g + l = 2 g. The tagged row is row 0, and it halts at k = 1
# unless noted.
def _trapped(trap):
    def gradient(x):
        x = np.asarray(x, dtype=float)
        g0 = np.where((x[..., 0] < 0.0) & (x[..., 1] > 0.0), trap, x[..., 0])
        return np.stack([g0, np.zeros_like(g0)], axis=-1)

    return make_objective("trapped", 2, lambda x: 0.5 * np.asarray(x)[..., 0] ** 2, gradient,
                          lambda x: np.zeros(np.shape(x) + (2,)))


# On the second, a tagged row that starts inside the region freezes l = (-1e154, 0);
# its first step (2e154 * gamma = 2) lands where the gradient (1.5e154, 0) has an
# overflowing norm while g + l = (5e153, 0) stays finite and short, so neither sn nor
# reach flags it. Only the region test does: gn = inf fails gn <= theta, for theta =
# inf too once theta is capped at the largest float.
def _cancelling():
    def gradient(x):
        x = np.asarray(x, dtype=float)
        g0 = np.where(x[..., 1] > 0.0, np.where(x[..., 0] < 1.0, -1e154, 1.5e154), x[..., 0])
        return np.stack([g0, np.zeros_like(g0)], axis=-1)

    return make_objective("cancelling", 2, lambda x: np.zeros(np.shape(x)[:-1]), gradient,
                          lambda x: np.zeros(np.shape(x) + (2,)))


def _beside_ordinary(f, tagged, max_iters, gamma, theta):
    X0 = np.array([tagged, [1.0, 0.0], [-2.0, -1.0], [0.2, 0.0]])
    return f, X0, OptimizerConfig(max_iters=max_iters), gamma, np.array([theta, 0.0, 0.5, 0.5])


_INSIDE_ROW_TURNS_NAN = _beside_ordinary(_trapped(np.nan), [0.1, 1.0], 40, 1.5, 0.5)
# no other row halts or changes region at k = 1: only the NaN step norm flags the step
_PLAIN_ROW_TURNS_NAN = _beside_ordinary(_trapped(np.nan), [1.0, 1.0], 40, 1.5, 0.0)
# finite entries of 1e200, whose norm overflows
_INSIDE_ROW_NORM_OVERFLOWS = _beside_ordinary(_trapped(1e200), [0.1, 1.0], 40, 1.5, 0.5)
# converges at k = 3 = max_iters, where the other rows stop on max_iters
_CONVERGES_AT_MAX_ITERS_IN_A_BATCH = _beside_ordinary(quadratic_bowl(), [6e-8, 0.0], 3, 0.5, 0.0)
_INSIDE_ROW_CANCELS = _beside_ordinary(_cancelling(), [0.0, 1.0], 5, 1e-154, 1e300)
_INSIDE_ROW_CANCELS_AT_INFINITE_THETA = _beside_ordinary(_cancelling(), [0.0, 1.0], 5, 1e-154,
                                                         np.inf)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=_mixed_theta_batches())
@example(case=_CONVERGES_AT_MAX_ITERS)
@example(case=_DIVERGES_TO_INFINITE_GRADIENT)
@example(case=_INSIDE_ROW_TURNS_NAN)
@example(case=_PLAIN_ROW_TURNS_NAN)
@example(case=_INSIDE_ROW_NORM_OVERFLOWS)
@example(case=_CONVERGES_AT_MAX_ITERS_IN_A_BATCH)
@example(case=_INSIDE_ROW_CANCELS)
@example(case=_INSIDE_ROW_CANCELS_AT_INFINITE_THETA)
def test_batch_rows_equal_the_reference_loop(case):
    f, X0, cfg, gamma, theta = case
    out = _descend(f, X0, cfg, gamma, theta=theta)
    for i, th in enumerate(theta):
        final, gn, k, status, entered, closed = descend_one(f, X0[i], cfg, gamma, th)
        assert out["final"][i].tobytes() == final.tobytes()
        assert out["grad_norm"][i].tobytes() == gn.tobytes()
        assert (out["k"][i], out["status"][i], out["entered"][i], out["closed"][i]) == (
            k, status, entered, closed)


# A batch with no regularized row and no observer screens its steps on sums of squares
# and takes exact norms only on the steps the screen flags. On a plane the gradient a is
# constant, and an eps_converge one ulp above its norm makes every row converge at k = 0,
# while at the norm itself or one ulp below no row does.
def _plane(a):
    n = len(a)
    # the engine reads only the gradient; a zero value keeps entries of 1e308 from overflowing
    return make_objective("plane", n, lambda x: np.zeros(np.shape(x)[:-1]),
                          lambda x: np.zeros_like(x) + a, lambda x: np.zeros(np.shape(x) + (n,)),
                          domain_box=np.array([[-1.0, 1.0]] * n))


def _plane_batch(a, eps, gamma, max_iters, starts):
    cfg = OptimizerConfig(eps_converge=float(eps), max_iters=max_iters, escape_radius=1e6)
    return (_plane(np.asarray(a, dtype=float)), np.array(starts, dtype=float), cfg, gamma,
            np.zeros(len(starts)))


def _just_above_the_norm(a):
    return np.nextafter(_norms(np.asarray(a, dtype=float)), np.inf)


@st.composite
def _level_planes(draw):
    n = draw(st.integers(1, 6))
    a = np.array([draw(st.floats(-10.0, 10.0)) for _ in range(n)]) * draw(
        st.sampled_from([1e-170, 1e-3, 1.0, 1e150]))
    # one ulp either side of the gradient norm, or the norm itself
    eps = np.nextafter(_norms(a), draw(st.sampled_from([np.inf, -np.inf, _norms(a)])))
    assume(eps > 0.0)
    starts = [[draw(st.floats(-2.0, 2.0)) for _ in range(n)]
              for _ in range(draw(st.integers(1, 4)))]
    return _plane_batch(a, eps, draw(st.floats(1e-3, 1.0)), draw(st.integers(1, 5)), starts)


# One row converges onto a minimum a hair inside the escape sphere, so the batch's one
# distance bound stays past its trigger and every row takes the exact tests on every step;
# gamma 1.9 makes the rows overshoot the minimum, some of them past the sphere.
def _hovering(gamma):
    p = np.array([1.0 - 2.0 ** -40, 0.0])
    well = make_objective("well", 2, lambda x: 0.5 * np.sum((x - p) ** 2, axis=-1),
                          lambda x: x - p, lambda x: np.broadcast_to(np.eye(2), np.shape(x) + (2,)),
                          domain_box=np.array([[-1.0, 1.0], [-1.0, 1.0]]))
    X0 = np.array([p + [0.0, 1e-9], *np.linspace([-1.0, -1.0], [1.0, 0.5], 11)])
    return (well, X0, OptimizerConfig(eps_converge=1e-12, max_iters=60, escape_radius=1.0),
            gamma, np.zeros(len(X0)))


def _plain(case):
    return case[:4] + (np.zeros(len(case[1])),)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(case=st.one_of(_mixed_theta_batches().map(_plain), _level_planes()))
# squares of 1e-170 underflow to 0, so the reference loop converges at k = 0 although the
# gradient norm is far above eps_converge
@example(case=_plane_batch([1e-170, 1e-170], 1e-300, 0.5, 5, [[0.0, 0.0]]))
# the sum of squares rounds above the square of eps_converge, while the norm rounds below it
@example(case=_plane_batch([-0.11915178053735453, 0.44679516497993094],
                           _just_above_the_norm([-0.11915178053735453, 0.44679516497993094]),
                           0.5, 5, [[0.0, 0.0], [0.5, -0.5]]))
# entries of 1e308, whose squares overflow, though the norm's true value is finite
@example(case=_plane_batch([1e308, 1e308], 1e-8, 1e-300, 5, [[0.0, 0.0]]))
# squares that sum to the largest float, where the norm's sum (fused, in numpy's vecdot)
# overflows: gn is inf, and only the screen's cap 2**1000 on the sums flags the step
@example(case=_plane_batch([5.153143117606645e153, 1.2377981640626829e154], 1e-8, 1e-300, 5,
                           [[0.0, 0.0]]))
@example(case=_plain(_INSIDE_ROW_TURNS_NAN))
@example(case=_plain(_beside_ordinary(_trapped(np.inf), [1.0, 1.0], 40, 1.5, 0.0)))
@example(case=_plain(_INSIDE_ROW_NORM_OVERFLOWS))
@example(case=_plain(_CONVERGES_AT_MAX_ITERS_IN_A_BATCH))
@example(case=_hovering(1.0))
@example(case=_hovering(1.9))
def test_plain_batch_rows_equal_the_reference_loop(case):
    f, X0, cfg, gamma, theta = case
    assert not theta.any()
    out = _descend(f, X0, cfg, gamma, theta=theta)
    for i in range(len(X0)):
        final, gn, k, status, entered, closed = descend_one(f, X0[i], cfg, gamma, 0.0)
        assert out["final"][i].tobytes() == final.tobytes()
        assert out["grad_norm"][i].tobytes() == gn.tobytes()
        assert (out["k"][i], out["status"][i]) == (k, status)


def test_a_plain_row_beside_an_inside_row_keeps_the_reference_loops_signed_zeros():
    # rows outside the region step by g + l with l = -0.0, which is g bit for bit:
    # -0.0 - 0.5 * -0.0 is 0.0, as in the reference loop, and l = 0.0 would leave -0.0
    f, X0, cfg, gamma, theta = _beside_ordinary(quadratic_bowl(), [1.0, -0.0], 3, 0.5, 0.0)
    out = _descend(f, X0, cfg, gamma, theta=theta)
    final = descend_one(f, X0[0], cfg, gamma, 0.0)[0]
    assert out["entered"][3] and final.tolist() == [0.125, 0.0]
    assert out["final"][0].tobytes() == final.tobytes()


# The engine tests the escape ball and the step's finiteness exactly only on steps
# where the batch's distance bound nears the sphere. On a plane whose gradient a is constant,
# a start on the ray from the box center along -a moves radially outward, so the
# bound's triangle inequality is tight; an escape radius at the reference loop's
# own distance at step K, or one ulp either side, puts the sphere where a bound
# that ignores rounding would fall short of it. The other rows start anywhere.
def _radial_plane(box, a, gamma, K, s, others=()):
    n = len(a)
    plane = make_objective("plane", n, lambda x: x @ a, lambda x: np.zeros_like(x) + a,
                           lambda x: np.zeros(np.shape(x) + (n,)), domain_box=box)
    center = np.mean(box, axis=1)
    x = center - s * a
    X0 = np.array([x, *(center + offset for offset in others)])
    for _ in range(K):
        x = x - gamma * a
    return plane, X0, gamma, K, _norms(x - center)


@st.composite
def _radial_planes(draw):
    n = draw(st.integers(1, 4))
    # a center far from the origin rounds each step on a scale above the distance
    lo = np.array([draw(st.floats(-50.0, 50.0)) for _ in range(n)]) * draw(
        st.sampled_from([1.0, 1e4]))
    box = np.stack([lo, lo + [draw(st.floats(0.5, 20.0)) for _ in range(n)]], axis=1)
    a = np.array([draw(st.floats(0.1, 10.0)) * draw(st.sampled_from([-1.0, 1.0]))
                  for _ in range(n)])
    others = [[draw(st.floats(-60.0, 60.0)) for _ in range(n)]
              for _ in range(draw(st.integers(0, 3)))]
    return _radial_plane(box, a, draw(st.floats(1e-3, 1.0)), draw(st.integers(1, 40)),
                         draw(st.floats(0.0, 30.0)), others)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=_radial_planes())
# a gradient whose squares round in the subnormal range: its norm is 3% short
@example(case=_radial_plane(np.array([[-1.0, 1.0], [-1.0, 1.0]]), np.full(2, 2.3e-162),
                            1.0, 10, 0.0))
def test_rows_at_the_escape_sphere_equal_the_reference_loop(case):
    plane, X0, gamma, K, dist = case
    for radius, k_out in ((np.nextafter(dist, 0.0), K), (dist, K + 1),
                          (np.nextafter(dist, np.inf), K + 1)):
        cfg = OptimizerConfig(gamma=gamma, eps_converge=1e-300, max_iters=K + 3,
                              escape_radius=radius)
        out = _descend(plane, X0, cfg, gamma)
        assert (out["k"][0], out["status"][0]) == (k_out, STATUS_DIVERGED)
        for i, x0 in enumerate(X0):
            final, gn, k, status, _, _ = descend_one(plane, x0, cfg, gamma, 0.0)
            assert (out["k"][i], out["status"][i]) == (k, status)
            assert out["final"][i].tobytes() == final.tobytes()
            assert out["grad_norm"][i].tobytes() == gn.tobytes()


def test_escape_ball_is_not_tested_at_k_0():
    # (30, 0) lies 30 from cubic_valley's box center, outside the radius-10 ball, yet
    # the row takes its first step and only then halts; its start's distance seeds the bound
    f = get_objective("cubic_valley")
    out = _descend(f, [[30.0, 0.0]], OptimizerConfig(gamma=0.01), 0.01)
    assert (out["k"][0], out["status"][0]) == (1, STATUS_DIVERGED)
    assert out["final"][0].tolist() == [21.0, 0.0]


# Outward steps of 1e153 reach a distance whose square overflows, so _norms gives inf,
# at k = 14; with steps of 1e307 the step to k = 18 overflows the iterate itself. A
# radius of 1e200 or inf lies past both, and the engine meets them as the reference
# loop does.
@pytest.mark.parametrize("step, radius, status, k", [
    (1e153, 1e200, STATUS_DIVERGED, 14),
    (1e153, np.inf, STATUS_MAX_ITERS, 100),
    (1e307, 1e200, STATUS_DIVERGED, 1),
    (1e307, np.inf, STATUS_NUMERICAL_FAILURE, 17),
])
def test_escape_radius_past_the_float_range(step, radius, status, k):
    plane, X0, gamma, _, _ = _radial_plane(np.array([[-1.0, 1.0]]), np.ones(1), step, 0, 0.0)
    cfg = OptimizerConfig(gamma=gamma, max_iters=100, escape_radius=radius)
    out = _descend(plane, X0, cfg, gamma)
    final, _, k_ref, status_ref, _, _ = descend_one(plane, X0[0], cfg, gamma, 0.0)
    assert (out["k"][0], out["status"][0]) == (k, status) == (k_ref, status_ref)
    assert out["final"][0].tobytes() == final.tobytes()


def test_a_batch_of_no_rows_returns_at_once():
    def timeout(signum, frame):
        raise TimeoutError("the engine did not return on an empty batch")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        f = get_objective("cubic_valley")
        out = run_gd_batch(f, np.empty((0, 2)), OptimizerConfig(gamma=0.1, max_iters=50))
        fraction = escape_fraction(f, np.empty((0, 2)),
                                   OptimizerConfig(gamma=0.1, theta=0.5, max_iters=50))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert {key: value.shape for key, value in out.items()} == {
        "final": (0, 2), "grad_norm": (0,), "k": (0,), "status": (0,), "entered": (0,),
        "closed": (0,)}
    assert fraction == 0.0


# The descent engine's contract as properties of recorded runs: random corpus
# objectives, starts in the box, gamma below 1 / lipschitz_hint, theta,
# eps_converge and max_iters.
@st.composite
def _recorded_runs(draw):
    f = draw(st.sampled_from([entry.objective for entry in corpus()]))
    x0 = np.array([draw(st.floats(float(lo), float(hi))) for lo, hi in f.domain_box])
    cfg = OptimizerConfig(gamma=draw(st.floats(0.01, 0.99)) / f.lipschitz_hint,
                          theta=draw(st.floats(1e-2, 5.0)),
                          eps_converge=draw(st.floats(1e-10, 1e-3)),
                          max_iters=draw(st.integers(1, 300)))
    return f, x0, cfg


# two events, each closed: the second entry freezes a fresh l
_REENTRY = (get_objective("cubic_valley"), np.array([0.668, -2.558]),
            OptimizerConfig(gamma=0.0955, theta=1.24, max_iters=300))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=_recorded_runs(), plain=st.booleans())
@example(case=_REENTRY, plain=False)
def test_every_step_replays_bit_for_bit(case, plain):
    # x_{k+1} = x_k - gamma (grad f(x_k) + l) inside an event, x_k - gamma grad f(x_k) outside
    f, x0, cfg = case
    rec = (run_plain_gd if plain else run_regularized_gd)(f, x0, cfg)
    assert rec.ks == list(range(len(rec.ks)))
    for x, x_next, eid in zip(rec.iterates, rec.iterates[1:], rec.event_ids):
        g = f.gradient(x)
        step = g if eid is None else g + rec.events[eid].l
        assert x_next.tobytes() == (x - cfg.gamma * step).tobytes()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=_recorded_runs())
@example(case=_REENTRY)
def test_each_event_freezes_the_entry_gradient(case):
    # the paper's selection rule: l = grad f(x_entry) exactly, so ||l|| <= theta
    f, x0, cfg = case
    rec = run_regularized_gd(f, x0, cfg)
    for ev in rec.events:
        assert ev.x_entry.tobytes() == rec.iterates[ev.k_entry].tobytes()
        assert ev.l.tobytes() == f.gradient(ev.x_entry).tobytes()
        assert np.linalg.norm(ev.l) <= cfg.theta


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=_recorded_runs())
@example(case=_REENTRY)
def test_each_event_descends_on_its_regularized_objective(case):
    # the descent lemma (Nesterov 2004, Lemma 1.2.3): inside an event every
    # step is a plain step on f + l^T x, whose Hessian is f's, so with gamma
    # below 1 / L the step cannot raise f + l^T x where its segment stays in
    # the box that L bounds the Hessian over; the slack is rounding only
    f, x0, cfg = case
    assert cfg.gamma < 1.0 / f.lipschitz_hint
    rec = run_regularized_gd(f, x0, cfg)
    lo, hi = np.asarray(f.domain_box, dtype=float).T
    for ev in rec.events:
        fl = make_regularized(f, ev.l)
        end = rec.ks[-1] if ev.k_exit is None else ev.k_exit
        for x, x_next in zip(rec.iterates[ev.k_entry:end], rec.iterates[ev.k_entry + 1:end + 1]):
            if np.all((lo <= x) & (x <= hi) & (lo <= x_next) & (x_next <= hi)):
                assert fl.value(x_next) <= fl.value(x) + 1e-12


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=_recorded_runs(), stride=st.integers(2, 40))
@example(case=_REENTRY, stride=5)
def test_strided_record_is_the_full_record_decimated(case, stride):
    f, x0, cfg = case
    full = run_regularized_gd(f, x0, cfg)
    rec = run_regularized_gd(f, x0, cfg, record_stride=stride)
    keep = [j for j, k in enumerate(full.ks) if k % stride == 0]
    if keep[-1] != len(full.ks) - 1:
        keep.append(len(full.ks) - 1)  # the final entry is always stored
    assert rec.ks == [full.ks[j] for j in keep]
    assert [x.tobytes() for x in rec.iterates] == [full.iterates[j].tobytes() for j in keep]
    for column in ("grad_norms", "modes", "event_ids"):
        assert getattr(rec, column) == [getattr(full, column)[j] for j in keep], column
    assert rec.status == full.status and rec.final_x.tobytes() == full.final_x.tobytes()
    assert [(e.k_entry, e.k_exit, e.l.tobytes()) for e in rec.events] == [
        (e.k_entry, e.k_exit, e.l.tobytes()) for e in full.events]


def _assert_local_regularization(f, x0, cfg):
    # plain and regularized runs agree bit for bit up to and including the first entry
    plain, reg = run_plain_gd(f, x0, cfg), run_regularized_gd(f, x0, cfg)
    n = reg.events[0].k_entry + 1 if reg.events else len(reg.ks)
    assert plain.ks[:n] == reg.ks[:n] == list(range(n))
    assert [x.tobytes() for x in plain.iterates[:n]] == [x.tobytes() for x in reg.iterates[:n]]
    assert np.array(plain.grad_norms[:n]).tobytes() == np.array(reg.grad_norms[:n]).tobytes()
    if not reg.events:  # never regularized: the same run throughout
        assert len(plain.ks) == n and plain.status == reg.status
        assert plain.final_x.tobytes() == reg.final_x.tobytes()


def _assert_bookkeeping(rec, theta):
    assert all(e.k_exit is not None for e in rec.events[:-1])  # only the last may be open
    for k, mode, eid in zip(rec.ks, rec.modes, rec.event_ids):
        holding = [j for j, e in enumerate(rec.events)
                   if e.k_entry <= k and (e.k_exit is None or k < e.k_exit)]
        assert holding == ([] if eid is None else [eid])
        assert (mode == MODE_REGULARIZED) == (eid is not None)
    # every iterate but the last stepped, so its mode is the selection rule's
    for gn, mode in zip(rec.grad_norms[:-1], rec.modes[:-1]):
        assert (mode == MODE_REGULARIZED) == (gn <= theta)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=_recorded_runs())
@example(case=_REENTRY)
def test_plain_and_regularized_runs_agree_through_the_first_entry(case):
    _assert_local_regularization(*case)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=_recorded_runs())
@example(case=_REENTRY)
def test_modes_and_event_ids_follow_the_events(case):
    f, x0, cfg = case
    _assert_bookkeeping(run_regularized_gd(f, x0, cfg), cfg.theta)


# the 2-8-8-2 network has no lipschitz_hint: an open last event, closed
# events, and a run that diverges after its first event
@pytest.mark.parametrize("gamma, theta, seed", [(0.5, 0.04, 0), (2.0, 0.5, 1), (80.0, 0.5, 0)])
def test_network_runs_keep_the_descent_contract(gamma, theta, seed):
    x0 = init_params(_NET_SPEC, seed)
    cfg = OptimizerConfig(gamma=gamma, theta=theta, eps_converge=1e-10, max_iters=60,
                          escape_radius=1e6)
    rec = run_regularized_gd(_NET, x0, cfg)
    assert rec.events
    for x, x_next, eid in zip(rec.iterates, rec.iterates[1:], rec.event_ids):  # step replay
        g = _NET.gradient(x)
        step = g if eid is None else g + rec.events[eid].l
        assert x_next.tobytes() == (x - gamma * step).tobytes()
    for ev in rec.events:  # selection rule
        assert ev.x_entry.tobytes() == rec.iterates[ev.k_entry].tobytes()
        assert ev.l.tobytes() == _NET.gradient(ev.x_entry).tobytes()
        assert np.linalg.norm(ev.l) <= theta
    _assert_local_regularization(_NET, x0, cfg)
    _assert_bookkeeping(rec, theta)


def test_run_rejects_a_start_of_another_dimension():
    with pytest.raises(ValueError, match="x0 has dimension 3, objective has 2"):
        run_regularized_gd(get_objective("cubic_valley"), [0.0, 0.0, 0.0], OptimizerConfig())
