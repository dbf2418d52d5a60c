import csv
import json

import numpy as np
import pytest

from saddlereg import (
    MODE_REGULARIZED,
    STATUS_CONVERGED,
    STATUS_DIVERGED,
    STATUS_NUMERICAL_FAILURE,
    OptimizerConfig,
    get_objective,
    make_regularized,
    quadratic_bowl,
    run_plain_gd,
    run_regularized_gd,
    spectral_norm,
)
from saddlereg.cli import write_json


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


@pytest.mark.parametrize("field", ["gamma", "theta", "eps_converge", "escape_radius"])
def test_config_rejects_nan(field):
    # NaN fails every comparison, so it must not slip past the range checks
    with pytest.raises(ValueError, match=field):
        OptimizerConfig(**{field: float("nan")})


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
