import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from saddlereg import (
    STATUS_DIVERGED,
    STRATUM_NEGATIVE,
    NumericalError,
    OptimizerConfig,
    corpus,
    escape_fraction,
    find_critical_points,
    get_objective,
    make_objective,
    make_regularized,
    milnor_sample,
    pl_error_check,
    psi_witness_check,
    quadratic_bowl,
    run_gd_batch,
    run_plain_gd,
    run_regularized_gd,
    sample_in_box,
    sample_in_region,
    stable_set_fraction,
    theta_region,
)
from saddlereg import sampling
from saddlereg.critical import newton_root
from saddlereg.sampling import _sphere_direction

from oracles import milnor_per_draw


def test_batch_matches_sequential_runs():
    f = get_objective("cubic_valley")
    rng = np.random.default_rng(42)
    X0 = rng.uniform(-2, 2, size=(15, 2))
    cfg = OptimizerConfig(gamma=0.15, theta=0.5, eps_converge=1e-6, max_iters=1500)
    out = run_gd_batch(f, X0, cfg)
    for i, x0 in enumerate(X0):
        rec = run_regularized_gd(f, x0, cfg, record_stride=10 ** 9)
        np.testing.assert_array_equal(rec.final_x, out["final"][i])
        assert rec.status == out["status"][i]
    out_p = run_gd_batch(f, X0, dataclasses.replace(cfg, theta=0.0))
    for i, x0 in enumerate(X0[:5]):
        rec = run_plain_gd(f, x0, cfg, record_stride=10 ** 9)
        np.testing.assert_array_equal(rec.final_x, out_p["final"][i])


# gradient 1e150 * x: a step with gamma around 1e160 leaves the finite numbers
_STIFF = make_objective(
    "stiff_quadratic", 1,
    value=lambda x: 0.5e150 * np.asarray(x, dtype=float)[..., 0] ** 2,
    gradient=lambda x: 1e150 * np.asarray(x, dtype=float),
    hessian=lambda x: np.full(np.shape(x) + (1,), 1e150),
    domain_box=[[-2.0, 2.0]],
)
_OBJECTIVES = [entry.objective for entry in corpus()] + [_STIFF]


@st.composite
def _descent_cases(draw):
    f = draw(st.sampled_from(_OBJECTIVES))
    m = draw(st.integers(1, 4))
    # starts reach past the domain box so that some runs diverge at once
    X0 = np.array([[draw(st.floats(1.5 * float(lo), 1.5 * float(hi)))
                    for lo, hi in f.domain_box] for _ in range(m)])
    cfg = OptimizerConfig(
        gamma=draw(st.one_of(st.floats(1e-3, 0.7), st.sampled_from([1e160, 1e300]))),
        theta=draw(st.one_of(st.just(0.0), st.floats(1e-2, 5.0))),
        eps_converge=draw(st.floats(1e-10, 1e-3)),
        max_iters=draw(st.integers(1, 200)),
        escape_radius=draw(st.floats(0.5, 20.0)),
    )
    return f, X0, cfg


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(case=_descent_cases(), regularize=st.booleans())
@example(case=(_STIFF, np.array([[1.0]]), OptimizerConfig(gamma=1e160, max_iters=10)),
         regularize=False)
def test_batch_rows_equal_sequential_runs(case, regularize):
    f, X0, cfg = case
    run = run_regularized_gd if regularize else run_plain_gd
    if not regularize:
        cfg = dataclasses.replace(cfg, theta=0.0)
    out = run_gd_batch(f, X0, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # drawn gammas may exceed 1 / lipschitz_hint
        recs = [run(f, x0, cfg, record_stride=10 ** 9) for x0 in X0]
    for i, rec in enumerate(recs):
        assert out["final"][i].tobytes() == rec.final_x.tobytes()
        assert out["status"][i] == rec.status


def test_batch_requires_explicit_gamma():
    f = get_objective("cubic_valley")
    with pytest.raises(ValueError):
        run_gd_batch(f, np.zeros((3, 2)), OptimizerConfig(theta=0.5))


def test_sample_in_box_exclusion_and_determinism():
    box = np.array([[-2.0, 2.0], [-2.0, 2.0]])
    exclude = lambda X: np.abs(X[:, 0]) < 0.5
    a = sample_in_box(np.random.default_rng(9), box, 500, exclude=exclude)
    b = sample_in_box(np.random.default_rng(9), box, 500, exclude=exclude)
    np.testing.assert_array_equal(a, b)
    assert np.all(np.abs(a[:, 0]) >= 0.5)
    assert np.all((a >= -2) & (a <= 2))


def test_stable_set_bowl_full_basin():
    bowl = quadratic_bowl(1.0)
    cfg = OptimizerConfig(gamma=0.5, theta=0.0, eps_converge=1e-9, max_iters=300)
    frac = stable_set_fraction(bowl, [0.0, 0.0], n_samples=200, cfg=cfg, seed=1)
    assert frac == 1.0


@pytest.mark.parametrize("n_samples", [0, -3])
def test_stable_set_rejects_empty_sample(n_samples):
    f = get_objective("cubic_valley")
    cfg = OptimizerConfig(gamma=0.15, theta=0.5, eps_converge=1e-6, max_iters=10)
    with pytest.raises(ValueError, match="n_samples"):
        stable_set_fraction(f, [0.0, 0.0], n_samples=n_samples, cfg=cfg)


def test_stable_set_valley_half_basin():
    # the saddle's basin under plain descent is the halfspace x > 0
    f = get_objective("cubic_valley")
    cfg = OptimizerConfig(gamma=0.15, theta=0.0, eps_converge=1e-6, max_iters=2000)
    frac = stable_set_fraction(
        f, [0.0, 0.0], box=[[-2, 2], [-2, 2]], n_samples=500, cfg=cfg, seed=5,
        exclude=lambda X: np.abs(X[:, 0]) < 0.05,
    )
    assert 0.43 <= frac <= 0.57


def test_stable_set_monkey_contrast():
    # plain descent lands on the critical line for most of the sampled square;
    # the regularized algorithm leaves it essentially always. The plain
    # fraction is below 1: starts with small x and large y cross the y-axis
    # before reaching the line (see notes/decisions.md).
    f = get_objective("monkey_line")
    dist = lambda X: np.abs(X[:, 1])
    box = [[0.5, 2.0], [0.5, 2.0]]
    cfg = OptimizerConfig(gamma=0.1, theta=0.0, eps_converge=1e-9, max_iters=3000,
                          escape_radius=15)
    frac_plain = stable_set_fraction(f, dist, box, n_samples=400, cfg=cfg, seed=2)
    cfg_reg = OptimizerConfig(gamma=0.1, theta=4.7, eps_converge=1e-9, max_iters=3000,
                              escape_radius=15)
    frac_reg = stable_set_fraction(f, dist, box, n_samples=400, cfg=cfg_reg, seed=2)
    assert frac_plain >= 0.75
    assert frac_reg <= 0.02


def test_escape_fraction_isolated_saddles():
    # nearly every start inside the region escapes it in finite time
    rng = np.random.default_rng(5)
    for name, theta, gamma in (("cubic_valley", 0.5, 0.15), ("cubic_cone", 3.0, 0.1)):
        f = get_objective(name)
        region = theta_region(f, np.zeros(2), theta, resolution=200)
        X0 = sample_in_region(rng, region, 200)
        cfg = OptimizerConfig(gamma=gamma, theta=theta, eps_converge=1e-9,
                              max_iters=5000, escape_radius=12)
        assert escape_fraction(f, X0, cfg) >= 0.95


def test_escape_monkey_closure_or_divergence():
    # the monkey surface's small-gradient component is unbounded along the
    # critical line, so some regularized runs drift to infinity inside it and
    # the norm test never registers an exit; leaving the experiment scale
    # (divergence) is the corresponding escape outcome (notes/decisions.md)
    f = get_objective("monkey_line")
    rng = np.random.default_rng(5)
    region = theta_region(f, np.zeros(2), 4.7, resolution=200)
    X0 = sample_in_region(rng, region, 220)
    # keep points that satisfy the norm test themselves, not just their cell
    X0 = X0[np.linalg.norm(f.gradient(X0), axis=1) <= 4.7][:200]
    assert len(X0) >= 150
    cfg = OptimizerConfig(gamma=0.1, theta=4.7, eps_converge=1e-9,
                          max_iters=5000, escape_radius=12)
    out = run_gd_batch(f, X0, cfg)
    entered = out["entered"]
    assert entered.all()  # starting inside the region opens an event at k=0
    escaped = out["closed"] | (out["status"] == STATUS_DIVERGED)
    assert np.count_nonzero(escaped & entered) / np.count_nonzero(entered) >= 0.95


def test_milnor_bowl_never_degenerate():
    assert milnor_sample(quadratic_bowl(1.0), n_l=50, l_scale=1.0, seed=0,
                         grid_density=5) == 0.0


def test_milnor_corpus_quick():
    f = get_objective("double_degenerate")
    assert milnor_sample(f, n_l=100, l_scale=0.5, seed=4, grid_density=21) <= 0.01
    f = get_objective("cubic_valley")
    assert milnor_sample(f, n_l=100, l_scale=1.0, seed=3, grid_density=7) <= 0.01


def test_pl_error_check_bowl():
    bowl = quadratic_bowl(1.0)
    excess = pl_error_check(bowl, [0.0, 0.0], theta=0.5, n_l=50, seed=0)
    bound = 0.5 ** 2 / 2.0
    assert excess <= bound + 1e-9
    assert excess >= 0.98 * bound  # draws on the sphere ||l|| = theta hit the bound
    bowl4 = quadratic_bowl(4.0)
    excess = pl_error_check(bowl4, [0.0, 0.0], theta=1.0, n_l=50, seed=1)
    assert excess <= 1.0 / 8.0 + 1e-9


def test_pl_zero_regularizer_zero_excess():
    # a zero shift leaves the minimizer where it is
    bowl = quadratic_bowl(1.0)
    x, ok = newton_root(bowl, [0.0, 0.0], 0.0, tol=1e-12)
    assert ok
    assert bowl.value(x) - bowl.value(np.zeros(2)) == 0.0


def test_pl_requires_minimum():
    f = get_objective("cubic_valley")
    with pytest.raises(ValueError):
        pl_error_check(f, [0.0, 0.0], theta=0.5, n_l=10, seed=0)


@pytest.mark.parametrize("theta, n_l, param", [
    (0.5, 0, "n_l"),
    (0.5, -1, "n_l"),
    (-0.5, 1, "theta"),
    (-0.5, 10, "theta"),
    (np.nan, 10, "theta"),
    (np.inf, 10, "theta"),
])
def test_pl_rejects_bad_parameters(theta, n_l, param):
    with pytest.raises(ValueError, match=param):
        pl_error_check(quadratic_bowl(1.0), [0.0, 0.0], theta=theta, n_l=n_l, seed=0)


def test_pl_error_check_never_classifies_an_unconverged_row():
    # tanh(x) + l = 0 has no root for |l| >= 1; Newton stalls near |x| = 16.7,
    # where this Hessian is NaN. The Newton failure is raised, not the Hessian's
    # ValueError from the eigensolver.
    sech2 = lambda x: 1.0 / np.cosh(np.asarray(x, dtype=float)[..., None]) ** 2
    f = make_objective(
        "log_cosh", 1,
        value=lambda x: np.log(np.cosh(np.asarray(x, dtype=float)[..., 0])),
        gradient=np.tanh,
        hessian=lambda x: np.where(np.abs(np.asarray(x)[..., None]) > 5.0, np.nan, sech2(x)),
        domain_box=[[-3.0, 3.0]],
    )
    with pytest.raises(NumericalError, match="Newton solve"):
        pl_error_check(f, [0.0], theta=2.0, n_l=4, seed=0)


def test_pl_zero_theta_zero_excess():
    assert pl_error_check(quadratic_bowl(1.0), [0.0, 0.0], theta=0.0, n_l=4, seed=0) == 0.0


def test_psi_cone_has_no_witness():
    # df/dx >= 0 on the whole region, so grad f(y) = -grad f(x0) has no solution
    f = get_objective("cubic_cone")
    region = theta_region(f, [0.0, 0.0], 3.0, resolution=200)
    assert psi_witness_check(f, region, np.array([1.5, 0.5])) is None


def test_psi_monkey_solution_is_strict_saddle():
    # grad f(-x0) = -grad f(x0) always solves the witness equation, but off the
    # line that point has a negative Hessian eigenvalue, so it never qualifies
    f = get_objective("monkey_line")
    region = theta_region(f, [0.0, 0.0], 4.7, resolution=200)
    x0 = np.array([1.5, 1.0])
    assert region.contains_point(-x0)
    from saddlereg import classify_point
    assert classify_point(f, -x0).stratum == STRATUM_NEGATIVE
    assert psi_witness_check(f, region, x0) is None


def test_psi_double_degenerate_witness():
    # x0 = -0.5 has grad f(x0) = -1.6875; the witness equation f'(y) = 1.6875
    # has a root in (0, 1/sqrt(5)) where f'' > 0: a false minimum would appear
    # there under l = grad f(x0). Root verified by bisection.
    f = get_objective("double_degenerate")
    region = theta_region(f, [1.0], 2.0, resolution=400)
    witness = psi_witness_check(f, region, np.array([-0.5]))
    assert witness is not None
    fp = lambda y: 6.0 * y * (y * y - 1.0) ** 2 - 1.6875
    a, b = 0.1, 1.0 / np.sqrt(5.0)
    for _ in range(60):
        m = 0.5 * (a + b)
        if fp(a) * fp(m) <= 0:
            b = m
        else:
            a = m
    assert witness.location[0] == pytest.approx(0.5 * (a + b), abs=1e-6)
    assert witness.classification == "local_min"
    # with probe on the other side no witness exists: grad f(x0) > 0 just left
    # of x = 1 and f'(y) = -grad f(x0) < 0 has no solution among y > 0
    region_small = theta_region(f, [1.0], 0.1, resolution=400)
    assert psi_witness_check(f, region_small, np.array([0.98])) is None


def test_psi_probe_outside_region_rejected():
    f = get_objective("cubic_cone")
    region = theta_region(f, [0.0, 0.0], 3.0, resolution=100)
    with pytest.raises(ValueError):
        psi_witness_check(f, region, np.array([3.0, 3.0]))


def test_psi_rejects_max_seeds_below_one():
    f = get_objective("cubic_cone")
    region = theta_region(f, [0.0, 0.0], 3.0, resolution=100)
    with pytest.raises(ValueError, match="max_seeds must be at least 1"):
        psi_witness_check(f, region, np.array([1.5, 0.5]), max_seeds=0)


@pytest.mark.parametrize("name, seed, theta, resolution, x0, max_seeds", [
    ("double_degenerate", [1.0], 2.0, 400, [-0.5], 200),  # 246 inside cells
    ("cubic_cone", [0.0, 0.0], 3.0, 200, [1.5, 0.5], 200),  # 8,728 inside cells
    ("cubic_cone", [0.0, 0.0], 3.0, 200, [1.5, 0.5], 7),
])
def test_psi_starts_newton_from_at_most_max_seeds(monkeypatch, name, seed, theta, resolution,
                                                  x0, max_seeds):
    f = get_objective(name)
    region = theta_region(f, seed, theta, resolution=resolution)
    seeds_seen, solve = [], sampling.solve_gradient_equation

    def spy(f, rhs, seeds, **kwargs):
        seeds_seen.append(len(seeds))
        return solve(f, rhs, seeds, **kwargs)

    monkeypatch.setattr(sampling, "solve_gradient_equation", spy)
    psi_witness_check(f, region, np.array(x0), max_seeds=max_seeds)
    assert len(seeds_seen) == 1 and 0 < seeds_seen[0] <= max_seeds


def _milnor_per_draw(f, n_l, l_scale, seed, l_min, grid_density=7, tau=1e-6, tol=1e-8):
    # the per-draw reference: one critical-point search of f + l^T x per draw
    rng = np.random.default_rng(seed)
    n = f.dim
    degenerate = 0
    for _ in range(n_l):
        u = rng.uniform(0.0, 1.0)
        radius = (l_min ** n + u * (l_scale ** n - l_min ** n)) ** (1.0 / n)
        l = radius * _sphere_direction(rng, n)
        reports = find_critical_points(make_regularized(f, l), f.domain_box,
                                       grid_density=grid_density, tol=tol, tau=tau)
        for rep in reports:
            eig = np.abs(rep.eigenvalues)
            if eig.min() <= tau * max(1.0, eig.max()):
                degenerate += 1
                break
    return degenerate / n_l


@pytest.mark.parametrize("name", [entry.objective.name for entry in corpus()])
@pytest.mark.parametrize("l_scale", [1e-9, 1e-2, 1.0])
@pytest.mark.parametrize("l_min", [0.0, 0.1])
def test_milnor_stacked_equals_per_draw_searches(name, l_scale, l_min):
    f = get_objective(name)
    if l_min > l_scale:
        with pytest.raises(ValueError, match="l_min"):
            milnor_sample(f, n_l=25, l_scale=l_scale, l_min=l_min, seed=5)
        return
    # 25 draws of a 7 x 7 grid span two Newton blocks, of 20 and 5 draws
    assert (milnor_sample(f, n_l=25, l_scale=l_scale, l_min=l_min, seed=5)
            == _milnor_per_draw(f, 25, l_scale, 5, l_min))


# the four objectives with a non-strict critical point, with shifts small enough that
# some draws stay degenerate
@pytest.mark.parametrize("name, l_scale", [("cubic_valley", 1e-12), ("cubic_cone", 1e-10),
                                           ("monkey_line", 1e-7), ("double_degenerate", 1e-12)])
# the domain box, and a box that leaves out the origin and ends at the root x = 1
@pytest.mark.parametrize("seed, box", [(6, None), (7, [0.05, 1.0])])
def test_milnor_equals_one_search_per_draw(name, l_scale, seed, box):
    # 30 draws are two Newton blocks of the 7 x 7 grid (20 and 10 draws) and one block
    # of the 7 seeds on the line, each deduplicated in lockstep
    f = get_objective(name)
    box = None if box is None else [box] * f.dim
    expected = milnor_per_draw(f, 30, l_scale, seed, box=box)
    if box is None:
        assert 0.0 < expected < 1.0
    assert milnor_sample(f, box=box, n_l=30, l_scale=l_scale, seed=seed) == expected


@pytest.mark.parametrize("block_rows", [1, 30, 100])
def test_milnor_block_size_does_not_change_the_fraction(monkeypatch, block_rows):
    # blocks of one draw, of a few draws and of draws cut short by n_l; with
    # l_scale tiny most shifted critical points stay degenerate
    f = get_objective("double_degenerate")
    expected = _milnor_per_draw(f, 40, 1e-9, 2, 0.0, grid_density=9)
    assert 0.0 < expected
    monkeypatch.setattr(sampling, "MILNOR_BLOCK_ROWS", block_rows)
    assert milnor_sample(f, n_l=40, l_scale=1e-9, seed=2, grid_density=9) == expected


def test_milnor_rejects_grid_density_below_one():
    f = get_objective("cubic_valley")
    with pytest.raises(ValueError, match="grid_density"):
        milnor_sample(f, n_l=5, grid_density=0)


@pytest.mark.parametrize("l_min", [-0.1, 1.5, float("nan")])
def test_milnor_rejects_l_min_outside_zero_to_l_scale(l_min):
    with pytest.raises(ValueError, match="l_min"):
        milnor_sample(get_objective("cubic_valley"), n_l=5, l_scale=1.0, l_min=l_min)


@pytest.mark.parametrize("l_scale", [0.0, -1.0, float("nan")])
def test_milnor_rejects_nonpositive_l_scale(l_scale):
    with pytest.raises(ValueError, match="l_scale"):
        milnor_sample(get_objective("cubic_valley"), n_l=5, l_scale=l_scale)


def test_milnor_rejects_infinite_l_scale():
    # an infinite radius finds no root, so every draw would read "not degenerate"
    with pytest.raises(ValueError, match="l_scale < inf"):
        milnor_sample(get_objective("cubic_valley"), n_l=5, l_scale=np.inf)


# The paper's escape claim over the planar corpus's four non-strict critical sets:
# from starts outside the small-gradient region, no regularized run ends within
# 1e-2 of the set, while plain runs from the same starts do, so the check can fail.
# A start already inside the region is outside the claim: its k = 0 entry freezes
# l = grad f(x0), which is nearly 0 near the set.
@pytest.mark.parametrize("seed", range(100, 105))
@pytest.mark.parametrize("name, theta, distance", [
    ("cubic_valley", 0.5, lambda X: np.linalg.norm(X, axis=1)),
    ("cubic_cone", 3.0, lambda X: np.linalg.norm(X, axis=1)),
    ("monkey_line", 4.7, lambda X: np.abs(X[:, 1])),
    ("double_degenerate", 0.5, lambda X: np.abs(np.abs(X[:, 0]) - 1.0)),
])
def test_regularized_runs_escape_each_non_strict_set(name, theta, distance, seed):
    f = get_objective(name)
    X0 = sample_in_box(np.random.default_rng(seed), f.domain_box, 300,
                       exclude=lambda X: np.linalg.norm(f.gradient(X), axis=1) <= theta)
    cfg = OptimizerConfig(gamma=0.5 / f.lipschitz_hint, theta=theta, eps_converge=1e-6,
                          max_iters=3000)
    regularized = distance(run_gd_batch(f, X0, cfg)["final"])
    plain = distance(run_gd_batch(f, X0, dataclasses.replace(cfg, theta=0.0))["final"])
    assert np.count_nonzero(regularized <= 1e-2) == 0
    assert np.count_nonzero(plain <= 1e-2) > 0


@pytest.mark.parametrize("call, match", [
    (lambda: run_gd_batch(get_objective("cubic_valley"), np.zeros((3, 3)),
                          OptimizerConfig(gamma=0.1)), "sample dimension mismatch"),
    (lambda: sample_in_box(np.random.default_rng(0), [[-1.0, 1.0]], 5,
                           exclude=lambda X: np.ones(len(X), dtype=bool)),
     "exclusion rejected too many samples"),
    (lambda: milnor_sample(get_objective("cubic_valley"), n_l=0), "n_l must be at least 1"),
], ids=["batch_dimension", "exclude_everything", "no_draws"])
def test_sampler_rejection_is_named(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_pl_error_check_rejects_a_shifted_point_off_the_positive_stratum():
    # Newton solves x + l = 0 in one step; the hand-built Hessian is +1 near the origin,
    # so 0 is a minimum, and -1 at |x| >= 0.1, where every draw of norm theta lands
    f = make_objective(
        "kinked", 1,
        value=lambda x: 0.5 * np.asarray(x, dtype=float)[..., 0] ** 2,
        gradient=lambda x: np.array(x, dtype=float),
        hessian=lambda x: np.where(np.abs(np.asarray(x, dtype=float))[..., None] < 0.1, 1.0, -1.0),
    )
    with pytest.raises(NumericalError, match="left the positive-definite stratum"):
        pl_error_check(f, [0.0], theta=0.5, n_l=4, seed=0)
