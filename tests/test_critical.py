import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from saddlereg import (
    LOCAL_MAX,
    LOCAL_MIN,
    NON_STRICT_OR_DEGENERATE,
    OptimizerConfig,
    STRATUM_NEGATIVE,
    STRATUM_POSITIVE,
    STRATUM_ZERO,
    STRICT_SADDLE,
    check_assumption_separation,
    classify_eigenvalues,
    classify_point,
    corpus,
    find_critical_points,
    get_objective,
    make_objective,
    make_regularized,
    milnor_sample,
    quadratic_bowl,
    stable_set_fraction,
    theta_region,
)
from saddlereg import critical
from saddlereg.critical import (
    DEDUP_RADIUS,
    DEFAULT_ZERO_TAU,
    _distinct_in_box,
    _distinct_rows,
    _grid_seeds,
    newton_root,
    solve_gradient_equation,
)

from oracles import newton_root_halving


def test_classify_eigenvalues_cases():
    assert classify_eigenvalues([1.0, 2.0]) == (STRATUM_POSITIVE, LOCAL_MIN)
    assert classify_eigenvalues([-2.0, -1.0]) == (STRATUM_NEGATIVE, LOCAL_MAX)
    assert classify_eigenvalues([-1.0, 1.0]) == (STRATUM_NEGATIVE, STRICT_SADDLE)
    assert classify_eigenvalues([0.0, 1.0]) == (STRATUM_ZERO, NON_STRICT_OR_DEGENERATE)
    assert classify_eigenvalues([0.0, 0.0]) == (STRATUM_ZERO, NON_STRICT_OR_DEGENERATE)
    # negative smallest eigenvalue but no positive one: degenerate, not strict
    assert classify_eigenvalues([-1.0, 0.0]) == (STRATUM_NEGATIVE, NON_STRICT_OR_DEGENERATE)


def test_zero_tolerance_is_relative():
    # |lambda| <= tau * max(1, |lambda|_max) counts as zero
    assert classify_eigenvalues([1e-7, 1.0])[0] == STRATUM_ZERO
    assert classify_eigenvalues([1e-5, 1.0])[0] == STRATUM_POSITIVE
    assert classify_eigenvalues([50.0, 1e9])[0] == STRATUM_ZERO  # 50 <= 1e-6 * 1e9


_EIGENVALUE = st.one_of(st.floats(-10.0, 10.0), st.sampled_from([0.0, 1e-7, -1e-7, 1e-5, -1e-5]))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(raw=st.lists(_EIGENVALUE, min_size=1, max_size=6),
       radius=st.floats(1.0, 1e6), scaled_radius=st.floats(1.0, 1e6))
def test_classification_invariant_under_positive_scaling(raw, radius, scaled_radius):
    # The zero band tau * max(1, max|lambda|) is relative once the largest
    # |lambda| reaches 1, so any positive factor that keeps the spectral radius
    # at or above 1 (radius before, scaled_radius after) keeps every sign.
    # Eigenvalues within rounding of the band edge are left out.
    raw = np.sort(raw)
    peak = np.max(np.abs(raw))
    assume(peak > 0.0)
    eigenvalues = raw / peak * radius
    scaled = eigenvalues * (scaled_radius / radius)
    for lam in (eigenvalues, scaled):
        band = DEFAULT_ZERO_TAU * max(1.0, float(np.max(np.abs(lam))))
        assume(np.all(np.abs(np.abs(lam) - band) > 1e-9 * band))
    assert classify_eigenvalues(scaled) == classify_eigenvalues(eigenvalues)


@st.composite
def _eigenvalue_stacks(draw):
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(_EIGENVALUE, min_size=n, max_size=n), max_size=8))
    return np.sort(np.array(rows, dtype=float).reshape(-1, n), axis=1)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(eigenvalues=_eigenvalue_stacks())
def test_classify_eigenvalues_stack_equals_rows(eigenvalues):
    strata, classifications = classify_eigenvalues(eigenvalues)
    assert strata.shape == classifications.shape == (len(eigenvalues),)
    assert list(zip(strata.tolist(), classifications.tolist())) == [
        classify_eigenvalues(row) for row in eigenvalues]


def _report_bytes(rep):
    return (rep.location.tobytes(), rep.grad_norm.hex(), rep.eigenvalues.tobytes(),
            rep.stratum, rep.classification)


@pytest.mark.parametrize("entry", corpus(), ids=lambda entry: entry.objective.name)
def test_batch_classify_point_equals_single_points(entry):
    # one gradient, Hessian and eigensolver call for the batch; every report bit
    # for bit the single point's, over the 7-per-axis seed grid and an empty batch
    f = entry.objective
    X = _grid_seeds(f.domain_box, 7)
    reports = classify_point(f, X)
    assert isinstance(reports, list) and len(reports) == len(X)
    assert [_report_bytes(rep) for rep in reports] == [
        _report_bytes(classify_point(f, x)) for x in X]
    assert classify_point(f, np.empty((0, f.dim))) == []


def test_classify_point_rejects_non_finite_batch():
    with pytest.raises(ValueError, match="non-finite"):
        classify_point(quadratic_bowl(1.0), [[0.0, 0.0], [np.nan, 1.0]])


@pytest.mark.parametrize("x", [[], [0.0], 0.0, [0.0, 0.0, 0.0], [[0.0]]],
                         ids=["empty", "short", "scalar", "long", "narrow-batch"])
def test_classify_point_rejects_a_point_of_the_wrong_dimension(x):
    with pytest.raises(ValueError, match="dimension"):
        classify_point(get_objective("cubic_valley"), x)


@pytest.mark.parametrize("tau", [-1.0, np.nan, np.inf])
def test_classify_point_rejects_a_negative_or_non_finite_tau(tau):
    # tau = -1 would label cubic_valley's non-strict origin local_min
    with pytest.raises(ValueError, match="tau"):
        classify_point(get_objective("cubic_valley"), [0.0, 0.0], tau=tau)


def test_classify_monkey_off_axis_strict_saddle():
    # Hessian [[0,1],[1,3]] has determinant -1: one negative eigenvalue
    f = get_objective("monkey_line")
    rep = classify_point(f, [-1.5, -1.0])
    assert rep.classification == STRICT_SADDLE
    assert rep.eigenvalues[0] < 0 < rep.eigenvalues[1]
    assert rep.eigenvalues[0] * rep.eigenvalues[1] == pytest.approx(-1.0, rel=1e-9)


def test_classify_bowl_minimum():
    rep = classify_point(quadratic_bowl(1.0), [0.0, 0.0])
    assert rep.classification == LOCAL_MIN
    assert rep.grad_norm == 0.0


def test_classify_cone_origin():
    rep = classify_point(get_objective("cubic_cone"), [0.0, 0.0])
    assert rep.classification == NON_STRICT_OR_DEGENERATE
    np.testing.assert_allclose(rep.eigenvalues, [0.0, 0.0])


def test_find_valley_single_degenerate_report():
    f = get_objective("cubic_valley")
    reports = find_critical_points(f, box=[[-2, 2], [-2, 2]], grid_density=10)
    assert len(reports) == 1
    rep = reports[0]
    np.testing.assert_allclose(rep.location, [0.0, 0.0], atol=1e-6)
    np.testing.assert_allclose(rep.eigenvalues, [0.0, 1.0], atol=1e-6)
    assert rep.classification == NON_STRICT_OR_DEGENERATE


def test_find_bifurcated_pair():
    f = make_regularized(get_objective("cubic_valley"), [-1.0, 0.0])
    reports = find_critical_points(f, box=[[-3, 3], [-3, 3]], grid_density=12)
    assert len(reports) == 2
    by_class = {r.classification: r for r in reports}
    saddle, minimum = by_class[STRICT_SADDLE], by_class[LOCAL_MIN]
    np.testing.assert_allclose(saddle.location, [-1.0, 0.0], atol=1e-8)
    np.testing.assert_allclose(saddle.eigenvalues, [-2.0, 1.0], atol=1e-8)
    np.testing.assert_allclose(minimum.location, [1.0, 0.0], atol=1e-8)
    np.testing.assert_allclose(minimum.eigenvalues, [1.0, 2.0], atol=1e-8)


def test_find_destroyed_critical_point():
    f = make_regularized(get_objective("cubic_valley"), [1.0, 0.0])
    assert find_critical_points(f, box=[[-3, 3], [-3, 3]], grid_density=12) == []


def test_find_double_degenerate_triple():
    f = get_objective("double_degenerate")
    reports = find_critical_points(f, grid_density=21)
    locs = sorted(float(r.location[0]) for r in reports)
    np.testing.assert_allclose(locs, [-1.0, 0.0, 1.0], atol=1e-7)
    classes = {round(float(r.location[0])): r.classification for r in reports}
    assert classes[0] == LOCAL_MIN
    assert classes[1] == NON_STRICT_OR_DEGENERATE
    assert classes[-1] == NON_STRICT_OR_DEGENERATE


def test_stratum_partition_and_regularization_invariance():
    # exactly one stratum per point, unchanged by any linear shift
    rng = np.random.default_rng(17)
    strata = (STRATUM_POSITIVE, STRATUM_ZERO, STRATUM_NEGATIVE)
    for entry_name in ("cubic_valley", "cubic_cone", "monkey_line", "double_degenerate"):
        f = get_objective(entry_name)
        l = rng.standard_normal(f.dim)
        fl = make_regularized(f, l)
        pts = rng.uniform(-3, 3, size=(200, f.dim))
        for x in pts:
            s = classify_point(f, x).stratum
            assert s in strata
            assert classify_point(fl, x).stratum == s


# gradient x^2: one degenerate root, at 0
_SQUARE = make_objective(
    "square", 1,
    value=lambda x: np.asarray(x, dtype=float)[..., 0] ** 3 / 3.0,
    gradient=lambda x: np.asarray(x, dtype=float) ** 2,
    hessian=lambda x: 2.0 * np.asarray(x, dtype=float)[..., None],
    domain_box=[[-3.0, 3.0]],
)
# gradient x^2 + 1: no root anywhere, so Newton stalls without converging
_NO_ROOT = make_objective(
    "no_root", 1,
    value=lambda x: np.asarray(x, dtype=float)[..., 0] ** 3 / 3.0 + np.asarray(x)[..., 0],
    gradient=lambda x: np.asarray(x, dtype=float) ** 2 + 1.0,
    hessian=lambda x: 2.0 * np.asarray(x, dtype=float)[..., None],
    domain_box=[[-3.0, 3.0]],
)


def test_newton_root_polishes_degenerate_roots():
    # gradient x^2 has a degenerate root at 0: linear convergence must still
    # drive the iterate far below the tolerance scale
    x, ok = newton_root(_SQUARE, [2.0], 0.0, tol=1e-8)
    assert ok
    assert abs(x[0]) < 1e-7


def test_newton_root_reports_failure():
    # gradient x^2 + 1 has no roots
    _, ok = newton_root(_NO_ROOT, [3.0], 0.0, tol=1e-8)
    assert not ok


def test_newton_root_evaluates_only_running_rows():
    # the three rows at the root (0, 0) stop before the first step, so every
    # gradient call after the first gets the one row still running
    f = get_objective("cubic_valley")
    g, batches = dataclasses.replace(f), []
    g.gradient = lambda x: batches.append(len(x)) or f.gradient(x)
    _, ok = newton_root(g, [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 1.0]], 0.0)
    assert ok.all()
    assert batches[0] == 4 and len(batches) > 1
    assert batches[1:] == [1] * (len(batches) - 1)


def test_solve_gradient_equation_dedup_and_box():
    f = get_objective("double_degenerate")
    seeds = np.linspace(-1.8, 1.8, 31).reshape(-1, 1)
    sols = solve_gradient_equation(f, [0.0], seeds, box=[[-2.0, 2.0]])
    np.testing.assert_allclose(sorted(s[0] for s in sols), [-1.0, 0.0, 1.0], atol=1e-7)
    # restricting the box drops the outer roots
    sols = solve_gradient_equation(f, [0.0], seeds, box=[[-0.5, 0.5]])
    assert len(sols) == 1


_VALLEY = get_objective("cubic_valley")


@st.composite
def _newton_cases(draw):
    f = draw(st.sampled_from([entry.objective for entry in corpus()] + [_NO_ROOT]))
    m = draw(st.integers(1, 6))
    X0 = np.array([[draw(st.floats(float(lo), float(hi))) for lo, hi in f.domain_box]
                   for _ in range(m)])
    L = np.array([[draw(st.floats(-1.0, 1.0)) for _ in range(f.dim)] for _ in range(m)])
    return f, X0, L


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(case=_newton_cases())
# an exactly singular Hessian (u = 0 on cubic_valley) beside a regular row
@example(case=(_VALLEY, np.array([[0.0, 0.5], [1.0, 1.0], [0.0, -2.0]]), np.zeros((3, 2))))
@example(case=(_NO_ROOT, np.array([[3.0], [0.5], [-1.0]]), np.zeros((3, 1))))
def test_newton_batch_rows_equal_single_starts(case):
    # each row of one batched call, with its own row of the shift, ends where the
    # single-start call from it with that shift does
    f, X0, L = case
    X, ok = newton_root(f, X0, L)
    assert X.shape == X0.shape and ok.shape == (len(X0),)
    for i, x0 in enumerate(X0):
        x, ok_i = newton_root(f, x0, L[i])
        assert X[i].tobytes() == x.tobytes()
        assert ok[i] == ok_i


# the damping paths of one Newton step, each beside or instead of the full step
_DAMPING_EXAMPLES = [
    # an exactly singular Hessian (u = 0 on cubic_valley) beside a regular row
    (_VALLEY, np.array([[0.0, 0.5], [1.0, 1.0]]), np.zeros((2, 2))),
    # converges to (2^-1/2, 1/2) and polishes until no damping improves the last step
    (_VALLEY, np.array([[0.5, 0.5]]), np.full((1, 2), -0.5)),
    # from 0.02 the first step improves at damping 2^-10 alone
    (_NO_ROOT, np.array([[0.02]]), np.zeros((1, 1))),
    # full steps, a small damping and a stall in one batch
    (_NO_ROOT, np.array([[3.0], [0.02], [0.5], [-1.0]]), np.zeros((4, 1))),
    # a row below tol whose full step fails ends without dampings, beside one above tol
    (_SQUARE, np.array([[1e-5], [0.02]]), np.array([[1e-9], [1.0]])),
]


def _damping_examples(test):
    for case in _DAMPING_EXAMPLES:
        test = example(case=case)(test)
    return test


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=_newton_cases())
@_damping_examples
def test_newton_root_equals_halving_oracle(case):
    # each row takes the largest improving damping, so it ends where halving from 1,
    # one gradient call per damping, leaves it
    f, X0, L = case
    X, ok = newton_root(f, X0, L)
    X_ref, ok_ref = newton_root_halving(f, X0, L)
    assert X.tobytes() == X_ref.tobytes()
    assert ok.tobytes() == ok_ref.tobytes()


def _logged(f):
    """f with its gradient and Hessian logging ("g" or "h", rows) for every call."""
    log, g = [], dataclasses.replace(f)
    g.gradient = lambda x: log.append(("g", len(x))) or f.gradient(x)
    g.hessian = lambda x: log.append(("h", len(x))) or f.hessian(x)
    return g, log


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(case=_newton_cases())
@_damping_examples
def test_newton_root_tries_dampings_in_two_calls(case):
    # after each Hessian call: the full step for every row, then ten dampings for each
    # row it did not improve and that is not below tol, the rows that halving takes on
    # to its damping 1/2
    f, X0, L = case
    g, log = _logged(f)
    newton_root(g, X0, L)
    g_ref, log_ref = _logged(f)
    newton_root_halving(g_ref, X0, L)
    expected = []
    for i, (kind, rows) in enumerate(log_ref):
        before = [k for k, _ in log_ref[max(i - 2, 0):i]]
        if kind == "h" or before[-1:] in ([], ["h"]):
            expected.append((kind, rows))
        elif before == ["h", "g"]:
            expected.append((kind, 10 * rows))
    assert log == expected
    hessian_calls = sum(kind == "h" for kind, _ in log)
    assert len(log) - hessian_calls <= 1 + 2 * hessian_calls


def test_newton_root_stops_a_row_below_tol_at_its_failed_full_step():
    # with shift 1e-9, x^2 + 1e-9 is 1.1e-9 < tol at 1e-5, and the full step to -4.5e-5
    # raises it to 3.0e-9: the row ends there, where a damping of 1/4 would still have
    # lowered it. With shift 1, x^2 + 1 at 0.02 is far above tol: its full step fails
    # too, and it alone gets the ten stacked dampings
    g, log = _logged(_SQUARE)
    X, ok = newton_root(g, [[1e-5], [0.02]], [[1e-9], [1.0]])
    assert log[:4] == [("g", 2), ("h", 2), ("g", 2), ("g", 10)]
    # the stopped row is not evaluated again: later calls hold the other row, or its dampings
    assert all(rows in (1, 10) for _, rows in log[4:])
    assert X[0, 0] == 1e-5 and ok.tolist() == [True, False]


def test_newton_root_polishes_the_degenerate_root_to_one_point():
    # below tol, full steps go on while they improve: cubic_valley's seeds near its
    # degenerate origin come within DEDUP_RADIUS of each other, and one point is found
    [point] = find_critical_points(_VALLEY)
    assert np.linalg.norm(point.location) < 1e-12
    assert point.classification == NON_STRICT_OR_DEGENERATE


def _count_calls(monkeypatch, targets):
    """Counts, from here on, of the calls to each (module, attribute) of targets, by key."""
    calls = dict.fromkeys(targets, 0)

    def spy(name, real):
        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return counted

    for name, (module, attr) in targets.items():
        monkeypatch.setattr(module, attr, spy(name, getattr(module, attr)))
    return calls


def _solve_calls(monkeypatch):
    """Counts of _det_and_solve calls in newton_root and of np.linalg.solve calls from here on."""
    return _count_calls(monkeypatch, {"kernel": (critical, "_det_and_solve"),
                                      "solve": (np.linalg, "solve")})


@pytest.mark.parametrize("f, X0", [
    (_VALLEY, [[1.0, 1.0], [0.5, -0.5], [-2.0, 0.3]]),
    (_NO_ROOT, [[3.0], [1.0], [-1.0]]),
], ids=["2x2", "1x1"])
def test_newton_root_factors_each_hessian_stack_once(monkeypatch, f, X0):
    # one kernel call per Hessian call, each stack's systems solved in closed form:
    # LAPACK's solve is never called for n <= 2
    g, log = _logged(f)
    calls = _solve_calls(monkeypatch)
    newton_root(g, X0, 0.0)
    assert calls == {"kernel": sum(kind == "h" for kind, _ in log), "solve": 0}


def test_newton_root_ends_a_singular_row_without_an_exception():
    # the rows at 1 and -1 reach x = 0, where the Hessian 2x vanishes, after one full
    # step; their singular systems end them there, with no exception and no warning,
    # and the iterates stay the halving oracle's bit for bit
    X0 = np.array([[3.0], [1.0], [-1.0]])
    X_ref, ok_ref = newton_root_halving(_NO_ROOT, X0, np.zeros((3, 1)))
    g, log = _logged(_NO_ROOT)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        X, ok = newton_root(g, X0, np.zeros((3, 1)))
    assert X[1:].tolist() == [[0.0], [0.0]] and not ok[1:].any()
    # the second Hessian call holds them, singular, and every later call only the first row
    hessian_rows = [rows for kind, rows in log if kind == "h"]
    assert hessian_rows[1] == 3 and set(hessian_rows[2:]) == {1}
    assert X.tobytes() == X_ref.tobytes() and ok.tobytes() == ok_ref.tobytes()


def test_newton_root_makes_no_determinant_above_two_dimensions(monkeypatch):
    # newton_root reads only the solutions: each Hessian call costs one LAPACK solve and
    # no det, and the iterates stay the halving oracle's, whose kernel call takes both
    f = quadratic_bowl(1.0, dim=3)
    X0 = np.random.default_rng(0).uniform(-2.0, 2.0, (64, 3))
    X_ref, ok_ref = newton_root_halving(f, X0, 0.0)
    g, log = _logged(f)
    calls = _count_calls(monkeypatch, {"det": (np.linalg, "det"), "solve": (np.linalg, "solve")})
    X, ok = newton_root(g, X0, 0.0)
    hessian_calls = sum(kind == "h" for kind, _ in log)
    assert hessian_calls and calls == {"det": 0, "solve": hessian_calls}
    assert X.tobytes() == X_ref.tobytes() and ok.tobytes() == ok_ref.tobytes()


def test_newton_root_rejects_non_finite_start():
    with pytest.raises(ValueError):
        newton_root(_SQUARE, [np.nan], 0.0)
    with pytest.raises(ValueError):
        newton_root(_SQUARE, [[1.0], [np.inf]], 0.0)


_INVERTED = [[1.0, -1.0], [1.0, -1.0]]

# every entry point that takes a box
_BOX_CALLS = [
    pytest.param(lambda f, box: find_critical_points(f, box), id="find_critical_points"),
    pytest.param(lambda f, box: milnor_sample(f, box, n_l=5), id="milnor_sample"),
    pytest.param(lambda f, box: check_assumption_separation(f, 3.0, box, resolution=10),
                 id="check_assumption_separation"),
    pytest.param(lambda f, box: theta_region(f, [0.0, 0.0], 3.0, box, resolution=10),
                 id="theta_region"),
    pytest.param(lambda f, box: stable_set_fraction(f, [0.0, 0.0], box, n_samples=10,
                                                    cfg=OptimizerConfig(gamma=0.1)),
                 id="stable_set_fraction"),
]


@pytest.mark.parametrize("call", _BOX_CALLS)
def test_inverted_box_is_rejected(call):
    # lo > hi used to search, sample or grid nothing and return an empty answer
    with pytest.raises(ValueError, match="box lower bounds must be below upper bounds"):
        call(get_objective("cubic_cone"), _INVERTED)


@pytest.mark.parametrize("call", _BOX_CALLS)
@pytest.mark.parametrize("rows", [1, 3])
def test_box_of_the_wrong_dimension_is_rejected(call, rows):
    # a box of 2k numbers used to read as k rows: theta_region built a 3-D grid of a
    # planar objective, whose third gradient entry is unset memory
    with pytest.raises(ValueError, match=f"box has dimension {rows}, objective has 2"):
        call(get_objective("cubic_cone"), [[-1.0, 1.0]] * rows)


@pytest.mark.parametrize("width", [1, 3])
def test_newton_root_rejects_starts_of_the_wrong_width(width):
    with pytest.raises(ValueError, match=rf"starts must be a finite \(m, 2\) array, got "
                                         rf"shape \(2, {width}\)"):
        newton_root(get_objective("cubic_valley"), np.zeros((2, width)), 0.0)


@pytest.mark.parametrize("eigenvalues", [1.0, [], np.zeros((2, 0)), np.zeros((1, 2, 2))],
                         ids=["scalar", "empty", "no_columns", "rank_3"])
def test_classify_eigenvalues_rejects_a_wrong_shape(eigenvalues):
    with pytest.raises(ValueError, match=r"need eigenvalues \(n,\) or \(m, n\), n >= 1"):
        classify_eigenvalues(eigenvalues)


@pytest.mark.parametrize("tau", [-1.0, np.nan, np.inf])
def test_classify_eigenvalues_rejects_a_negative_or_non_finite_tau(tau):
    # tau = -1 labelled the eigenvalues (0, 1) of a non-strict saddle local_min
    with pytest.raises(ValueError, match="0 <= tau < inf"):
        classify_eigenvalues([0.0, 1.0], tau)


@pytest.mark.parametrize("tol", [np.nan, -1.0, 0.0, np.inf])
def test_find_critical_points_rejects_a_bad_tol(tol):
    # NaN or a negative tol converged no seed and returned no points; a huge one kept
    # every seed as a critical point
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        find_critical_points(get_objective("cubic_valley"), tol=tol)


def test_find_critical_points_rejects_grid_density_below_one():
    with pytest.raises(ValueError, match="grid_density"):
        find_critical_points(get_objective("cubic_valley"), grid_density=0)


@st.composite
def _dedup_cases(draw):
    n = draw(st.integers(1, 2))
    radius = draw(st.sampled_from([1e-4, 0.3]))
    # a few centers, each repeated with jitter below and above the radius
    centers = draw(st.lists(st.lists(st.floats(-1.2, 1.2), min_size=n, max_size=n),
                            min_size=1, max_size=4))
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        c = np.array(draw(st.sampled_from(centers)))
        rows.append(c + radius * draw(st.sampled_from([0.0, 0.4, -0.7, 1.5])))
    X = np.array(rows)
    ok = np.array(draw(st.lists(st.booleans(), min_size=len(X), max_size=len(X))))
    return X, ok, radius


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=_dedup_cases())
def test_distinct_in_box_keeps_earliest_row_per_cluster(case):
    X, ok, radius = case
    box = np.array([[-1.0, 1.0]] * X.shape[1])
    out = _distinct_in_box(X, ok, box, radius)
    # candidates: rows flagged ok inside the box, within its 1e-9 margin
    inside = np.all((X >= -1.0 - 1e-9) & (X <= 1.0 + 1e-9), axis=1)
    cand = [i for i in range(len(X)) if ok[i] and inside[i]]
    # a candidate is kept exactly when no earlier kept candidate lies within the radius
    kept = []
    for i in cand:
        if all(np.linalg.norm(X[i] - X[j]) > radius for j in kept):
            kept.append(i)
    assert sorted(tuple(x) for x in out) == [tuple(x) for x in out]  # lexicographic
    assert sorted(tuple(X[i]) for i in kept) == [tuple(x) for x in out]
    for a in range(len(out)):
        for b in range(a):
            assert np.linalg.norm(out[a] - out[b]) > radius


@st.composite
def _dedup_stacks(draw):
    n = draw(st.integers(1, 2))
    radius = draw(st.sampled_from([DEDUP_RADIUS, 0.25]))
    # 0 and 0.5 plus a multiple of either radius are exact, so pairs lie at exactly the
    # radius; +-(1 + 0.9e-9) and +-(1 + 1.1e-9) sit inside and outside the box's margin
    margin = [1.0 + 0.9e-9, -1.0 - 0.9e-9, 1.0 + 1.1e-9, -1.0 - 1.1e-9]
    coords = st.one_of(st.sampled_from([0.0, 0.5] + margin), st.floats(-1.2, 1.2))
    centers = draw(st.lists(st.lists(coords, min_size=n, max_size=n), min_size=1, max_size=3))
    k = draw(st.integers(1, 8))
    X = np.empty((draw(st.integers(1, 5)), k, n))
    ok = np.empty(X.shape[:2], dtype=bool)
    for group in range(len(X)):
        for row in range(k):
            axis = np.arange(n) == draw(st.integers(0, n - 1))
            step = draw(st.sampled_from([0.0, 0.4, -0.7, 1.0, -1.0, 1.5]))
            X[group, row] = np.array(draw(st.sampled_from(centers))) + step * radius * axis
        # a group may be wholly outside the box, or have no ok row at all
        X[group] += draw(st.sampled_from([0.0, 0.0, 3.0]))
        mode = draw(st.sampled_from(["all", "none", "some"]))
        ok[group] = [mode == "all" or mode == "some" and draw(st.booleans()) for _ in range(k)]
    box = draw(st.sampled_from([None, [[-1.0, 1.0]] * n]))
    return X, ok, box, radius


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=_dedup_stacks())
def test_distinct_rows_equals_each_group_alone(case):
    # the lockstep mask keeps, in every group, the rows a plain loop over that group
    # keeps, and those rows are the group's _distinct_in_box, sorted
    X, ok, box, radius = case
    kept = _distinct_rows(X, ok, box, radius)
    assert kept.shape == ok.shape and kept.dtype == bool
    for group, (Xg, okg) in enumerate(zip(X, ok)):
        rows = []
        for i, x in enumerate(Xg):
            inside = box is None or np.all((x >= -1.0 - 1e-9) & (x <= 1.0 + 1e-9))
            if okg[i] and inside and all(np.linalg.norm(x - Xg[j]) > radius for j in rows):
                rows.append(i)
        assert kept[group].nonzero()[0].tolist() == rows
        alone = _distinct_in_box(Xg, okg, box, radius)
        assert sorted(map(tuple, Xg[rows])) == list(map(tuple, alone))
        assert alone.shape == (len(rows), X.shape[2])


def test_distinct_in_box_margin_is_1e_9():
    X = np.array([[1.0 + 0.9e-9], [-1.0 - 0.9e-9], [1.0 + 1.1e-9], [-1.0 - 1.1e-9]])
    out = _distinct_in_box(X, np.ones(4, dtype=bool), [[-1.0, 1.0]], 1e-12)
    assert [x[0] for x in out] == [-1.0 - 0.9e-9, 1.0 + 0.9e-9]
    # no box keeps every flagged row, and an unflagged row never survives
    ok = np.array([True, False, True, True])
    assert len(_distinct_in_box(X, ok, None, 1e-12)) == 3
