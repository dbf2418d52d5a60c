import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from saddlereg import (
    MlpSpec,
    classify_point,
    corpus,
    get_objective,
    make_blobs,
    make_objective,
    make_regularized,
    mlp_objective,
    quadratic_bowl,
)

from saddlereg.objectives import _grid_lipschitz

from oracles import PLANAR, PLANAR_BOX, fd_gradient, fd_hessian


def _random_points(entry, n, seed):
    rng = np.random.default_rng(seed)
    box = entry.objective.domain_box
    return rng.uniform(box[:, 0], box[:, 1], size=(n, entry.objective.dim))


def test_corpus_has_expected_entries():
    names = [e.objective.name for e in corpus()]
    assert len(names) >= 5
    for name in ("cubic_valley", "cubic_cone", "monkey_line",
                 "double_degenerate", "quadratic_bowl"):
        assert name in names


def test_annotations_are_critical_and_classified():
    for entry in corpus():
        f = entry.objective
        for location, classification in entry.known_critical_points:
            assert np.linalg.norm(f.gradient(location)) <= 1e-8
            assert classify_point(f, location).classification == classification


def test_cubic_valley_origin_eigenvalues():
    f = get_objective("cubic_valley")
    rep = classify_point(f, [0.0, 0.0])
    np.testing.assert_allclose(rep.eigenvalues, [0.0, 1.0], atol=1e-12)


def test_cubic_cone_gradient_x_nonnegative():
    f = get_objective("cubic_cone")
    pts = np.random.default_rng(3).uniform(-3, 3, size=(1000, 2))
    assert np.all(f.gradient(pts)[:, 0] >= 0.0)


def test_gradients_match_finite_differences():
    for seed, entry in enumerate(corpus()):
        f = entry.objective
        for x in _random_points(entry, 25, seed):
            g = f.gradient(x)
            g_fd = fd_gradient(f.value, x)
            assert np.linalg.norm(g - g_fd) <= 1e-4 * max(1.0, np.linalg.norm(g))


def test_hessians_match_finite_differences_and_are_symmetric():
    for seed, entry in enumerate(corpus()):
        f = entry.objective
        for x in _random_points(entry, 10, 100 + seed):
            H = f.hessian(x)
            assert np.array_equal(H, np.asarray(H).T)
            H_fd = fd_hessian(f.value, x)
            assert np.linalg.norm(H - H_fd) <= 1e-4 * max(1.0, np.linalg.norm(H))


def test_vectorized_evaluation_shapes():
    f = get_objective("cubic_valley")
    X = np.random.default_rng(0).uniform(-2, 2, size=(40, 2))
    assert f.value(X).shape == (40,)
    assert f.gradient(X).shape == (40, 2)
    x = X[0]
    assert f.value(x) == pytest.approx(f.value(X)[0])
    # every corpus objective and the 2-8-8-2 network evaluate (k, n) and
    # (a, b, n) batches natively, each row equal bit for bit to one point
    spec = MlpSpec((2, 8, 8, 2))
    net = mlp_objective(spec, make_blobs(20, 2, 2, 1.0, seed=2))
    rng = np.random.default_rng(1)
    for f in [entry.objective for entry in corpus()] + [net]:
        X = rng.uniform(f.domain_box[:, 0], f.domain_box[:, 1], size=(6, f.dim))
        X[0] = 0.0
        for ev, tail in ((f.value, ()), (f.gradient, (f.dim,)), (f.hessian, (f.dim, f.dim))):
            single = np.array([ev(x) for x in X])
            assert single.shape == (6,) + tail
            for batch in (X, X.reshape(2, 3, f.dim)):
                out = ev(batch)
                assert out.shape == batch.shape[:-1] + tail
                assert out.tobytes() == single.tobytes(), (f.name, ev)


def test_make_objective_requires_batched_evaluators():
    value = lambda x: 0.5 * np.sum(np.asarray(x, dtype=float) ** 2, axis=-1)
    gradient = lambda x: np.asarray(x, dtype=float)
    hessian = lambda x: np.broadcast_to(np.eye(2), np.shape(x)[:-1] + (2, 2))
    f = make_objective("bowl", 2, value, gradient, hessian)
    assert f.hessian([[1.0, 2.0]]).shape == (1, 2, 2)
    with pytest.raises(TypeError):
        make_objective("bowl", 2, value, gradient)  # no finite-difference fallback
    # single-point evaluators would broadcast silently inside a batch
    one_point_value = lambda x: float(0.5 * np.sum(np.asarray(x, dtype=float) ** 2))
    with pytest.raises(ValueError, match="value gives ") as exc:
        make_objective("bowl", 2, one_point_value, gradient, lambda x: np.eye(2))
    assert "hessian gives (2, 2)" in str(exc.value) and "gradient" not in str(exc.value)
    with pytest.raises(ValueError, match="hessian gives"):
        make_objective("line", 1, value, gradient, lambda x: np.array([[2.0 * x[0]]]))
    with pytest.raises(ValueError, match="hessian gives an error"):
        make_objective("valley", 2, value, gradient,
                       lambda x: np.array([[2.0 * x[0], 0.0], [0.0, 1.0]]))
    # a result of another type is rejected, not coerced: no consumer converts one, and a
    # conversion would drop a complex gradient's imaginary part
    for wrong, shown in [(lambda x: x + 1j, "ndarray of complex128"),
                         (lambda x: np.ones(x.shape, dtype=np.int64), "ndarray of int64"),
                         (lambda x: x.tolist(), "list")]:
        with pytest.raises(ValueError) as exc:
            make_objective("bowl", 2, value, wrong, hessian)
        assert str(exc.value) == ("objective 'bowl' on a (2, 2) batch: gradient gives "
                                  f"{shown}, expected a float64 array (2, 2)")


def test_every_builder_returns_float64_arrays():
    # make_objective checks this on its probe; make_regularized and mlp_objective build
    # without the probe, so this holds them to the same contract on any leading axes
    net = mlp_objective(MlpSpec((2, 8, 8, 2)), make_blobs(20, 2, 2, 1.0, seed=2))
    objectives = [entry.objective for entry in corpus()]
    rng = np.random.default_rng(3)
    for f in objectives + [make_regularized(objectives[0], [0.5, -0.25]), net]:
        box = f.domain_box
        assert isinstance(box, np.ndarray) and box.dtype == np.float64 and box.shape == (f.dim, 2)
        for lead in ((), (4,), (2, 3)):
            X = rng.uniform(box[:, 0], box[:, 1], size=lead + (f.dim,))
            results = [(f.value(X), ()), (f.gradient(X), (f.dim,)),
                       (f.hessian(X), (f.dim, f.dim))]
            if f.value_and_gradient is not None:
                results += zip(f.value_and_gradient(X), [(), (f.dim,)])
            for out, tail in results:
                # one point's value may be a float64 scalar
                assert isinstance(out, (np.ndarray, np.float64)), (f.name, lead, type(out))
                assert (out.dtype, out.shape) == (np.float64, lead + tail), (f.name, lead)


def test_make_regularized_cancels_gradient():
    f = get_objective("cubic_valley")
    fl = make_regularized(f, [-1.0, 0.0])
    np.testing.assert_allclose(fl.gradient(np.array([1.0, 0.0])), [0.0, 0.0], atol=0)


def test_make_regularized_zero_is_identity():
    for entry in corpus():
        f = entry.objective
        fl = make_regularized(f, np.zeros(f.dim))
        X = _random_points(entry, 100, 7)
        np.testing.assert_array_equal(fl.value(X), f.value(X))
        np.testing.assert_array_equal(fl.gradient(X), f.gradient(X))


def test_make_regularized_cone_gradient_floor():
    # df/dx = x^2 + y^2 + 2.5 >= 2.5 everywhere
    f = make_regularized(get_objective("cubic_cone"), [2.5, 1.5])
    pts = np.random.default_rng(11).uniform(-3, 3, size=(10_000, 2))
    assert np.all(f.gradient(pts)[:, 0] >= 2.5)


def test_regularized_hessian_is_same_object():
    f = get_objective("cubic_cone")
    fl = make_regularized(f, [0.3, -0.7])
    assert fl.hessian is f.hessian
    x = np.array([0.4, -1.1])
    np.testing.assert_array_equal(fl.hessian(x), f.hessian(x))


def test_gradient_shift_is_exactly_l():
    # the shifted gradient is computed as grad f + l, so it must match that
    # sum bit for bit at every point
    rng = np.random.default_rng(5)
    for entry in corpus():
        f = entry.objective
        l = rng.standard_normal(f.dim)
        fl = make_regularized(f, l)
        for x in _random_points(entry, 20, 9):
            np.testing.assert_array_equal(fl.gradient(x), f.gradient(x) + l)


def test_monkey_line_odd_gradient_symmetry():
    f = get_objective("monkey_line")
    pts = np.random.default_rng(13).uniform(-3, 3, size=(1000, 2))
    np.testing.assert_array_equal(f.gradient(-pts), -f.gradient(pts))


def test_lipschitz_hints():
    for entry in corpus():
        assert entry.objective.lipschitz_hint > 0
    assert quadratic_bowl(4.0).lipschitz_hint == pytest.approx(4.0)


def test_quadratic_bowl_parameters():
    f = quadratic_bowl(4.0, dim=3)
    x = np.array([1.0, -2.0, 0.5])
    assert f.value(x) == pytest.approx(2.0 * np.dot(x, x))
    np.testing.assert_array_equal(f.gradient(x), 4.0 * x)
    with pytest.raises(ValueError):
        quadratic_bowl(0.0)


@pytest.mark.parametrize("c, dim, match", [
    (np.nan, 2, "curvature c must be positive and finite"),
    (np.inf, 2, "curvature c must be positive and finite"),
], ids=["c_nan", "c_inf"])
def test_quadratic_bowl_rejects_bad_parameters(c, dim, match):
    with pytest.raises(ValueError, match=match):
        quadratic_bowl(c, dim)


def test_make_objective_rejects_an_asymmetric_hessian():
    # a rounding-level asymmetry used to pass the probe and fail later, in sym_eigen
    bowl = quadratic_bowl()
    skewed = lambda x: bowl.hessian(x) + np.array([[0.0, 1e-17], [0.0, 0.0]])
    with pytest.raises(ValueError) as exc:
        make_objective("skewed", 2, bowl.value, bowl.gradient, skewed)
    assert str(exc.value) == ("objective 'skewed' on a (2, 2) batch: hessian gives matrices "
                              "that are not symmetric, expected a float64 array (2, 2, 2)")


@pytest.mark.parametrize("hint", [0.0, -1.0, np.nan, np.inf])
def test_make_objective_rejects_a_bad_lipschitz_hint(hint):
    # a hint of 0 divided by zero in resolve_gamma; NaN switched its warning off
    bowl = quadratic_bowl()
    with pytest.raises(ValueError, match="lipschitz_hint must be positive and finite"):
        make_objective("bowl", 2, bowl.value, bowl.gradient, bowl.hessian, lipschitz_hint=hint)


def test_regularizer_dimension_mismatch():
    with pytest.raises(ValueError):
        make_regularized(get_objective("cubic_valley"), [1.0, 2.0, 3.0])


def test_get_objective_unknown_name():
    with pytest.raises(ValueError):
        get_objective("not_a_function")


def test_monkey_line_notes_mention_lookalike():
    entry = next(e for e in corpus() if e.objective.name == "monkey_line")
    assert "x*y^3/3" in entry.notes and "cubic_cone" in entry.notes


# signed zeros, subnormals, the non-finite values and magnitudes up to 1e300
_PLANAR_SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, np.inf, -np.inf, np.nan,
                    1e300, -1e300, 1e154, -1e103, 3.0, -3.0]
_planar_points = hnp.arrays(
    np.float64,
    st.one_of(st.just((2,)), st.tuples(st.integers(1, 6), st.just(2)),
              st.tuples(st.integers(1, 3), st.integers(1, 3), st.just(2))),
    elements=st.one_of(st.sampled_from(_PLANAR_SPECIALS), st.floats(-1e300, 1e300),
                       st.floats(allow_nan=True, allow_infinity=True)),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(x=_planar_points)
def test_planar_evaluators_match_reference_bit_for_bit(x):
    with np.errstate(all="ignore"):
        for name, reference in PLANAR.items():
            f = get_objective(name)
            for label, got, ref in zip(("value", "gradient", "hessian"),
                                       (f.value(x), f.gradient(x), f.hessian(x)),
                                       (fn(x) for fn in reference())):
                assert type(got) is type(ref) and np.shape(got) == np.shape(ref), (name, label)
                assert np.asarray(got).tobytes() == np.asarray(ref).tobytes(), (name, label, x)


@pytest.mark.parametrize("name", sorted(PLANAR))
def test_planar_box_and_lipschitz_hint_match_reference(name):
    f = get_objective(name)
    assert np.array_equal(f.domain_box, PLANAR_BOX)
    assert f.lipschitz_hint == _grid_lipschitz(PLANAR[name]()[2], PLANAR_BOX)
