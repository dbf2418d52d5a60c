import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saddlereg import (
    NON_STRICT_OR_DEGENERATE,
    Dataset,
    MlpSpec,
    OptimizerConfig,
    classify_point,
    init_params,
    make_blobs,
    mlp_objective,
    pack_params,
    run_plain_gd,
    unpack_params,
)
from saddlereg.mlp import _log_softmax
from saddlereg.optimizer import _descend

from oracles import fd_gradient, mlp_value_and_gradient


def test_spec_validation():
    with pytest.raises(ValueError):
        MlpSpec((2, 8, 2))  # one hidden layer is not enough
    with pytest.raises(ValueError):
        MlpSpec((2, 8, 0, 2))
    spec = MlpSpec((2, 8, 8, 2))
    assert spec.n_params == 2 * 8 + 8 + 8 * 8 + 8 + 8 * 2 + 2  # 114


def test_pack_unpack_roundtrip():
    spec = MlpSpec((3, 4, 5, 2))
    rng = np.random.default_rng(0)
    params = rng.standard_normal(spec.n_params)
    Ws, bs = unpack_params(spec, params)
    assert [W.shape for W in Ws] == [(4, 3), (5, 4), (2, 5)]
    assert [b.shape for b in bs] == [(4,), (5,), (2,)]
    np.testing.assert_array_equal(pack_params(Ws, bs), params)


def test_zero_params_balanced_loss_is_ln2():
    # all-zero parameters give the uniform softmax on every sample
    spec = MlpSpec((2, 8, 8, 2))
    data = make_blobs(50, 2, 2, 4.0, seed=7)
    f = mlp_objective(spec, data)
    assert f.value(np.zeros(spec.n_params)) == pytest.approx(np.log(2.0), abs=1e-12)
    # balanced labels also make the all-zero point critical
    assert np.linalg.norm(f.gradient(np.zeros(spec.n_params))) <= 1e-12


def test_backprop_matches_finite_differences():
    spec = MlpSpec((2, 8, 8, 2))
    data = make_blobs(32, 2, 2, 2.0, seed=3)
    f = mlp_objective(spec, data)
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 5:
        params = rng.uniform(-0.7, 0.7, spec.n_params)
        # keep away from ReLU kinks so the finite-difference oracle is valid
        Ws, bs = unpack_params(spec, params)
        a = data.inputs
        near_kink = False
        for i, (W, b) in enumerate(zip(Ws, bs)):
            z = a @ W.T + b
            if i < len(Ws) - 1:
                if np.any(np.abs(z) < 1e-6):
                    near_kink = True
                a = np.maximum(z, 0.0)
        if near_kink:
            continue
        g = f.gradient(params)
        g_fd = fd_gradient(f.value, params, h=1e-6)
        assert np.linalg.norm(g - g_fd) <= 1e-4 * max(1.0, np.linalg.norm(g))
        checked += 1


def test_final_bias_gradient_closed_form():
    # with the last layer's weights zeroed, the logits equal the final bias and
    # d loss / d bias = mean(softmax(bias) - onehot)
    spec = MlpSpec((1, 2, 2, 2))
    data = Dataset(inputs=np.array([[0.5], [-1.0]]), labels=np.array([0, 1]))
    f = mlp_objective(spec, data)
    rng = np.random.default_rng(4)
    params = rng.standard_normal(spec.n_params)
    Ws, bs = unpack_params(spec, params)
    Ws[-1] = np.zeros_like(Ws[-1])
    bs[-1] = np.array([0.3, -0.2])
    params = pack_params(Ws, bs)

    z = bs[-1]
    p = np.exp(z) / np.exp(z).sum()
    onehot = np.eye(2)[data.labels]
    expected = (p - onehot).mean(axis=0)

    grad = f.gradient(params)
    _, gbs = unpack_params(spec, grad)
    np.testing.assert_allclose(gbs[-1], expected, atol=1e-12)


def test_hidden_unit_permutation_symmetry():
    spec = MlpSpec((2, 8, 8, 2))
    data = make_blobs(25, 2, 2, 3.0, seed=5)
    f = mlp_objective(spec, data)
    rng = np.random.default_rng(6)
    params = rng.uniform(-0.5, 0.5, spec.n_params)
    Ws, bs = unpack_params(spec, params)
    perm = rng.permutation(8)
    Ws2 = [W.copy() for W in Ws]
    bs2 = [b.copy() for b in bs]
    Ws2[0] = Ws2[0][perm, :]      # rows of incoming weights
    bs2[0] = bs2[0][perm]
    Ws2[1] = Ws2[1][:, perm]      # columns of outgoing weights
    assert f.value(pack_params(Ws2, bs2)) == pytest.approx(f.value(params), abs=1e-12)


def test_loss_nonnegative():
    spec = MlpSpec((2, 8, 8, 2))
    data = make_blobs(20, 2, 2, 1.0, seed=8)
    f = mlp_objective(spec, data)
    rng = np.random.default_rng(9)
    for _ in range(20):
        assert f.value(rng.uniform(-2, 2, spec.n_params)) >= 0.0


def test_make_blobs_contracts():
    data = make_blobs(50, 2, 2, 4.0, seed=7)
    assert len(data.inputs) == 100
    assert np.count_nonzero(data.labels == 0) == 50
    assert np.count_nonzero(data.labels == 1) == 50
    again = make_blobs(50, 2, 2, 4.0, seed=7)
    np.testing.assert_array_equal(data.inputs, again.inputs)
    np.testing.assert_array_equal(data.labels, again.labels)


def test_make_blobs_zero_separation_means_coincide():
    data = make_blobs(500, 2, 2, 0.0, seed=1)
    m0 = data.inputs[data.labels == 0].mean(axis=0)
    m1 = data.inputs[data.labels == 1].mean(axis=0)
    assert np.linalg.norm(m0 - m1) < 0.3  # both classes drawn around one mean


def test_make_blobs_separation_scale():
    data = make_blobs(500, 2, 2, 6.0, seed=2)
    m0 = data.inputs[data.labels == 0].mean(axis=0)
    m1 = data.inputs[data.labels == 1].mean(axis=0)
    assert np.linalg.norm(m0 - m1) == pytest.approx(6.0, abs=0.4)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(inputs=np.zeros((3, 2)), labels=np.zeros(2, dtype=int))
    with pytest.raises(ValueError):
        Dataset(inputs=np.zeros((0, 2)), labels=np.zeros(0, dtype=int))
    spec = MlpSpec((2, 4, 4, 2))
    bad = Dataset(inputs=np.zeros((4, 2)), labels=np.array([0, 1, 2, 0]))
    with pytest.raises(ValueError):
        mlp_objective(spec, bad)  # label 2 exceeds output width


def test_init_params_bounds_and_zero_biases():
    spec = MlpSpec((2, 8, 8, 2))
    params = init_params(spec, seed=0)
    Ws, bs = unpack_params(spec, params)
    for W, width_in in zip(Ws, (2, 8, 8)):
        assert np.all(np.abs(W) <= 1.0 / np.sqrt(width_in))
    for b in bs:
        assert np.all(b == 0.0)
    np.testing.assert_array_equal(params, init_params(spec, seed=0))


def _hidden_preactivations(spec, data, params):
    Ws, bs = unpack_params(spec, params)
    a, zs = data.inputs, []
    for W, b in zip(Ws[:-1], bs[:-1]):
        zs.append(a @ W.T + b)
        a = np.maximum(zs[-1], 0.0)
    return zs


def _relu_masks(spec, data, params):
    return np.concatenate([(z > 0.0).ravel() for z in _hidden_preactivations(spec, data, params)])


def test_hessian_matches_gradient_differences():
    # H v against a central difference of the exact gradient along random unit
    # directions, at random points and at the final iterates of the first three
    # plain trials of `mlp-compare --seed 0`, each of which ends with a
    # pre-activation within 2e-4 of a ReLU kink: inside the reach of a
    # finite-difference Hessian stencil of the loss, but not of this step
    spec = MlpSpec((2, 8, 8, 2))
    data = make_blobs(50, 2, 2, 1.0, seed=0)
    f = mlp_objective(spec, data)
    rng = np.random.default_rng(21)
    cfg = OptimizerConfig(gamma=0.5, theta=0.04, eps_converge=1e-10, max_iters=800,
                          escape_radius=1e6)
    points = [rng.uniform(-0.7, 0.7, spec.n_params) for _ in range(3)]
    points += [run_plain_gd(f, init_params(spec, child), cfg).final_x
               for child in np.random.SeedSequence(0).spawn(3)]
    h = 1e-7
    for x in points:
        H = f.hessian(x)
        masks = _relu_masks(spec, data, x)
        for _ in range(5):
            v = rng.standard_normal(spec.n_params)
            v /= np.linalg.norm(v)
            # no ReLU kink within the step, so the gradient is smooth along it
            assert np.array_equal(_relu_masks(spec, data, x + h * v), masks)
            assert np.array_equal(_relu_masks(spec, data, x - h * v), masks)
            hv_fd = (f.gradient(x + h * v) - f.gradient(x - h * v)) / (2.0 * h)
            hv = H @ v
            assert np.linalg.norm(hv - hv_fd) <= 1e-6 * max(1.0, np.linalg.norm(hv))


def test_hessian_is_symmetric_and_batched():
    spec = MlpSpec((2, 8, 8, 2))
    data = make_blobs(20, 2, 2, 2.0, seed=4)
    f = mlp_objective(spec, data)
    points = np.random.default_rng(13).uniform(-0.7, 0.7, (2, spec.n_params))
    H = f.hessian(points)
    assert H.shape == (2, spec.n_params, spec.n_params)
    for x, Hx in zip(points, H):
        np.testing.assert_array_equal(Hx, Hx.T)
        np.testing.assert_array_equal(Hx, f.hessian(x))


def test_zero_params_is_non_strict_saddle():
    # every hidden pre-activation is 0, so every ReLU is off and the only
    # curvature left is the softmax curvature of the output bias,
    # mean(diag(p) - p p^T) at p = (1/2, 1/2): eigenvalues 0 and 1/2
    spec = MlpSpec((2, 8, 8, 2))
    data = make_blobs(50, 2, 2, 4.0, seed=7)
    f = mlp_objective(spec, data)
    report = classify_point(f, np.zeros(spec.n_params))
    assert report.classification == NON_STRICT_OR_DEGENERATE
    assert report.eigenvalues[0] == 0.0
    assert report.eigenvalues[-1] == pytest.approx(0.5, rel=1e-12)


def test_regularized_rows_leave_the_origin_sooner_than_their_plain_twins():
    # starts near the zero vector, a non-strict critical point at loss ln 2; in one
    # lockstep batch each plain row (theta 0) has a regularized twin (theta 1e-3) from
    # the same start, and the observer notes each row's first step with loss < 0.69
    spec = MlpSpec((2, 8, 8, 2))
    f = mlp_objective(spec, make_blobs(50, 2, 2, 1.0, seed=0))
    starts = np.array([1e-2 * init_params(spec, child)
                       for child in np.random.SeedSequence(2).spawn(8)])
    cfg = OptimizerConfig(gamma=0.5, eps_converge=1e-10, max_iters=2500, escape_radius=1e6)
    first = np.full(16, -1)

    def observe(k, X, G, gn, inside, rows, F):
        first[rows[(F < 0.69) & (first[rows] < 0)]] = k

    _descend(f, np.vstack([starts, starts]), cfg, cfg.gamma, observe,
             theta=np.repeat([0.0, 1e-3], 8), values=True)
    plain, regularized = first[:8], first[8:]
    assert np.all(plain > 0) and np.all(regularized > 0)
    assert np.all(regularized < plain), (plain, regularized)


def test_dead_unit_has_zero_hessian_rows():
    spec = MlpSpec((2, 8, 8, 2))
    data = make_blobs(25, 2, 2, 3.0, seed=5)
    f = mlp_objective(spec, data)
    Ws, bs = unpack_params(spec, np.random.default_rng(17).uniform(-0.5, 0.5, spec.n_params))
    marks_W = [np.zeros_like(W) for W in Ws]
    marks_b = [np.zeros_like(b) for b in bs]
    for layer, unit in ((0, 3), (1, 5)):
        bs[layer][unit] = -100.0
        marks_W[layer][unit] = 1.0
        marks_b[layer][unit] = 1.0
    params = pack_params(Ws, bs)
    zs = _hidden_preactivations(spec, data, params)
    assert np.all(zs[0][:, 3] <= 0.0) and np.all(zs[1][:, 5] <= 0.0)
    rows = np.flatnonzero(pack_params(marks_W, marks_b))
    assert rows.size == (2 + 1) + (8 + 1)
    H = f.hessian(params)
    assert np.all(H[rows] == 0.0)
    assert np.any(H != 0.0)


# one small network per output width: 2 and 3 classes, and 9, past the 8 terms
# that numpy's pairwise sum adds at a time; and the same widths at three hidden layers
_NET_INPUTS = {(2, k): (MlpSpec((2, 5, 4, k)), make_blobs(6, k, 2, 1.5, seed=k)) for k in (2, 3, 9)}
_NET_INPUTS.update({(3, k): (MlpSpec((2, 4, 3, 3, k)), make_blobs(5, k, 2, 1.5, seed=10 + k))
                    for k in (2, 3, 9)})
_NETS = {k: mlp_objective(*_NET_INPUTS[2, k]) for k in (2, 3, 9)}
_DEEP_NETS = {k: mlp_objective(*_NET_INPUTS[3, k]) for k in (2, 3, 9)}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(k=st.sampled_from(sorted(_NETS)), rows=st.sampled_from([None, 1, 5]),
       seed=st.integers(0, 2**32 - 1), scale=st.floats(0.05, 5.0))
def test_value_and_gradient_equal_the_separate_evaluators(k, rows, seed, scale):
    f = _NETS[k]
    params = scale * np.random.default_rng(seed).standard_normal(
        f.dim if rows is None else (rows, f.dim))
    value, gradient = f.value_and_gradient(params)
    assert np.shape(value) == np.shape(params)[:-1]
    assert value.tobytes() == f.value(params).tobytes()
    assert gradient.tobytes() == f.gradient(params).tobytes()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(depth=st.sampled_from([2, 3]), k=st.sampled_from(sorted(_NETS)),
       lead=st.one_of(st.just(()), st.tuples(st.integers(1, 4)),
                      st.tuples(st.integers(1, 3), st.integers(1, 3))),
       seed=st.integers(0, 2**32 - 1), scale=st.floats(0.05, 5.0))
def test_stacked_rows_equal_their_single_rows(depth, k, lead, seed, scale):
    # every evaluator on a (..., n) stack returns, row by row, the bits of its
    # call on that row alone
    f = (_NETS if depth == 2 else _DEEP_NETS)[k]
    params = scale * np.random.default_rng(seed).standard_normal(lead + (f.dim,))
    rows = params.reshape(-1, f.dim)
    value, gradient = f.value_and_gradient(params)
    for stacked, single in ((f.value(params), f.value), (f.gradient(params), f.gradient),
                            (value, lambda x: f.value_and_gradient(x)[0]),
                            (gradient, lambda x: f.value_and_gradient(x)[1]),
                            (f.hessian(params), f.hessian)):
        expected = np.array([single(x) for x in rows])
        assert stacked.shape == lead + expected.shape[1:]
        assert stacked.tobytes() == expected.tobytes()


@pytest.mark.parametrize("depth, k", sorted(_NET_INPUTS))
@pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(layout=st.sampled_from(["C", "F", "strided"]),
       fill=st.sampled_from([None, 0.0, np.nan, np.inf, -np.inf]),
       seed=st.integers(0, 2**32 - 1), scale=st.floats(0.05, 5.0))
def test_gradient_keeps_the_bits_of_the_concatenated_form(depth, k, lead, layout, fill, seed,
                                                          scale):
    # the gradient written into views of one array equals, bit for bit, each layer's
    # part formed on its own and concatenated; on any memory layout of the stack,
    # and with a first row of zeros or with a NaN or infinite entry
    spec, data = _NET_INPUTS[depth, k]
    f = (_NETS if depth == 2 else _DEEP_NETS)[k]
    rng = np.random.default_rng(seed)
    params = scale * rng.standard_normal(lead + (f.dim,))
    first = params.reshape(-1, f.dim)[0]
    if fill == 0.0:
        first[:] = 0.0
    elif fill is not None:
        first[rng.integers(f.dim)] = fill
    if layout == "F":
        params = np.asfortranarray(params)
    elif layout == "strided":
        params = np.repeat(params, 2, axis=-1)[..., ::2]
    with np.errstate(all="ignore"):
        loss, expected = mlp_value_and_gradient(spec, data, params)
        gradient = f.gradient(params)
        value, joint = f.value_and_gradient(params)
    assert gradient.shape == joint.shape == lead + (f.dim,)
    assert gradient.tobytes() == expected.tobytes()
    assert joint.tobytes() == expected.tobytes()
    assert np.shape(value) == lead and value.tobytes() == loss.tobytes()


def _held_arrays(function):
    """Every array that a function's closure holds, through the functions it holds."""
    cells = [cell.cell_contents for cell in function.__closure__ or ()]
    return ([c for c in cells if isinstance(c, np.ndarray)]
            + [a for c in cells if callable(c) and hasattr(c, "__closure__")
               for a in _held_arrays(c)])


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(k=st.sampled_from(sorted(_NETS)), lead=st.sampled_from([(), (1,), (3,)]),
       seed=st.integers(0, 2**32 - 1), scale=st.floats(0.05, 5.0))
def test_evaluators_write_only_to_their_own_arrays(k, lead, seed, scale):
    # the passes update activations and deltas in place: the caller's parameters
    # and the objective's data (inputs, labels, one-hot targets) stay as they were,
    # and two calls return equal results in memory of their own
    f = _NETS[k]
    params = scale * np.random.default_rng(seed).standard_normal(lead + (f.dim,))
    before = params.copy()
    evaluators = (f.value, f.gradient, f.value_and_gradient, f.hessian)
    held = [a for evaluate in evaluators for a in _held_arrays(evaluate)]
    assert len(held) >= 3
    held_before = [a.copy() for a in held]
    for evaluate in evaluators:
        first, second = ([np.asarray(r) for r in (out if isinstance(out, tuple) else (out,))]
                         for out in (evaluate(params), evaluate(params)))
        assert params.tobytes() == before.tobytes()
        for a, b in zip(first, second):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        results = first + second
        assert not any(np.shares_memory(a, b) for i, a in enumerate(results)
                       for b in results[i + 1:] + [params])
    assert all(a.tobytes() == b.tobytes() for a, b in zip(held, held_before))


def test_one_evaluation_keeps_a_small_working_set():
    # a 10-row evaluation of the 2-8-8-2 network on 100 samples allocates only the
    # activations and deltas it keeps: with pre-activations, masks and out-of-place
    # temporaries, value_and_gradient peaked at about 9.3 hidden-activation sizes
    # and value at about 5.2
    spec = MlpSpec((2, 8, 8, 2))
    f = mlp_objective(spec, make_blobs(50, 2, 2, 1.0, seed=0))
    params = np.array([init_params(spec, child) for child in np.random.SeedSequence(0).spawn(10)])
    hidden = 10 * 8 * 100 * 8  # bytes of 10 rows x 8 units x 100 samples
    for evaluate, limit in ((f.value_and_gradient, 6), (f.value, 4)):
        evaluate(params)  # first-call allocations stay outside the trace
        tracemalloc.start()
        try:
            evaluate(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit * hidden, f"{evaluate.__name__}: {peak / hidden:.2f} sizes"


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(k=st.integers(2, 10), lead=st.sampled_from([(), (3,), (2, 3)]),
       seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-3, 1e3))
def test_log_softmax_keeps_the_bits_of_the_reduce_form(k, lead, seed, scale):
    # the max and the sum over the class rows of (..., k, m) must round exactly
    # as a reduce that takes those rows one after another, at every k: no
    # class count may switch them to numpy's pairwise sum
    logits = scale * np.random.default_rng(seed).standard_normal(lead + (k, 50))
    shifted = logits - reduce(np.maximum, np.moveaxis(logits, -2, 0))[..., None, :]
    total = reduce(np.add, np.moveaxis(np.exp(shifted), -2, 0))
    reduced = shifted - np.log(total)[..., None, :]
    assert _log_softmax(logits).tobytes() == reduced.tobytes()


@pytest.mark.parametrize("build, match", [
    (lambda: Dataset(inputs=np.zeros(3), labels=np.zeros(3, dtype=int)),
     "inputs must be a 2-D array"),
    (lambda: make_blobs(0, 2, 2, 1.0, seed=0), "n_per_class, classes, and dim must be positive"),
    (lambda: make_blobs(2, 2, 2, np.nan, seed=0), "separation must be non-negative"),
    (lambda: make_blobs(2, 2, 2, np.inf, seed=0), "separation must be non-negative"),
    (lambda: Dataset(inputs=np.zeros((2, 2)), labels=[0, np.inf]), "labels must be class indices"),
    (lambda: unpack_params(MlpSpec((2, 8, 8, 2)), np.zeros(5)),
     r"expected 114 parameters, got shape \(5,\)"),
    (lambda: mlp_objective(MlpSpec((3, 4, 4, 2)), make_blobs(2, 2, 2, 1.0, seed=0)),
     "dataset feature dimension does not match the input width"),
], ids=["dataset_rank", "blob_count", "separation_nan", "separation_inf",
        "labels_inf", "parameter_count", "feature_dimension"])
def test_malformed_network_input_is_named(build, match):
    with pytest.raises(ValueError, match=match):
        build()
