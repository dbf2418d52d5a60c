"""A small fully connected ReLU network as an objective over its parameters.

The loss is softmax cross-entropy averaged over the dataset; gradients come
from exact backpropagation with subgradient 0 at the ReLU kink, and Hessians
are exact too: Pearlmutter's R-operator differentiates that backpropagation
along unit directions with the ReLU masks frozen. Each evaluator, and the
one-pass value_and_gradient, takes a vector (n,) or a batch (..., n) natively:
stacked matrix products carry the leading axes, and nothing loops over rows.
The gradient and the Hessian share one layout: every activation and delta is
(..., width, samples), with the samples on the contiguous last axis. Each pass
allocates only the arrays it keeps: no pre-activations (a hidden activation a is
its own ReLU mask a > 0, which is z > 0 bit for bit), and no per-layer gradient
parts, which matmul and add.reduce write into unpack_params views of one g.
With two or more hidden layers the loss surface carries non-strict saddle
points (the all-zero parameter vector is one for class-balanced data), which
makes these networks the natural stress test for regularized descent.

Parameter vector layout (public contract): layer by layer, each layer's
weight matrix of shape (fan_out, fan_in) raveled row-major, followed by its
bias vector of length fan_out.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import symmetrize
from .objectives import Objective


@dataclass
class MlpSpec:
    """Layer widths (input, hidden..., output); at least two hidden layers."""

    layer_widths: tuple

    def __post_init__(self):
        widths = self.layer_widths = tuple(int(w) for w in self.layer_widths)
        if len(widths) < 4:
            raise ValueError("need at least two hidden layers (four widths)")
        if any(w < 1 for w in widths):
            raise ValueError("all widths must be at least 1")
        # set once: every unpack_params call checks its input against it
        self.n_params = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(widths, widths[1:]))

    @property
    def n_layers(self):
        return len(self.layer_widths) - 1


@dataclass
class Dataset:
    inputs: np.ndarray  # (m, d)
    labels: np.ndarray  # (m,) int class indices

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        if self.inputs.ndim != 2:
            raise ValueError("inputs must be a 2-D array")
        if len(self.inputs) != len(self.labels):
            raise ValueError("inputs and labels have different lengths")
        if len(self.inputs) == 0:
            raise ValueError("dataset is empty")


def make_blobs(n_per_class, classes, dim, separation, seed):
    """Gaussian clusters with unit scatter, class means `separation` apart.

    Means sit on the first axis at spacing `separation`, centered at the
    origin. Deterministic for a given seed.
    """
    if n_per_class < 1 or classes < 1 or dim < 1:
        raise ValueError("n_per_class, classes, and dim must be positive")
    if separation < 0:
        raise ValueError("separation must be non-negative")
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(classes), n_per_class)
    means = np.zeros((classes, dim))
    means[:, 0] = (np.arange(classes) - (classes - 1) / 2.0) * separation
    inputs = means[labels] + rng.standard_normal((len(labels), dim))
    return Dataset(inputs=inputs, labels=labels)


def unpack_params(spec, params):
    """Split parameter rows (..., n) into per-layer views: weights (..., fan_out,
    fan_in) and biases (..., fan_out)."""
    rows = np.asarray(params, dtype=float)
    if rows.shape[-1:] != (spec.n_params,):
        raise ValueError(f"expected {spec.n_params} parameters, got shape {rows.shape}")
    widths = spec.layer_widths
    lead = rows.shape[:-1]
    Ws, bs, pos = [], [], 0
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        Ws.append(rows[..., pos:pos + fan_in * fan_out].reshape(lead + (fan_out, fan_in)))
        pos += fan_in * fan_out
        bs.append(rows[..., pos:pos + fan_out])
        pos += fan_out
    return Ws, bs


def pack_params(Ws, bs):
    """Inverse of unpack_params: per-layer weights and biases to rows (..., n)."""
    return np.concatenate([part for W, b in zip(Ws, bs) for part in
                           (np.reshape(W, np.shape(W)[:-2] + (-1,)), b)], axis=-1, dtype=float)


def init_params(spec, seed):
    """Weights uniform in [-s, s] with s = 1/sqrt(fan_in); biases zero."""
    rng = np.random.default_rng(seed)
    params = np.zeros(spec.n_params)
    for W in unpack_params(spec, params)[0]:
        s = 1.0 / np.sqrt(W.shape[1])
        W[...] = rng.uniform(-s, s, size=W.shape)
    return params


def _forward(Ws, bs, a):
    """(activations per layer, log-softmax), each (..., width, m); the bias and
    the ReLU go in place, and a hidden activation a serves as its ReLU mask a > 0."""
    activations = [a]
    for W, b in zip(Ws, bs):
        z = W @ activations[-1]
        z += b[..., None]
        if len(activations) < len(Ws):
            activations.append(np.maximum(z, 0.0, out=z))
    return activations, _log_softmax(z)


def _backward(Ws, activations, ls, onehot):
    """Per-layer output deltas of the mean cross-entropy, ReLU masks a > 0."""
    deltas = [np.exp(ls)]
    deltas[0] -= onehot
    deltas[0] /= ls.shape[-1]
    for W, a in zip(Ws[:0:-1], activations[:0:-1]):
        deltas.insert(0, W.mT @ deltas[0])
        deltas[0] *= a > 0.0
    return deltas


def _log_softmax(logits):
    # over the class rows of a C-contiguous (..., k, m): numpy adds those rows one
    # after another, so this rounds as a reduce over them does at every k
    shifted = logits - logits.max(axis=-2, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-2, keepdims=True))


def mlp_objective(spec, dataset):
    """Softmax cross-entropy of the network as an Objective over flat parameters."""
    if dataset.inputs.shape[1] != spec.layer_widths[0]:
        raise ValueError("dataset feature dimension does not match the input width")
    if dataset.labels.max() >= spec.layer_widths[-1]:
        raise ValueError("labels exceed the output width")
    X = np.ascontiguousarray(dataset.inputs.T)
    y = dataset.labels
    m = len(y)
    onehot = np.ascontiguousarray(np.eye(spec.layer_widths[-1])[y].T)
    n = spec.n_params

    def loss(ls):
        # -mean's bits, NaN's sign included; the fancy index leaves each row's picked
        # entries strided, and a strided sum rounds differently from the contiguous one
        return -(np.add.reduce(np.ascontiguousarray(ls[..., y, np.arange(m)]), axis=-1) / m)

    def value(params):
        return loss(_forward(*unpack_params(spec, params), X)[1])

    def backprop(params):
        Ws, bs = unpack_params(spec, params)
        activations, ls = _forward(Ws, bs, X)
        deltas = _backward(Ws, activations, ls, onehot)
        g = np.empty(ls.shape[:-2] + (n,))
        for d, a, gW, gb in zip(deltas, activations, *unpack_params(spec, g)):
            np.matmul(d, a.mT, out=gW)
            np.add.reduce(d, axis=-1, out=gb)
        return ls, g

    def gradient(params):
        return backprop(params)[1]

    def value_and_gradient(params):
        ls, g = backprop(params)
        return loss(ls), g

    # one block per unit: its incoming weights and its bias (at most fan_in + 1
    # directions), which keeps the R-operator's working set small
    unit_blocks = [np.append(w, b).astype(int)
                   for Wi, bi in zip(*unpack_params(spec, np.arange(n))) for w, b in zip(Wi, bi)]

    def hessian(params):
        # Pearlmutter's R-operator: row j of H is the derivative of `gradient`
        # along e_j with the ReLU masks frozen; one unit's directions at a
        # time, on a directions axis placed before each layer's last two axes
        Ws, bs = unpack_params(spec, params)
        activations, ls = _forward(Ws, bs, X)
        deltas = _backward(Ws, activations, ls, onehot)
        Ws, activations, deltas = ([A[..., None, :, :] for A in arrays]
                                   for arrays in (Ws, activations, deltas))
        masks = [a > 0.0 for a in activations[1:]]
        p = np.exp(ls)[..., None, :, :]
        H = np.empty(ls.shape[:-2] + (n, n))
        for block in unit_blocks:
            dWs, dbs = unpack_params(spec, block[:, None] == np.arange(n))  # unit directions
            Ras = [np.zeros((len(block),) + X.shape)]
            for i, (W, dW, db) in enumerate(zip(Ws, dWs, dbs)):
                Rz = W @ Ras[i]
                Rz += dW @ activations[i]
                Rz += db[..., None]
                if i < len(masks):
                    Ras.append(np.multiply(Rz, masks[i], out=Rz))
            Rz -= (p * Rz).sum(axis=-2, keepdims=True)
            Rd = np.divide(np.multiply(Rz, p, out=Rz), m, out=Rz)
            RgWs, Rgbs = [None] * spec.n_layers, [None] * spec.n_layers
            for i in range(spec.n_layers - 1, -1, -1):
                RgWs[i] = Rd @ activations[i].mT + deltas[i] @ Ras[i].mT
                Rgbs[i] = Rd.sum(axis=-1)
                if i > 0:
                    Rd = Ws[i].mT @ Rd
                    Rd += dWs[i].mT @ deltas[i]
                    Rd *= masks[i - 1]
            H[..., block, :] = pack_params(RgWs, Rgbs)
        return symmetrize(H)

    return Objective(
        name=f"mlp{'x'.join(str(w) for w in spec.layer_widths)}",
        dim=n,
        value=value,
        gradient=gradient,
        hessian=hessian,
        domain_box=np.repeat([[-5.0, 5.0]], n, axis=0),
        lipschitz_hint=None,
        value_and_gradient=value_and_gradient,
    )
