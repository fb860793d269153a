"""Small feed-forward value network with analytic backpropagation.

ReLU hidden layers, linear scalar output, mean-squared-error loss, plain SGD.
A ``ModelParams`` holds every layer's weights and bias in one float64
vector, ``vector`` (w0, b0, w1, b1, ...), with ``weights`` and ``biases`` as
views of it, so an SGD step is one array operation over the vector.  A
``ModelParams`` value is never written once it is returned, and inputs are
never written: ``sgd_step`` and ``batch_grad`` return new values, and a
forward pass writes only the arrays it allocated.  The one routine that
writes parameters in place is ``transfer``'s MAML kernel, and only into the
working vectors it allocates: the adapted parameters, the gradient, the sum
of task gradients, scratch and the outer parameters, a copy of its input.
``backprop`` writes a gradient into given layer arrays; ``batch_grad`` and
that kernel both use it.
Constructing parameters checks shapes only: ``check_finite`` scans the
values, and runs when an SGD phase ends and when a checkpoint is loaded.
The network is trained on log1p-transformed latencies; ``latency_to_label``
maps milliseconds into that label space.  ``predict_batch`` is the one
forward pass callers use, over a matrix of feature rows.
"""

from __future__ import annotations

import math
import zipfile
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ModelParams",
    "TrainBatch",
    "ModelError",
    "init_params",
    "predict_batch",
    "batch_loss",
    "batch_grad",
    "backprop",
    "layer_views",
    "sgd_step",
    "check_finite",
    "save_params",
    "load_params",
    "latency_to_label",
]

CHECKPOINT_FORMAT_VERSION = 1


class ModelError(ValueError):
    """Raised for shape mismatches and malformed checkpoints."""


def latency_to_label(latency_ms: float) -> float:
    """Map a nonnegative latency to the network's compressed label space.
    Callers pass latencies already known to be nonnegative."""
    return math.log1p(latency_ms)


def layer_views(
    layer_sizes: tuple[int, ...], vector: np.ndarray
) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """The weight matrices ([fan_in, fan_out]) and bias vectors of a network
    of ``layer_sizes``, as views of ``vector`` laid out w0, b0, w1, b1, ...;
    raises ModelError if ``vector`` is not exactly that long."""
    weights, biases = [], []
    start = 0
    for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
        stop = start + fan_in * fan_out
        weights.append(vector[start:stop].reshape(fan_in, fan_out))
        biases.append(vector[stop : stop + fan_out])
        start = stop + fan_out
    if vector.shape != (start,):
        raise ModelError(f"parameter vector of shape {vector.shape} != {(start,)}")
    return tuple(weights), tuple(biases)


@dataclass(frozen=True)
class ModelParams:
    """Layer sizes plus per-layer weight matrices ([fan_in, fan_out]) and
    bias vectors, held as views of one float64 ``vector``.  Constructing one
    from arrays copies them into a new vector; ``from_vector`` wraps a
    vector without copying.  Also reused as the container for gradients."""

    layer_sizes: tuple[int, ...]
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    vector: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sizes = self.layer_sizes
        if len(sizes) < 2:
            raise ModelError("need at least an input and an output layer")
        if any(s < 1 for s in sizes):
            raise ModelError("layer sizes must be >= 1")
        if sizes[-1] != 1:
            raise ModelError("output dimension must be 1")
        if len(self.weights) != len(sizes) - 1 or len(self.biases) != len(sizes) - 1:
            raise ModelError("one weight matrix and bias vector per layer required")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (sizes[i], sizes[i + 1]):
                raise ModelError(
                    f"layer {i}: weight shape {w.shape} != {(sizes[i], sizes[i + 1])}"
                )
            if b.shape != (sizes[i + 1],):
                raise ModelError(f"layer {i}: bias shape {b.shape} != {(sizes[i + 1],)}")
        arrays = [a.ravel() for layer in zip(self.weights, self.biases) for a in layer]
        vector = np.concatenate(arrays, dtype=float)
        weights, biases = layer_views(sizes, vector)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "biases", biases)
        object.__setattr__(self, "vector", vector)

    @classmethod
    def from_vector(cls, layer_sizes: tuple[int, ...], vector: np.ndarray) -> "ModelParams":
        """Parameters of the same ``layer_sizes`` as an existing value, whose
        layers are views of ``vector``.  The vector is not copied: the caller
        hands it over and writes it no more."""
        params = object.__new__(cls)
        weights, biases = layer_views(layer_sizes, vector)
        object.__setattr__(params, "layer_sizes", layer_sizes)
        object.__setattr__(params, "weights", weights)
        object.__setattr__(params, "biases", biases)
        object.__setattr__(params, "vector", vector)
        return params

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]


@dataclass(frozen=True)
class TrainBatch:
    features: np.ndarray  # [n, d]
    labels: np.ndarray  # [n]

    def __post_init__(self):
        features = np.asarray(self.features, dtype=float)
        labels = np.asarray(self.labels, dtype=float)
        if features.ndim != 2:
            raise ModelError("features must be a 2-D array [n, d]")
        if labels.shape != (features.shape[0],):
            raise ModelError("labels must match the number of feature rows")
        if features.shape[0] < 1:
            raise ModelError("batch must be nonempty")
        if not (np.isfinite(features).all() and np.isfinite(labels).all()):
            raise ModelError("batch contains non-finite values")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.features.shape[0]


def init_params(layer_sizes: tuple[int, ...], rng_seed: int) -> ModelParams:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, zero biases."""
    sizes = tuple(int(s) for s in layer_sizes)
    rng = np.random.default_rng(rng_seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / math.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return ModelParams(sizes, tuple(weights), tuple(biases))


def _forward(weights, biases, x: np.ndarray) -> list[np.ndarray]:
    """The activations of every layer, ``x`` first.  Each layer makes one
    new array, ``a @ w``, and adds the bias and applies the ReLU to it in
    place."""
    activations = [x]
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        a = activations[-1] @ w
        a += b
        if i < last:
            np.maximum(a, 0.0, out=a)
        activations.append(a)
    return activations


def predict_batch(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Forward pass over a [n, d] matrix; returns the n scalar outputs."""
    features = np.asarray(features, dtype=float)
    if features.ndim != 2 or features.shape[1] != params.input_dim:
        raise ModelError(
            f"expected features of shape [n, {params.input_dim}], got {features.shape}"
        )
    return _forward(params.weights, params.biases, features)[-1][:, 0]


def batch_loss(params: ModelParams, batch: TrainBatch) -> float:
    """Mean squared error of predictions against batch labels."""
    preds = predict_batch(params, batch.features)
    diff = preds - batch.labels
    return float(np.mean(diff * diff))


def backprop(weights, biases, features, labels, grad_weights, grad_biases) -> None:
    """Write the analytic gradient of the mean squared error of the network
    (``weights``, ``biases``) on the rows ``features`` against ``labels``
    into the arrays ``grad_weights`` and ``grad_biases``, shaped like the
    layers.  The inputs are checked by the caller and not written."""
    activations = _forward(weights, biases, features)
    # d(mean (pred - y)^2)/d pred = 2 (pred - y) / n
    delta = (2.0 / features.shape[0]) * (activations[-1][:, 0] - labels)[:, None]
    last = len(weights) - 1
    for layer in range(last, -1, -1):
        np.matmul(activations[layer].T, delta, out=grad_weights[layer])
        np.add.reduce(delta, axis=0, out=grad_biases[layer])
        if layer > 0:
            if layer == last:
                # One output unit: each element of delta @ w.T is a single
                # product, so the broadcast product gives the same values.
                delta = delta * weights[layer][:, 0]
            else:
                delta = delta @ weights[layer].T
            # relu(z) > 0 exactly where z > 0, so the layer's own output
            # gives the ReLU mask.
            delta *= activations[layer] > 0


def batch_grad(params: ModelParams, batch: TrainBatch) -> ModelParams:
    """Analytic gradient of batch_loss, shaped like the parameters."""
    grad = ModelParams.from_vector(params.layer_sizes, np.empty_like(params.vector))
    backprop(
        params.weights, params.biases, batch.features, batch.labels,
        grad.weights, grad.biases,
    )
    return grad


def sgd_step(params: ModelParams, grad: ModelParams, lr: float) -> ModelParams:
    """params - lr * grad, element-wise over the one parameter vector, for a
    ``grad`` from ``batch_grad`` of parameters of the same layer sizes;
    inputs are left untouched."""
    step = grad.vector * lr
    np.subtract(params.vector, step, out=step)
    return ModelParams.from_vector(params.layer_sizes, step)


def check_finite(params: ModelParams) -> ModelParams:
    """``params``, after raising ModelError for the first layer holding a
    NaN or infinite weight or bias."""
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ModelError(f"layer {i}: non-finite parameter")
    return params


def save_params(params: ModelParams, path) -> None:
    """Versioned npz checkpoint; round-trips bit-exactly."""
    arrays = {
        "format_version": np.array(CHECKPOINT_FORMAT_VERSION),
        "layer_sizes": np.array(params.layer_sizes),
    }
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        arrays[f"w{i}"] = w
        arrays[f"b{i}"] = b
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_params(path) -> ModelParams:
    """The checkpoint ``save_params`` wrote to ``path``.  A missing,
    unreadable or malformed file raises one ModelError naming it."""
    try:
        with np.load(path) as data:
            version = data["format_version"]
            if version.shape != () or int(version) != CHECKPOINT_FORMAT_VERSION:
                raise ModelError(f"unsupported checkpoint format version {version}")
            sizes = tuple(int(s) for s in data["layer_sizes"])
            weights = tuple(data[f"w{i}"] for i in range(len(sizes) - 1))
            biases = tuple(data[f"b{i}"] for i in range(len(sizes) - 1))
            params = ModelParams(sizes, weights, biases)
    except FileNotFoundError:
        raise ModelError(f"{path}: checkpoint not found") from None
    except KeyError as exc:
        raise ModelError(f"{path}: malformed checkpoint, missing {exc.args[0]!r}") from None
    except (OSError, EOFError, ValueError, TypeError, zipfile.BadZipFile) as exc:
        # ModelError included: a ValueError.
        raise ModelError(f"{path}: {exc}") from None
    return check_finite(params)
