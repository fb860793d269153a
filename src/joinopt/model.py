"""Small feed-forward value network with analytic backpropagation.

ReLU hidden layers, linear scalar output, mean-squared-error loss, plain SGD.
Parameters and inputs are never written: every operation returns new arrays,
and a forward pass writes only the arrays it allocated.
Constructing them checks shapes only: ``check_finite`` scans the values, and
runs when an SGD phase ends and when a checkpoint is loaded.  The
network is trained on log1p-transformed latencies; ``latency_to_label`` maps
milliseconds into that label space.  ``predict_batch`` is the one forward
pass callers use, over a matrix of feature rows.
"""

from __future__ import annotations

import math
import zipfile
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelParams",
    "TrainBatch",
    "ModelError",
    "init_params",
    "predict_batch",
    "batch_loss",
    "batch_grad",
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
    """Map a nonnegative latency to the network's compressed label space."""
    if latency_ms < 0:
        raise ModelError("latency must be >= 0")
    return math.log1p(latency_ms)


@dataclass(frozen=True)
class ModelParams:
    """Layer sizes plus per-layer weight matrices ([fan_in, fan_out]) and
    bias vectors.  Also reused as the container for gradients."""

    layer_sizes: tuple[int, ...]
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

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


def _forward(params: ModelParams, x: np.ndarray) -> list[np.ndarray]:
    """The activations of every layer, ``x`` first.  Each layer makes one
    new array, ``a @ w``, and adds the bias and applies the ReLU to it in
    place."""
    activations = [x]
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
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
    return _forward(params, features)[-1][:, 0]


def batch_loss(params: ModelParams, batch: TrainBatch) -> float:
    """Mean squared error of predictions against batch labels."""
    preds = predict_batch(params, batch.features)
    diff = preds - batch.labels
    return float(np.mean(diff * diff))


def batch_grad(params: ModelParams, batch: TrainBatch) -> ModelParams:
    """Analytic gradient of batch_loss, shaped like the parameters."""
    n = len(batch)
    activations = _forward(params, batch.features)
    preds = activations[-1][:, 0]
    # d(mean (pred - y)^2)/d pred = 2 (pred - y) / n
    delta = (2.0 / n) * (preds - batch.labels)[:, None]
    grads_w = [None] * len(params.weights)
    grads_b = [None] * len(params.biases)
    for layer in range(len(params.weights) - 1, -1, -1):
        grads_w[layer] = activations[layer].T @ delta
        grads_b[layer] = delta.sum(axis=0)
        if layer > 0:
            # relu(z) > 0 exactly where z > 0, so the layer's own output
            # gives the ReLU mask.
            delta = (delta @ params.weights[layer].T) * (activations[layer] > 0)
    return ModelParams(params.layer_sizes, tuple(grads_w), tuple(grads_b))


def sgd_step(params: ModelParams, grad: ModelParams, lr: float) -> ModelParams:
    """params - lr * grad, element-wise, for a ``grad`` from ``batch_grad``
    of parameters of the same layer sizes; inputs are left untouched."""
    weights = tuple(w - lr * g for w, g in zip(params.weights, grad.weights))
    biases = tuple(b - lr * g for b, g in zip(params.biases, grad.biases))
    return ModelParams(params.layer_sizes, weights, biases)


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
