"""Small feed-forward value network with analytic backpropagation.

ReLU hidden layers, linear scalar output, mean-squared-error loss, plain SGD.
A ``ModelParams`` is layer sizes plus one float64 vector, ``vector`` (w0,
b0, w1, b1, ...), with ``weights`` and ``biases`` as views of it, so an SGD
step is one array operation over the vector.  Parameters and gradients are
both ``ModelParams``.  Training runs in place on working values that its
caller allocates: ``batch_grad`` writes a gradient into a given
``ModelParams`` and writes nothing else, and ``sgd_step`` steps a parameter
vector through a scratch vector and writes only those two.  MAML
(``transfer.maml_outer``) and online SGD (``trainer._train_on``) each
allocate their working values once per call, starting from a copy of their
input parameters, and return them.  Any other value is never written once
it is returned.  A forward pass writes only the arrays it allocates.
Constructing parameters checks shapes only: ``check_finite`` scans the
values, and runs when an SGD phase ends and when a checkpoint is loaded,
naming the phase or the file.
The network is trained on log1p-transformed latencies; ``latency_to_label``
maps milliseconds into that label space.  Training data is a (features,
labels) pair of float64 arrays that the program builds itself, so nothing
here re-checks it: a non-finite row shows up as non-finite parameters when
the phase ends.  ``predict_batch`` is the one forward pass callers use, over
a matrix of feature rows whose width the callers match to the network's
input layer.  It runs the output layer in fixed 16-row blocks, so a row's
score does not depend on the batch it is in: the replay ring's TD pass
scores each distinct state once and reads its values by id.
"""

from __future__ import annotations

import math
import zipfile
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ModelParams",
    "ModelError",
    "init_params",
    "predict_batch",
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
    """Map a nonnegative latency to the network's compressed label space.
    Callers pass latencies already known to be nonnegative."""
    return math.log1p(latency_ms)


def _vector_length(layer_sizes: tuple[int, ...]) -> int:
    """The number of weights and biases in a network of ``layer_sizes``."""
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]))


@dataclass(frozen=True)
class ModelParams:
    """Layer sizes plus one float64 ``vector`` holding every layer's weights
    and bias, laid out w0, b0, w1, b1, ...; ``weights`` (each [fan_in,
    fan_out]) and ``biases`` are views of it.  The vector is not copied:
    the caller hands it over.  Also the container for gradients."""

    layer_sizes: tuple[int, ...]
    vector: np.ndarray = field(repr=False)
    weights: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)
    biases: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sizes = self.layer_sizes
        if len(sizes) < 2:
            raise ModelError("need at least an input and an output layer")
        if min(sizes) < 1:
            raise ModelError("layer sizes must be >= 1")
        if sizes[-1] != 1:
            raise ModelError("output dimension must be 1")
        vector = np.asarray(self.vector, dtype=float)
        length = _vector_length(sizes)
        if vector.shape != (length,):
            raise ModelError(f"parameter vector of shape {vector.shape} != {(length,)}")
        weights, biases = [], []
        start = 0
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            stop = start + fan_in * fan_out
            weights.append(vector[start:stop].reshape(fan_in, fan_out))
            biases.append(vector[stop : stop + fan_out])
            start = stop + fan_out
        object.__setattr__(self, "vector", vector)
        object.__setattr__(self, "weights", tuple(weights))
        object.__setattr__(self, "biases", tuple(biases))


def init_params(layer_sizes: tuple[int, ...], rng_seed: int) -> ModelParams:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, zero biases."""
    sizes = tuple(int(s) for s in layer_sizes)
    rng = np.random.default_rng(rng_seed)
    layers = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / math.sqrt(fan_in)
        layers += [rng.uniform(-bound, bound, size=fan_in * fan_out), np.zeros(fan_out)]
    return ModelParams(sizes, np.concatenate(layers))


# Rows per block of ``predict_batch``'s output layer.
_BLOCK = 16


def _hidden(weights, biases, x: np.ndarray, last=None) -> list[np.ndarray]:
    """The activations of the input and of every hidden layer, ``x`` first.
    Each layer makes one new array, ``a @ w``, or, for the last hidden
    layer given ``last``, writes into the first ``len(x)`` rows of that
    C-contiguous matrix; the matmul has the same shape either way, so the
    bits are the same.  Then it adds the bias and applies the ReLU in
    place."""
    activations = [x]
    for i, (w, b) in enumerate(zip(weights[:-1], biases[:-1])):
        out = last[: len(x)] if last is not None and i == len(weights) - 2 else None
        a = np.matmul(activations[-1], w, out=out)
        a += b
        np.maximum(a, 0.0, out=a)
        activations.append(a)
    return activations


def predict_batch(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Forward pass over a float [n, d] matrix, d the network's input width;
    returns the n scalar outputs as a new array.  A row with an infinite
    feature (a plan whose cost overflowed) scores inf or NaN, and a model
    that diverged is reported when its SGD phase ends.

    A row's score does not depend on the batch it is in.  With numpy on
    OpenBLAS (0.3.31 measured), a row's bits out of a hidden layer are the
    same in any matmul of two or more rows, whereas numpy scores a 1-row
    matmul and the 1-unit output layer with gemv, whose bits depend on the
    row's place in the batch.  So a 1-row pass runs its hidden layers over
    the row twice, and the output layer runs over whole ``_BLOCK``-row
    blocks, one stacked matmul whose every block is one gemv of the same
    shape: the last hidden layer is written into a zero matrix of whole
    blocks, so only the last block holds padding, and nothing is copied.
    ``tests/test_model.py`` pins the property."""
    n, weights = len(features), params.weights
    x = features[[0, 0]] if n == 1 else features
    width = weights[-1].shape[0]
    blocks = np.zeros((-(-n // _BLOCK), _BLOCK, width))
    rows = blocks.reshape(-1, width)
    if len(weights) == 1:  # no hidden layer: the input is the output layer's
        rows[:n] = x[:n]
    else:
        _hidden(weights, params.biases, x, rows)
    scores = blocks @ weights[-1]
    scores += params.biases[-1]
    return scores.reshape(-1)[:n]


def batch_grad(params: ModelParams, features, labels, grad: ModelParams) -> None:
    """Write the analytic gradient of the mean squared error of ``params``
    on the rows ``features`` against ``labels`` into ``grad``'s vector,
    through its layer views.  Only ``grad`` is written; non-finite rows give
    a non-finite gradient, which ``check_finite`` finds in the parameters
    when the phase ends."""
    weights = params.weights
    activations = _hidden(weights, params.biases, features)
    predicted = activations[-1] @ weights[-1]
    predicted += params.biases[-1]
    # d(mean (pred - y)^2)/d pred = 2 (pred - y) / n
    delta = (2.0 / features.shape[0]) * (predicted[:, 0] - labels)[:, None]
    last = len(weights) - 1
    for layer in range(last, -1, -1):
        np.matmul(activations[layer].T, delta, out=grad.weights[layer])
        np.add.reduce(delta, axis=0, out=grad.biases[layer])
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


def sgd_step(vector: np.ndarray, grad: np.ndarray, lr: float, scratch: np.ndarray) -> None:
    """``vector - (grad * lr)``, element-wise, written into ``vector``;
    ``scratch``, of the same length, holds ``grad * lr``."""
    np.multiply(grad, lr, out=scratch)
    np.subtract(vector, scratch, out=vector)


def check_finite(params: ModelParams, where: str) -> ModelParams:
    """``params``, after raising ModelError for the first layer holding a
    NaN or infinite weight or bias, naming ``where`` the values came from:
    a phase of a run, or a checkpoint file."""
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ModelError(f"{where}: layer {i}: non-finite parameter")
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
    unreadable or malformed file, a layer array whose shape disagrees with
    the file's layer sizes, or a non-finite value raises one ModelError
    naming the file."""
    try:
        with np.load(path) as data:
            version = data["format_version"]
            if version.shape != () or int(version) != CHECKPOINT_FORMAT_VERSION:
                raise ModelError(f"unsupported checkpoint format version {version}")
            sizes = tuple(int(s) for s in data["layer_sizes"])
            params = ModelParams(sizes, np.empty(_vector_length(sizes)))
            for i, layer in enumerate(zip(params.weights, params.biases)):
                for kind, view, key in zip(("weight", "bias"), layer, (f"w{i}", f"b{i}")):
                    array = data[key]
                    if array.shape != view.shape:
                        raise ModelError(f"layer {i}: {kind} shape {array.shape} != {view.shape}")
                    view[...] = array
    except FileNotFoundError:
        raise ModelError(f"{path}: checkpoint not found") from None
    except KeyError as exc:
        raise ModelError(f"{path}: malformed checkpoint, missing {exc.args[0]!r}") from None
    except (OSError, EOFError, ValueError, TypeError, zipfile.BadZipFile) as exc:
        # ModelError included: a ValueError.
        raise ModelError(f"{path}: {exc}") from None
    return check_finite(params, str(path))
