import math

import numpy as np
import pytest

from joinopt.model import (
    ModelError,
    ModelParams,
    batch_grad,
    init_params,
    load_params,
    predict_batch,
    save_params,
    sgd_step,
)

from conftest import batch_loss, gradient


# --- independent oracles ------------------------------------------------------

def forward_oracle(params, x):
    """Second forward-pass implementation: plain Python loops, no matmul."""
    activ = list(x)
    n_layers = len(params.weights)
    for layer in range(n_layers):
        w, b = params.weights[layer], params.biases[layer]
        out = []
        for j in range(w.shape[1]):
            z = b[j]
            for i in range(w.shape[0]):
                z += activ[i] * w[i][j]
            if layer < n_layers - 1:
                z = max(z, 0.0)
            out.append(z)
        activ = out
    return activ[0]


def finite_difference_grad(params, batch, h=1e-4):
    """Central differences on every coordinate of every parameter array;
    ``batch`` is a (features, labels) pair."""
    grads_w = []
    grads_b = []
    for layer in range(len(params.weights)):
        for which, grads in (("weights", grads_w), ("biases", grads_b)):
            arr = getattr(params, which)[layer]
            grad = np.zeros_like(arr)
            for idx in np.ndindex(arr.shape):
                for sign in (+1, -1):
                    bumped = ModelParams(params.layer_sizes, params.vector.copy())
                    getattr(bumped, which)[layer][idx] += sign * h
                    grad[idx] += sign * batch_loss(bumped, *batch)
                grad[idx] /= 2 * h
            grads.append(grad)
    return grads_w, grads_b


def make_linear_model(weight, bias=0.0):
    return ModelParams((1, 1), np.array([float(weight), float(bias)]))


# --- init ---------------------------------------------------------------------

def test_params_are_views_of_one_vector(rng):
    """Layers are laid out w0, b0, w1, b1, ... in the one float64 vector the
    constructor is given, which it holds without copying, so an SGD step on
    the vector moves every layer; a vector of any other shape is refused."""
    sizes = (3, 4, 2, 1)
    weights = tuple(rng.normal(size=(a, b)) for a, b in zip(sizes, sizes[1:]))
    biases = tuple(rng.normal(size=b) for b in sizes[1:])
    vector = np.concatenate([a.ravel() for layer in zip(weights, biases) for a in layer])
    params = ModelParams(sizes, vector)
    assert params.vector is vector
    for got, given in zip(params.weights + params.biases, weights + biases):
        assert np.shares_memory(got, vector)
        assert got.shape == given.shape and got.tobytes() == given.tobytes()
    sgd_step(params.vector, np.ones_like(vector), 0.5, np.empty_like(vector))
    for got, given in zip(params.weights + params.biases, weights + biases):
        assert np.array_equal(got, given - 0.5)
    for bad in (np.zeros(vector.size + 1), np.zeros(vector.size - 1), vector[None, :]):
        with pytest.raises(ModelError, match="parameter vector"):
            ModelParams(sizes, bad)


def test_init_deterministic():
    """The same seed gives the same bits: each layer's weights drawn in
    turn, as one [fan_in, fan_out] array each, and zero biases."""
    a = init_params((4, 8, 1), 7)
    b = init_params((4, 8, 1), 7)
    assert a.vector.tobytes() == b.vector.tobytes()
    rng = np.random.default_rng(7)
    for fan_in, w in zip((4, 8), a.weights):
        bound = 1.0 / math.sqrt(fan_in)
        assert w.tobytes() == rng.uniform(-bound, bound, size=w.shape).tobytes()


def test_init_biases_zero_and_bounds():
    params = init_params((9, 16, 1), 3)
    for b in params.biases:
        assert np.all(b == 0.0)
    for size, w in zip(params.layer_sizes, params.weights):
        assert np.abs(w).max() <= 1.0 / math.sqrt(size)


def test_init_rejects_bad_output():
    with pytest.raises(ModelError, match="output dimension"):
        init_params((4, 2), 0)


# --- predict ------------------------------------------------------------------

def test_predict_zero_params():
    params = ModelParams((3, 2, 1), np.zeros(11))
    for x in (np.zeros(3), np.ones(3), np.array([5.0, -2.0, 0.1])):
        assert predict_batch(params, x[None, :])[0] == 0.0


def test_predict_single_linear_layer():
    params = make_linear_model(2.5)
    assert predict_batch(params, np.array([[3.0]]))[0] == pytest.approx(7.5)


def test_predict_matches_independent_oracle(rng):
    for _ in range(10):
        sizes = (int(rng.integers(2, 6)), int(rng.integers(2, 8)), 1)
        params = init_params(sizes, int(rng.integers(1000)))
        x = rng.normal(size=sizes[0])
        got = predict_batch(params, x[None, :])[0]
        assert got == pytest.approx(forward_oracle(params, x), rel=1e-12)


def test_predict_batch_matches_one_row_passes(rng):
    params = init_params((5, 7, 1), 11)
    X = rng.normal(size=(6, 5))
    batched = predict_batch(params, X)
    assert batched == pytest.approx([predict_batch(params, row[None, :])[0] for row in X])


# --- bit for bit against the earlier forward pass --------------------------------

def reference_forward(params, x):
    """The earlier forward pass, kept as the reference: ``a @ w + b`` and
    ``np.maximum`` as new arrays, with the pre-activations kept."""
    pre, activations = [], [x]
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = activations[-1] @ w + b
        pre.append(z)
        activations.append(z if i == last else np.maximum(z, 0.0))
    return pre, activations


def reference_scores(params, x):
    """The reference forward pass's outputs, scored as ``predict_batch``
    scores them: a 1-row batch's hidden layers run on the row twice, and the
    output layer runs over the last hidden layer's rows zero-padded to whole
    16-row blocks, one matmul per block."""
    _, activations = reference_forward(params, np.repeat(x, 2, axis=0) if len(x) == 1 else x)
    hidden = activations[-2][: len(x)]
    padded = np.zeros((-(-len(x) // 16) * 16, hidden.shape[1]))
    padded[: len(x)] = hidden
    w, b = params.weights[-1], params.biases[-1]
    blocks = [block @ w + b for block in padded.reshape(-1, 16, hidden.shape[1])]
    return np.concatenate(blocks)[: len(x), 0]


def reference_grad(params, batch):
    """The earlier backward pass: ReLU masks from the pre-activations;
    ``batch`` is a (features, labels) pair."""
    features, labels = batch
    pre, activations = reference_forward(params, features)
    delta = (2.0 / len(features)) * (activations[-1][:, 0] - labels)[:, None]
    grads_w, grads_b = [None] * len(params.weights), [None] * len(params.weights)
    for layer in range(len(params.weights) - 1, -1, -1):
        grads_w[layer] = activations[layer].T @ delta
        grads_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ params.weights[layer].T) * (pre[layer - 1] > 0)
    return grads_w, grads_b


def assert_matches_reference_bits(params, x, labels):
    assert predict_batch(params, x).tobytes() == reference_scores(params, x).tobytes()
    grad = gradient(params, x, labels)
    want_w, want_b = reference_grad(params, (x, labels))
    for got, want in zip(grad.weights + grad.biases, want_w + want_b):
        assert got.tobytes() == want.tobytes()


def test_forward_and_gradient_match_reference_bits(rng):
    for sizes in ((5, 7, 1), (6, 8, 5, 1), (14, 64, 64, 1)):
        params = init_params(sizes, int(rng.integers(1000)))
        for n in (1, 3, 64, 257):
            x = rng.normal(size=(n, sizes[0])) * 3
            assert_matches_reference_bits(params, x, rng.normal(size=n))


def test_forward_and_gradient_match_reference_bits_at_zero_pre_activations(rng):
    """Small integers make many hidden pre-activations exactly 0.0; inputs
    and biases hold -0.0 too.  A matmul's sums start from +0.0 here, so a
    -0.0 pre-activation is checked on the ReLU mask identity directly."""
    sizes = (3, 4, 3, 1)
    weights = tuple(
        rng.integers(-2, 3, size=(a, b)).astype(float) for a, b in zip(sizes, sizes[1:])
    )
    biases = tuple(
        np.where(rng.integers(0, 2, size=b) > 0, -0.0, rng.integers(-2, 3, size=b))
        for b in sizes[1:]
    )
    params = ModelParams(
        sizes, np.concatenate([a.ravel() for layer in zip(weights, biases) for a in layer])
    )
    x = rng.integers(-2, 3, size=(200, 3)).astype(float)
    x[x == 0] = -0.0
    pre, _ = reference_forward(params, x)
    assert (pre[0] == 0.0).any() and (pre[1] == 0.0).any()
    assert_matches_reference_bits(params, x, rng.integers(0, 5, size=200).astype(float))
    z = np.array([-0.0, 0.0, np.nan, -1.0, 1e-300, 2.0])
    assert np.array_equal(np.maximum(z, 0.0, out=z.copy()) > 0, z > 0)


def test_forward_and_gradient_match_reference_bits_on_20000_rows(rng):
    params = init_params((14, 64, 64, 1), 5)
    x = rng.normal(size=(20_000, 14)) * 4
    assert_matches_reference_bits(params, x, rng.normal(size=20_000) + 3)


@pytest.mark.parametrize("n", [1, 2, 15, 16, 17, 333])
@pytest.mark.parametrize(
    "sizes", [(14, 64, 64, 1), (22, 64, 1), (5, 1)], ids=["two-hidden", "one-hidden", "no-hidden"]
)
def test_predict_batch_scores_a_row_the_same_in_every_batch(rng, sizes, n):
    """A row's ``predict_batch`` score has the same bits scored alone, in a
    permuted batch and at an offset in a larger batch.  The replay ring's TD
    pass scores each distinct state once and reads its value by id, and
    plan search scores a step's rows in whatever batch they come in, so
    both rely on this; a BLAS build that breaks it fails here."""
    params = init_params(sizes, n)
    x = rng.normal(size=(n, sizes[0])) * 4
    scores = predict_batch(params, x)
    alone = np.concatenate([predict_batch(params, row[None, :]) for row in x])
    assert alone.tobytes() == scores.tobytes(), "alone"
    perm = rng.permutation(n)
    assert predict_batch(params, x[perm]).tobytes() == scores[perm].tobytes(), "permuted"
    for before, after in ((1, 0), (7, 3), (16, 16), (21, 200)):
        batch = np.concatenate(
            [rng.normal(size=(before, sizes[0])), x, rng.normal(size=(after, sizes[0]))]
        )
        got = predict_batch(params, batch)[before : before + n]
        assert got.tobytes() == scores.tobytes(), ("offset", before, after)


@pytest.mark.parametrize("d, width", [(14, 64), (15, 64), (22, 64), (40, 64), (64, 64),
                                       (64, 32), (64, 128)])
def test_hidden_layer_rows_are_batch_invariant(rng, d, width):
    """A row's bits out of a hidden layer's matmul are the same in every
    batch of two or more rows: a permuted batch, offset slices and random
    subsets of a 20 000-row batch.  ``predict_batch`` relies on this, and
    runs only its 1-unit output layer in fixed blocks; a BLAS build that
    breaks it fails here.  (A 1-row matmul goes to gemv and may differ, so
    ``predict_batch`` runs a 1-row pass's hidden layers over two rows.)"""
    x = rng.normal(size=(20_000, d)) * 3
    w = init_params((d, width, 1), d + width).weights[0]
    whole = x @ w
    perm = rng.permutation(len(x))
    assert (x[perm] @ w).tobytes() == whole[perm].tobytes(), "permuted"
    for start, n in ((1, 2), (3, 3), (5, 17), (1_001, 4_097), (7, 19_993)):
        got = x[start : start + n] @ w
        assert got.tobytes() == whole[start : start + n].tobytes(), ("slice", start, n)
    for n in (2, 3, 5, 16, 17, 333, 6_600):
        subset = rng.choice(len(x), size=n, replace=False)
        assert (x[subset] @ w).tobytes() == whole[subset].tobytes(), ("subset", n)


def test_forward_leaves_inputs_and_parameters_unwritten(rng):
    """A forward pass writes none of its arguments, and ``batch_grad``
    writes only the gradient it is given, every element of it."""
    params = init_params((4, 6, 1), 2)
    x = rng.normal(size=(9, 4))
    labels = np.ones(9)
    before = [a.copy() for a in (x, labels, params.vector)]
    predict_batch(params, x)
    grad = ModelParams(params.layer_sizes, np.full_like(params.vector, np.nan))
    batch_grad(params, x, labels, grad)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(before, (x, labels, params.vector)))
    assert np.isfinite(grad.vector).all()


# --- loss ---------------------------------------------------------------------

def test_loss_zero_when_predictions_match():
    params = make_linear_model(1.0)
    assert batch_loss(params, np.array([[2.0], [5.0]]), np.array([2.0, 5.0])) == 0.0


def test_loss_single_sample():
    params = make_linear_model(0.0, bias=3.0)
    assert batch_loss(params, np.array([[1.0]]), np.array([1.0])) == pytest.approx(4.0)


def test_loss_permutation_invariant(rng):
    params = init_params((3, 4, 1), 5)
    X = rng.normal(size=(8, 3))
    y = rng.normal(size=8) ** 2
    order = rng.permutation(8)
    assert batch_loss(params, X, y) == pytest.approx(batch_loss(params, X[order], y[order]))


# --- gradient -----------------------------------------------------------------

def test_zero_loss_zero_gradient():
    params = make_linear_model(1.0)
    grad = gradient(params, np.array([[2.0]]), np.array([2.0]))
    assert all(np.all(g == 0) for g in grad.weights)
    assert all(np.all(g == 0) for g in grad.biases)


def test_gradient_matches_finite_differences(rng):
    for trial in range(5):
        d = int(rng.integers(2, 6))
        hidden = int(rng.integers(2, 8))
        params = init_params((d, hidden, 1), int(rng.integers(10_000)))
        batch = (rng.normal(size=(4, d)), rng.normal(size=4) ** 2)
        grad = gradient(params, *batch)
        fd_w, fd_b = finite_difference_grad(params, batch)
        for g, f in zip(grad.weights, fd_w):
            np.testing.assert_allclose(g, f, rtol=1e-4, atol=1e-6)
        for g, f in zip(grad.biases, fd_b):
            np.testing.assert_allclose(g, f, rtol=1e-4, atol=1e-6)


def test_gradient_mean_semantics(rng):
    params = init_params((3, 5, 1), 2)
    X = rng.normal(size=(4, 3))
    y = rng.normal(size=4) ** 2
    single = gradient(params, X, y)
    doubled = gradient(params, np.vstack([X, X]), np.hstack([y, y]))
    for a, b in zip(single.weights, doubled.weights):
        np.testing.assert_allclose(a, b, rtol=1e-12)


def test_sgd_never_increases_loss_at_tiny_lr(rng):
    for trial in range(10):
        d = int(rng.integers(2, 8))
        params = init_params((d, int(rng.integers(2, 16)), 1), int(rng.integers(10_000)))
        batch = (rng.normal(size=(6, d)), rng.normal(size=6) ** 2)
        before = batch_loss(params, *batch)
        grad = gradient(params, *batch)
        sgd_step(params.vector, grad.vector, 1e-5, np.empty_like(params.vector))
        assert batch_loss(params, *batch) <= before + 1e-12


# --- sgd ----------------------------------------------------------------------

def test_sgd_identity_cases():
    params = init_params((3, 4, 1), 9)
    before = params.vector.copy()
    scratch = np.empty_like(before)
    grad = gradient(params, np.ones((2, 3)), np.array([1.0, 2.0]))
    sgd_step(params.vector, grad.vector, 0.0, scratch)
    assert np.array_equal(params.vector, before)
    sgd_step(params.vector, np.zeros_like(before), 0.5, scratch)
    assert np.array_equal(params.vector, before)


def test_sgd_scalar_hand_value():
    # theta = 0, L = (theta - 1)^2, lr = 0.1 -> theta' = 0.2
    params = make_linear_model(0.0, bias=0.0)
    grad = gradient(params, np.array([[0.0]]), np.array([1.0]))
    sgd_step(params.vector, grad.vector, 0.1, np.empty(2))
    assert params.biases[0][0] == pytest.approx(0.2)


def test_sgd_value_semantics():
    """``sgd_step`` writes ``vector - (grad * lr)`` into the vector and
    ``grad * lr`` into the scratch, in that order of operations, and writes
    nothing else."""
    params = init_params((2, 3, 1), 1)
    before = params.vector.copy()
    grad = gradient(params, np.ones((1, 2)), np.array([3.0]))
    snapshot = grad.vector.copy()
    scratch = np.full_like(before, np.nan)
    sgd_step(params.vector, grad.vector, 0.5, scratch)
    assert grad.vector.tobytes() == snapshot.tobytes()
    assert scratch.tobytes() == (snapshot * 0.5).tobytes()
    assert params.vector.tobytes() == (before - snapshot * 0.5).tobytes()


# --- checkpoint / labels --------------------------------------------------------

def test_checkpoint_round_trip(tmp_path):
    params = init_params((6, 8, 1), 123)
    path = tmp_path / "model.npz"
    save_params(params, path)
    loaded = load_params(path)
    assert loaded.layer_sizes == params.layer_sizes
    for a, b in zip(params.weights, loaded.weights):
        assert np.array_equal(a, b)
    for a, b in zip(params.biases, loaded.biases):
        assert np.array_equal(a, b)


def test_load_missing_checkpoint(tmp_path):
    with pytest.raises(ModelError, match="not found"):
        load_params(tmp_path / "missing.npz")


def _corrupt_zip(path):
    save_params(init_params((3, 4, 1), 7), path)
    path.write_bytes(path.read_bytes()[:10] + bytes(200))  # zip header, corrupt body


def _write_arrays(path, **overrides):
    """A (3, 4, 1) checkpoint written array by array, with ``overrides``."""
    params = init_params((3, 4, 1), 7)
    arrays = {"format_version": np.array(1), "layer_sizes": np.array(params.layer_sizes)}
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        arrays[f"w{i}"], arrays[f"b{i}"] = w, b
    arrays.update(overrides)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _vector_version(path):
    _write_arrays(path, format_version=np.array([1, 1]))


def _text_file(path):
    path.write_text("not a checkpoint\n")


@pytest.mark.parametrize("write", [_corrupt_zip, _vector_version, _text_file])
def test_load_malformed_checkpoint_names_the_file(tmp_path, write):
    path = tmp_path / "model.npz"
    write(path)
    with pytest.raises(ModelError) as exc:
        load_params(path)
    message = str(exc.value)
    assert message.startswith(f"{path}: ")
    assert "\n" not in message


@pytest.mark.parametrize("layer, array, value", [(1, "weights", np.nan), (0, "biases", np.inf)])
def test_load_rejects_non_finite_checkpoint(tmp_path, layer, array, value):
    """A checkpoint is input from outside the program: its values are
    scanned on load, although constructing parameters checks shapes only."""
    params = init_params((3, 4, 1), 7)
    bad = ModelParams(params.layer_sizes, params.vector.copy())
    getattr(bad, array)[layer].flat[0] = value
    path = tmp_path / "model.npz"
    save_params(bad, path)
    with pytest.raises(ModelError) as exc:
        load_params(path)
    assert str(exc.value) == f"{path}: layer {layer}: non-finite parameter"


@pytest.mark.parametrize(
    "key, shape, message",
    [
        ("w0", (4, 3), "layer 0: weight shape (4, 3) != (3, 4)"),
        ("w1", (4,), "layer 1: weight shape (4,) != (4, 1)"),
        ("b0", (3,), "layer 0: bias shape (3,) != (4,)"),
        ("b1", (1, 1), "layer 1: bias shape (1, 1) != (1,)"),
    ],
)
def test_load_rejects_layer_shapes_that_disagree_with_layer_sizes(tmp_path, key, shape, message):
    """A checkpoint's arrays come from outside the program, so each is
    checked against the file's ``layer_sizes``, even where it holds the
    right number of values."""
    path = tmp_path / "model.npz"
    _write_arrays(path, **{key: np.zeros(shape)})
    with pytest.raises(ModelError) as exc:
        load_params(path)
    assert str(exc.value) == f"{path}: {message}"

