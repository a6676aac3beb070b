"""The branch-free, in-place sigmoid kernels agree bit for bit with the
two-branch code they replaced.

The replaced ``sigmoid``, ``batch_forward``, ``batch_backprop`` and Elman
forward/BPTT are kept below as references.  Activations, losses and
gradients must match them exactly (same bits; NaN at the same positions).
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hemanet.models import build_elman, build_ffnn, build_narx
from hemanet.nncore import LayerParams, batch_backprop, batch_forward, sigmoid

# Edge inputs overflow matmuls and subtract infinities, on both sides alike.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

# ---------------------------------------------------------------------------
# The replaced implementations.


def reference_sigmoid(x):
    x = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return out if out.shape else float(out)


def reference_batch_forward(layers, X):
    act = np.atleast_2d(np.asarray(X, dtype=float))
    for layer in layers:
        act = reference_sigmoid(act @ layer.weights.T + layer.biases)
    return act


def reference_batch_backprop(layers, X, T):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    T = np.atleast_2d(np.asarray(T, dtype=float))
    acts = [X]
    for layer in layers:
        acts.append(reference_sigmoid(acts[-1] @ layer.weights.T + layer.biases))
    Y = acts[-1]
    n, out = Y.shape
    loss = float(((Y - T) ** 2).sum() / Y.size)
    delta = 2.0 / (n * out) * (Y - T) * Y * (1.0 - Y)
    grads = [None] * (2 * len(layers))
    for i in reversed(range(len(layers))):
        grads[2 * i] = delta.T @ acts[i]
        grads[2 * i + 1] = delta.sum(axis=0)
        if i:
            delta = (delta @ layers[i].weights) * acts[i] * (1.0 - acts[i])
    return loss, grads


def reference_elman_predict(model, X):
    steps = model._as_steps(X)
    n = steps.shape[0]
    context = np.full((n, model.hidden_dim), model.context_init)
    for t in range(steps.shape[1]):
        context = reference_sigmoid(
            steps[:, t, :] @ model.wx.T + context @ model.wh.T + model.b1)
    return reference_sigmoid(context @ model.w2.T + model.b2)


def reference_batch_loss(predict, X, T):
    return float(np.mean((predict(X) - np.atleast_2d(T)) ** 2))


def reference_elman_bptt(model, X, T):
    steps = model._as_steps(X)
    T = np.atleast_2d(np.asarray(T, dtype=float))
    n, n_steps, _ = steps.shape
    context = np.full((n, model.hidden_dim), model.context_init)
    hiddens, contexts = [], []
    for t in range(n_steps):
        contexts.append(context)
        context = reference_sigmoid(
            steps[:, t, :] @ model.wx.T + context @ model.wh.T + model.b1)
        hiddens.append(context)
    Y = reference_sigmoid(hiddens[-1] @ model.w2.T + model.b2)
    out = Y.shape[1]
    loss = float(((Y - T) ** 2).sum() / Y.size)

    d_out = 2.0 / (n * out) * (Y - T) * Y * (1.0 - Y)
    g_w2 = d_out.T @ hiddens[-1]
    g_b2 = d_out.sum(axis=0)
    d_hidden = d_out @ model.w2
    g_wx = np.zeros_like(model.wx)
    g_wh = np.zeros_like(model.wh)
    g_b1 = np.zeros_like(model.b1)
    for t in reversed(range(n_steps)):
        d_pre = d_hidden * hiddens[t] * (1.0 - hiddens[t])
        g_wx += d_pre.T @ steps[:, t, :]
        g_wh += d_pre.T @ contexts[t]
        g_b1 += d_pre.sum(axis=0)
        d_hidden = d_pre @ model.wh
    return loss, [g_wx, g_wh, g_b1, g_w2, g_b2]


# ---------------------------------------------------------------------------
# Bitwise comparison.

SUBNORMAL = np.nextafter(0.0, 1.0)
TINY = np.finfo(float).tiny
EDGES = np.array([
    0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 745.0, -745.0, 800.0, -800.0,
    709.78, -709.78, 36.8, -36.8, SUBNORMAL, -SUBNORMAL, TINY, -TINY,
    TINY - SUBNORMAL, -(TINY - SUBNORMAL), 1e-300, -1e-300, 1.0, -1.0,
    np.finfo(float).max, -np.finfo(float).max, np.finfo(float).eps, -np.finfo(float).eps,
])


def assert_bitwise(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


def assert_same_result(got, want):
    (loss, grads), (ref_loss, ref_grads) = got, want
    assert_bitwise(loss, ref_loss)
    assert len(grads) == len(ref_grads)
    for g, r in zip(grads, ref_grads):
        assert_bitwise(g, r)


# ---------------------------------------------------------------------------
# sigmoid


def test_sigmoid_edge_values():
    assert_bitwise(sigmoid(EDGES), reference_sigmoid(EDGES))
    for x in EDGES:
        got = sigmoid(x)
        assert type(got) is float
        assert_bitwise(got, reference_sigmoid(x))


def test_sigmoid_every_bit_pattern_class():
    # Random 64-bit patterns cover normals, subnormals, infinities and NaNs
    # of both signs, in proportion to their share of the encoding space.
    bits = np.random.default_rng(11).integers(0, 2**64, size=1 << 20, dtype=np.uint64)
    x = np.concatenate([bits.view(float), EDGES,
                        np.random.default_rng(12).uniform(-800, 800, size=1 << 20)])
    assert_bitwise(sigmoid(x), reference_sigmoid(x))


def test_sigmoid_leaves_its_input_alone():
    x = np.array([[-3.0, 0.0], [2.5, np.nan]])
    before = x.copy()
    sigmoid(x)
    assert_bitwise(x, before)


@given(hnp.arrays(float, hnp.array_shapes(min_dims=0, max_dims=3, max_side=7),
                  elements=st.floats(allow_nan=True, allow_infinity=True,
                                     allow_subnormal=True)))
@settings(max_examples=200, deadline=None)
def test_sigmoid_property(x):
    assert_bitwise(sigmoid(x), reference_sigmoid(x))


# ---------------------------------------------------------------------------
# batched kernels

FEATURES = 9


def _data(rng, rows, out_dim, scale, edges):
    X = rng.normal(0.0, scale, size=(rows, FEATURES))
    if edges:
        flat = X.ravel()
        flat[: len(EDGES)] = EDGES[: flat.size]
    T = rng.uniform(0.0, 1.0, size=(rows, out_dim))
    return X, T


def _scaled(model, scale):
    # Large weights push sigmoids into saturation (exact 0.0 and 1.0).
    model.set_param_arrays([a * scale for a in model.param_arrays()])
    return model


@pytest.mark.parametrize("rows", [1, 920])
@pytest.mark.parametrize("out_dim", [1, 3])
@given(seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([0.1, 1.0, 30.0]),
       edges=st.booleans())
@settings(max_examples=12, deadline=None)
def test_ffnn_kernels_match_reference(rows, out_dim, seed, scale, edges):
    rng = np.random.default_rng(seed)
    model = _scaled(build_ffnn(FEATURES, 50, out_dim, seed=seed % 1000), scale)
    X, T = _data(rng, rows, out_dim, scale, edges)
    assert_bitwise(batch_forward(model.layers, X), reference_batch_forward(model.layers, X))
    assert_bitwise(model.predict_batch(X), reference_batch_forward(model.layers, X))
    assert_same_result(batch_backprop(model.layers, X, T),
                       reference_batch_backprop(model.layers, X, T))
    assert_same_result(model.batch_loss_and_grads(X, T),
                       reference_batch_backprop(model.layers, X, T))
    assert_bitwise(model.batch_loss(X, T),
                   reference_batch_loss(lambda x: reference_batch_forward(model.layers, x), X, T))


@pytest.mark.parametrize("rows", [1, 920])
@pytest.mark.parametrize("out_dim", [1, 3])
@pytest.mark.parametrize("mode", ["single-step", "feature-sequence"])
@given(seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([0.1, 1.0, 30.0]),
       edges=st.booleans(), context_init=st.sampled_from([0.5, 0.0, -2.0]))
@settings(max_examples=8, deadline=None)
def test_elman_kernels_match_reference(rows, out_dim, mode, seed, scale, edges, context_init):
    rng = np.random.default_rng(seed)
    model = _scaled(build_elman(FEATURES, 20, out_dim, seed=seed % 1000, mode=mode,
                                context_init=context_init), scale)
    X, T = _data(rng, rows, out_dim, scale, edges)
    assert_bitwise(model.predict_batch(X), reference_elman_predict(model, X))
    assert_same_result(model.batch_loss_and_grads(X, T), reference_elman_bptt(model, X, T))
    assert_bitwise(model.batch_loss(X, T),
                   reference_batch_loss(lambda x: reference_elman_predict(model, x), X, T))


@pytest.mark.parametrize("rows", [1, 920])
def test_narx_kernels_match_reference(rows):
    rng = np.random.default_rng(rows)
    model = build_narx(FEATURES, 50, 3, seed=4, d_u=1, d_y=2, mode="stream")
    X, T = model.prepare_training(*_data(rng, rows, 3, 1.0, False))
    layers = model.core.layers
    assert_same_result(model.batch_loss_and_grads(X, T),
                       reference_batch_backprop(layers, X, T))
    assert_bitwise(model.core.predict_batch(X), reference_batch_forward(layers, X))


def test_kernels_leave_inputs_and_parameters_alone():
    rng = np.random.default_rng(5)
    for model in (build_ffnn(FEATURES, 8, 3, seed=1),
                  build_elman(FEATURES, 8, 3, seed=1, mode="feature-sequence")):
        X, T = _data(rng, 40, 3, 1.0, False)
        saved = [a.copy() for a in (X, T, *model.param_arrays())]
        model.batch_loss_and_grads(X, T)
        model.predict_batch(X)
        model.batch_loss(X, T)
        for now, before in zip((X, T, *model.param_arrays()), saved):
            assert_bitwise(now, before)


def test_deeper_stack_matches_reference():
    # batch_backprop takes any number of layers; three exercise two hidden deltas.
    rng = np.random.default_rng(8)
    layers = [LayerParams(rng.normal(size=(o, i)), rng.normal(size=o))
              for i, o in ((FEATURES, 12), (12, 7), (7, 3))]
    X, T = _data(rng, 64, 3, 1.0, False)
    assert_bitwise(batch_forward(layers, X), reference_batch_forward(layers, X))
    assert_same_result(batch_backprop(layers, X, T), reference_batch_backprop(layers, X, T))
