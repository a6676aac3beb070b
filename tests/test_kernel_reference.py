"""The branch-free, in-place sigmoid kernels, and training runs on their
preallocated workspace, agree bit for bit with the two-branch, allocating
code they replaced.

The replaced ``sigmoid``, dense-stack forward and backprop, and Elman
forward/BPTT are kept below as references.  Activations, losses and
gradients must match them exactly (same bits; NaN at the same positions),
and so must the loss curves and parameters of ``train_loop`` against
list-based momentum SGD over the references.

The Elman references read the constant context as one row, broadcast over
the batch, as the kernel does.  With ``legacy=True`` they hold one copy of
it per row, as the kernel once did: one-row kernels and per-sample training
still match that oracle bit for bit, and batches match it to rounding.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hemanet.models import build_model, encode_targets
from hemanet.nncore import TrainConfig, sigmoid, sigmoid_inplace, sigmoid_row, train_loop

# Edge inputs overflow matmuls and subtract infinities, on both sides alike.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

# ---------------------------------------------------------------------------
# The replaced implementations.


def as_steps(model, X):
    """An Elman model's (N, F) batch -> (N, 1, F): one step over the whole row."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != model.feature_count:
        raise ValueError(
            f"expected {model.feature_count} features per sample, got {X.shape[1]}"
        )
    return X[:, None, :]


def reference_sigmoid(x):
    x = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return out if out.shape else float(out)


def _layers(params):
    """The (weights, biases) pairs of a dense stack's parameters."""
    return list(zip(params[::2], params[1::2]))


def reference_batch_forward(params, X):
    act = np.atleast_2d(np.asarray(X, dtype=float))
    for weights, biases in _layers(params):
        act = reference_sigmoid(act @ weights.T + biases)
    return act


def reference_batch_backprop(params, X, T):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    T = np.atleast_2d(np.asarray(T, dtype=float))
    layers = _layers(params)
    acts = [X]
    for weights, biases in layers:
        acts.append(reference_sigmoid(acts[-1] @ weights.T + biases))
    Y = acts[-1]
    n, out = Y.shape
    loss = float(((Y - T) ** 2).sum() / Y.size)
    delta = 2.0 / (n * out) * (Y - T) * Y * (1.0 - Y)
    grads = [None] * (2 * len(layers))
    for i in reversed(range(len(layers))):
        grads[2 * i] = delta.T @ acts[i]
        grads[2 * i + 1] = delta.sum(axis=0)
        if i:
            delta = (delta @ layers[i][0]) * acts[i] * (1.0 - acts[i])
    return loss, grads


def reference_context(model, steps, legacy):
    """The Elman context: one row, or with ``legacy`` one copy per row."""
    rows = steps.shape[0] if legacy else 1
    return np.full((rows, model.param_arrays()[1].shape[0]), model.context_init)


def reference_elman_predict(model, X, legacy=False):
    steps = as_steps(model, X)
    wx, wh, b1, w2, b2 = model.param_arrays()
    context = reference_context(model, steps, legacy)
    for t in range(steps.shape[1]):
        context = reference_sigmoid(steps[:, t, :] @ wx.T + context @ wh.T + b1)
    return reference_sigmoid(context @ w2.T + b2)


def reference_batch_loss(predict, X, T):
    return float(np.mean((predict(X) - np.atleast_2d(T)) ** 2))


def reference_elman_bptt(model, X, T, legacy=False):
    steps = as_steps(model, X)
    wx, wh, b1, w2, b2 = model.param_arrays()
    T = np.atleast_2d(np.asarray(T, dtype=float))
    n, n_steps, _ = steps.shape
    context = reference_context(model, steps, legacy)
    hiddens, contexts = [], []
    for t in range(n_steps):
        contexts.append(context)
        context = reference_sigmoid(steps[:, t, :] @ wx.T + context @ wh.T + b1)
        hiddens.append(context)
    Y = reference_sigmoid(hiddens[-1] @ w2.T + b2)
    out = Y.shape[1]
    loss = float(((Y - T) ** 2).sum() / Y.size)

    d_out = 2.0 / (n * out) * (Y - T) * Y * (1.0 - Y)
    g_w2 = d_out.T @ hiddens[-1]
    g_b2 = d_out.sum(axis=0)
    d_hidden = d_out @ w2
    g_wx = np.zeros_like(wx)
    g_wh = np.zeros_like(wh)
    g_b1 = np.zeros_like(b1)
    for t in reversed(range(n_steps)):
        d_pre = d_hidden * hiddens[t] * (1.0 - hiddens[t])
        g_wx += d_pre.T @ steps[:, t, :]
        row_sums = d_pre.sum(axis=0)
        # The one context row stands for every row: wh's gradient is the
        # delta's row sums times the context.
        g_wh += (d_pre.T @ contexts[t] if len(contexts[t]) == n
                 else np.outer(row_sums, contexts[t]))
        g_b1 += row_sums
        d_hidden = d_pre @ wh
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


def assert_rounding_close(got, want, rtol=1e-12):
    """got and want differ by at most rtol times want's largest finite
    magnitude, with NaN and infinities in the same positions."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    finite = np.isfinite(want)
    np.testing.assert_array_equal(np.isfinite(got), finite)
    assert_bitwise(got[~finite], want[~finite])
    bound = rtol * np.abs(want[finite]).max(initial=0.0)
    assert np.abs(got[finite] - want[finite]).max(initial=0.0) <= bound


def assert_same_result(got, want, same=assert_bitwise):
    (loss, grads), (ref_loss, ref_grads) = got, want
    same(loss, ref_loss)
    assert len(grads) == len(ref_grads)
    for g, r in zip(grads, ref_grads):
        same(g, r)


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


ROW_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]),
    st.floats(-TINY, TINY, allow_subnormal=True),  # zeros and subnormals
    st.floats(745.0, allow_infinity=False).flatmap(lambda z: st.sampled_from([z, -z])),
    st.floats(-745.0, 745.0),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)


@given(z=hnp.arrays(float, st.integers(1, 60), elements=ROW_VALUES))
@settings(max_examples=300, deadline=None)
def test_one_row_sigmoid_matches_sigmoid_inplace(z):
    # exp(min(z, 0)) and max(exp(-|z|), z >= 0) are the same numerator: for
    # z < 0 both are exp(z); NaN must stay NaN in the same places.
    want = sigmoid_inplace(z.copy())
    pair = np.empty((2, z.size))
    assert_bitwise(sigmoid_row(z.copy(), pair, *pair), want)


def test_one_row_sigmoid_edge_values():
    pair = np.empty((2, EDGES.size))
    assert_bitwise(sigmoid_row(EDGES.copy(), pair, *pair), reference_sigmoid(EDGES))


# ---------------------------------------------------------------------------
# batched kernels

FEATURES = 9


def _data(rng, rows, out_dim, scale, edges, width=FEATURES):
    X = rng.normal(0.0, scale, size=(rows, width))
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
    model = _scaled(build_model("ffnn", FEATURES, 50, out_dim, seed=seed % 1000), scale)
    X, T = _data(rng, rows, out_dim, scale, edges)
    params = model.param_arrays()
    assert_bitwise(model.predict_batch(X), reference_batch_forward(params, X))
    assert_same_result(model.batch_loss_and_grads(X, T), reference_batch_backprop(params, X, T))
    assert_bitwise(model.batch_loss(X, T),
                   reference_batch_loss(lambda x: reference_batch_forward(params, x), X, T))


@pytest.mark.parametrize("rows", [1, 2, 920])  # 2: the least batch g_b1 sums
@pytest.mark.parametrize("out_dim", [1, 3])
@given(seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([0.1, 1.0, 30.0]),
       edges=st.booleans(), context_init=st.sampled_from([0.5, 0.0, -2.0]))
@settings(max_examples=8, deadline=None)
def test_elman_kernels_match_reference(rows, out_dim, seed, scale, edges, context_init):
    rng = np.random.default_rng(seed)
    model = _scaled(build_model("elman", FEATURES, 20, out_dim, seed=seed % 1000,
                                context_init=context_init), scale)
    X, T = _data(rng, rows, out_dim, scale, edges)
    assert_bitwise(model.predict_batch(X), reference_elman_predict(model, X))
    assert_same_result(model.batch_loss_and_grads(X, T), reference_elman_bptt(model, X, T))
    assert_bitwise(model.batch_loss(X, T),
                   reference_batch_loss(lambda x: reference_elman_predict(model, x), X, T))


@pytest.mark.parametrize("rows", [1, 2, 920])  # 2: the least batch g_b1 sums
@pytest.mark.parametrize("out_dim", [1, 3])
@given(seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([0.1, 1.0, 30.0]),
       edges=st.booleans(), context_init=st.sampled_from([0.5, 0.0, -2.0, 0.3]))
@settings(max_examples=8, deadline=None)
def test_elman_kernels_match_legacy_reference(rows, out_dim, seed, scale, edges, context_init):
    # A batch of one reads its one context row as it always did: the same
    # bits.  A batch multiplies wh by one context row where it multiplied a
    # copy per row: the same results up to rounding.
    same = assert_bitwise if rows == 1 else assert_rounding_close
    rng = np.random.default_rng(seed)
    model = _scaled(build_model("elman", FEATURES, 20, out_dim, seed=seed % 1000,
                                context_init=context_init), scale)
    X, T = _data(rng, rows, out_dim, scale, edges)
    same(model.predict_batch(X), reference_elman_predict(model, X, legacy=True))
    assert_same_result(model.batch_loss_and_grads(X, T),
                       reference_elman_bptt(model, X, T, legacy=True), same)


@pytest.mark.parametrize("rows", [1, 920])
@pytest.mark.parametrize("out_dim", [1, 3])
def test_narx_kernels_match_reference(rows, out_dim):
    rng = np.random.default_rng(rows)
    # Random inputs of the core's full width, taps included, so every weight counts.
    model = build_model("narx", FEATURES, 50, out_dim, seed=4, d_u=1, d_y=2)
    X, T = _data(rng, rows, out_dim, 1.0, False, width=FEATURES + model.taps)
    params = model.param_arrays()
    assert_same_result(model.batch_loss_and_grads(X, T),
                       reference_batch_backprop(params, X, T))
    assert_bitwise(model.workspace(rows).kernel(rows).forward(params, X),
                   reference_batch_forward(params, X))


def test_kernels_leave_inputs_and_parameters_alone():
    rng = np.random.default_rng(5)
    for model in (build_model("ffnn", FEATURES, 8, 3, seed=1),
                  build_model("elman", FEATURES, 8, 3, seed=1)):
        X, T = _data(rng, 40, 3, 1.0, False)
        saved = [a.copy() for a in (X, T, *model.param_arrays())]
        model.batch_loss_and_grads(X, T)
        model.predict_batch(X)
        model.batch_loss(X, T)
        for now, before in zip((X, T, *model.param_arrays()), saved):
            assert_bitwise(now, before)


# ---------------------------------------------------------------------------
# train_loop on its workspace


def reference_kernels(model, legacy=False):
    """(loss_and_grads, loss) of the reference kernels on a model's live weights."""
    if model.family == "elman":
        return (lambda X, T: reference_elman_bptt(model, X, T, legacy),
                lambda X, T: reference_batch_loss(
                    lambda x: reference_elman_predict(model, x, legacy), X, T))
    # The weights are read on every call: the reference trainer rebinds them.
    return (lambda X, T: reference_batch_backprop(model.param_arrays(), X, T),
            lambda X, T: reference_batch_loss(
                lambda x: reference_batch_forward(model.param_arrays(), x), X, T))


def reference_train(model, train, validation, config, legacy=False):
    """train_loop's curves as list-based momentum SGD over the reference kernels."""
    loss_and_grads, loss_of = reference_kernels(model, legacy)
    (X, T), lr, mu = train, config.learning_rate, config.momentum
    velocity = [np.zeros_like(p) for p in model.param_arrays()]
    rng = np.random.default_rng(config.seed)
    train_curve, validation_curve = [], []
    for _ in range(config.epochs):
        rows = ([slice(None)] if config.update_mode == "full-batch"
                else [slice(i, i + 1) for i in rng.permutation(len(X))])
        losses = []
        for row in rows:
            loss, grads = loss_and_grads(X[row], T[row])
            velocity = [mu * v - lr * g for v, g in zip(velocity, grads)]
            model.set_param_arrays([p + v for p, v in zip(model.param_arrays(), velocity)])
            losses.append(loss)
        train_curve.append(float(np.mean(losses)))
        if validation is not None:
            validation_curve.append(loss_of(*validation))
    return train_curve, validation_curve


SPECS = {
    "ffnn": ("ffnn", {}),
    "elman-single-step": ("elman", {}),
    # A negative context flips the sign of every wh gradient, g_b1 * c0.
    "elman-negative-context": ("elman", {"context_init": -2.0}),
    "narx-per-record": ("narx", {}),
    "narx-delays": ("narx", {"d_u": 1, "d_y": 2}),
}


def _training_case(spec, encoding, validation_rows, scale):
    """(two equal nets, 24 training rows, validation rows) prepared for ``spec``."""
    family, kwargs = SPECS[spec]
    out_dim = 3 if encoding == "onehot3" else 1
    rng = np.random.default_rng(validation_rows + out_dim)
    codes = rng.integers(0 if encoding == "binary1" else 1, 4, size=24 + validation_rows)
    X = rng.normal(0.0, scale, size=(len(codes), FEATURES))
    T = encode_targets(codes, encoding)
    nets = [_scaled(build_model(family, FEATURES, 20, out_dim, seed=3, **kwargs), scale)
            for _ in range(2)]
    return (nets, nets[0].prepare_training(X[:24], T[:24]),
            nets[0].prepare_training(X[24:], T[24:]))


@pytest.mark.parametrize("validation_rows", [7, 40])  # the training set has 24
@pytest.mark.parametrize("encoding", ["binary1", "onehot3", "banded1"])
@pytest.mark.parametrize("update_mode", ["full-batch", "per-sample"])
@pytest.mark.parametrize("spec", list(SPECS))
@pytest.mark.parametrize("scale", [1.0, 30.0])
def test_train_loop_matches_reference(spec, update_mode, encoding, validation_rows, scale):
    nets, train, validation = _training_case(spec, encoding, validation_rows, scale)
    config = TrainConfig(epochs=3 if update_mode == "per-sample" else 25,
                         update_mode=update_mode, seed=9)

    _, curve = train_loop(nets[0], train, validation, config)
    train_curve, validation_curve = reference_train(nets[1], train, validation, config)
    assert_bitwise(curve.train, train_curve)
    assert_bitwise(curve.validation, validation_curve)
    for got, want in zip(nets[0].param_arrays(), nets[1].param_arrays()):
        assert_bitwise(got, want)


@pytest.mark.parametrize("encoding", ["binary1", "onehot3"])
@pytest.mark.parametrize("spec", ["elman-single-step", "elman-negative-context"])
@pytest.mark.parametrize("scale", [1.0, 30.0])
def test_per_sample_training_matches_legacy_reference(spec, encoding, scale):
    # Every per-sample update is a batch of one, so with no validation pass
    # the run is the one the n-row context gave, bit for bit.
    nets, train, _ = _training_case(spec, encoding, 7, scale)
    config = TrainConfig(epochs=3, update_mode="per-sample", seed=9)
    _, curve = train_loop(nets[0], train, None, config)
    train_curve, _ = reference_train(nets[1], train, None, config, legacy=True)
    assert_bitwise(curve.train, train_curve)
    for got, want in zip(nets[0].param_arrays(), nets[1].param_arrays()):
        assert_bitwise(got, want)
