"""The three network families over the dense core: feedforward, Elman
recurrent, and NARX with exogenous/output delay lines.

All models share the duck interface the trainer and gradient checker use:
param_arrays / set_param_arrays, workspace, batch_loss and
batch_loss_and_grads (plus the per-sample loss and loss_and_grads).  Samples
passed to those methods are already in the model's prepared form (see
prepare_training on each class).  The batch kernels take an optional
nncore.Workspace from the model's workspace(rows, grad) and write into it;
without one they build their own for the call.

Elman and NARX are applied to independent patient records, so recurrent
state never leaks between samples: the Elman context restarts from its
configured initial value for every sample, and NARX per-record mode zeroes
all delay taps.  Sequence-flavored alternatives (Elman feature-sequence,
NARX stream with teacher forcing) are first-class modes.
"""
from __future__ import annotations

import numpy as np

from .nncore import (
    LayerParams,
    Workspace,
    backprop,
    batch_backprop,
    batch_forward,
    dense_sigmoid,
    forward_dense,
    layer_workspace,
    matmul_into,
    mse_loss,
    output_delta,
    sigmoid,
    sigmoid_inplace,
    times_sigmoid_slope,
)
from .records import SUBTYPES, AnemiaLabel

FAMILIES = ("ffnn", "elman", "narx")
ELMAN_MODES = ("single-step", "feature-sequence")
NARX_MODES = ("per-record", "stream")

# Output encodings.  Diagnosis uses a single thresholded sigmoid; the
# classification stage defaults to one-hot over the three subtypes, with a
# single-output banded encoding available as an alternative.
ENCODINGS = ("binary1", "onehot3", "banded1")
BAND_CENTERS = np.array([1.0 / 6.0, 0.5, 5.0 / 6.0])


def output_width(encoding: str) -> int:
    if encoding not in ENCODINGS:
        raise ValueError(f"unknown output encoding {encoding!r}")
    return 3 if encoding == "onehot3" else 1


def encode_targets(codes, encoding: str) -> np.ndarray:
    """(N, width) training targets of records.LABELS codes; onehot3 and
    banded1 are defined for the anemic labels (codes 1-3) only."""
    codes = np.asarray(codes, dtype=np.intp)
    output_width(encoding)
    if encoding == "binary1":
        return (codes > 0).astype(float)[:, None]
    if not codes.all():
        raise ValueError(f"{encoding} targets are defined for anemic labels only")
    if encoding == "onehot3":
        return np.eye(3)[codes - 1]
    return BAND_CENTERS[codes - 1][:, None]


def subtype_indices(outputs, encoding: str) -> np.ndarray:
    """Index into SUBTYPES of each row of classification-network outputs.

    onehot3 takes the argmax (ties go to the lowest class index); banded1
    picks the nearest band center.
    """
    outputs = np.asarray(outputs, dtype=float)
    if encoding not in ("onehot3", "banded1"):
        raise ValueError(f"cannot decode a subtype from encoding {encoding!r}")
    width = output_width(encoding)
    if outputs.ndim != 2 or outputs.shape[1] != width:
        raise ValueError(
            f"{encoding} output must have {width} component{'s' if width > 1 else ''}, "
            f"got {outputs.shape[1:]}"
        )
    if encoding == "onehot3":
        return np.argmax(outputs, axis=1)
    return np.argmin(np.abs(outputs - BAND_CENTERS), axis=1)


def _same_shapes(current, arrays) -> list[np.ndarray]:
    """``arrays`` as float arrays, checked against the shapes of ``current``.

    Values are not checked: the trainer binds views whose finiteness it
    checks itself.
    """
    arrays = [np.asarray(a, dtype=float) for a in arrays]
    if [a.shape for a in arrays] != [a.shape for a in current]:
        raise ValueError(
            f"parameter shapes {[a.shape for a in arrays]} do not match "
            f"{[a.shape for a in current]}"
        )
    return arrays


def _batch_loss(model, X, T, workspace: Workspace | None = None) -> float:
    """Mean squared error of model.predict_batch(X) against T."""
    Y = model.predict_batch(X, workspace)
    return float(np.mean((Y - np.atleast_2d(T)) ** 2))


def decode_subtype(output, encoding: str) -> AnemiaLabel:
    """Subtype of one output vector: subtype_indices on a batch of one."""
    return SUBTYPES[subtype_indices(np.asarray(output, dtype=float)[None], encoding)[0]]


class FfnnModel:
    """Input -> sigmoid hidden -> sigmoid output."""

    family = "ffnn"

    def __init__(self, hidden: LayerParams, output: LayerParams):
        if output.in_dim != hidden.out_dim:
            raise ValueError(
                f"output layer expects {output.in_dim} inputs, hidden provides {hidden.out_dim}"
            )
        self.hidden = hidden
        self.output = output

    @property
    def in_dim(self) -> int:
        return self.hidden.in_dim

    @property
    def hidden_dim(self) -> int:
        return self.hidden.out_dim

    @property
    def out_dim(self) -> int:
        return self.output.out_dim

    @property
    def layers(self) -> list[LayerParams]:
        return [self.hidden, self.output]

    def forward(self, x) -> np.ndarray:
        _, h = forward_dense(self.hidden, x)
        _, y = forward_dense(self.output, h)
        return y

    def workspace(self, rows: int, grad=None) -> Workspace:
        return layer_workspace(self.layers, rows, grad)

    def predict_batch(self, X, workspace: Workspace | None = None) -> np.ndarray:
        return batch_forward(self.layers, X, workspace)

    def param_arrays(self) -> list[np.ndarray]:
        return [self.hidden.weights, self.hidden.biases,
                self.output.weights, self.output.biases]

    def set_param_arrays(self, arrays) -> None:
        (self.hidden.weights, self.hidden.biases,
         self.output.weights, self.output.biases) = _same_shapes(self.param_arrays(), arrays)

    def loss(self, x, target) -> float:
        return mse_loss(self.forward(x), target)

    def loss_and_grads(self, x, target):
        return backprop(self.layers, x, target)

    batch_loss = _batch_loss

    def batch_loss_and_grads(self, X, T, workspace: Workspace | None = None):
        return batch_backprop(self.layers, X, T, workspace)

    def prepare_training(self, X, T):
        return np.atleast_2d(np.asarray(X, dtype=float)), np.atleast_2d(np.asarray(T, dtype=float))


class ElmanModel:
    """Recurrent hidden layer with context units copied from the previous step.

    single-step mode feeds the whole feature vector as one step, starting
    from the configured initial context (0.5 per unit by default, so the
    recurrent weights receive gradient).  feature-sequence mode feeds the
    record one feature per step and reads the output from the final hidden
    state.
    """

    family = "elman"

    def __init__(self, wx, wh, b1, w2, b2, feature_count: int,
                 mode: str = "single-step", context_init: float = 0.5):
        if mode not in ELMAN_MODES:
            raise ValueError(f"mode must be one of {ELMAN_MODES}")
        self.wx = np.asarray(wx, dtype=float)
        self.wh = np.asarray(wh, dtype=float)
        self.b1 = np.asarray(b1, dtype=float)
        self.w2 = np.asarray(w2, dtype=float)
        self.b2 = np.asarray(b2, dtype=float)
        self.mode = mode
        self.context_init = float(context_init)
        self.feature_count = int(feature_count)
        hidden = self.wx.shape[0]
        step_dim = self.feature_count if mode == "single-step" else 1
        if self.wx.shape != (hidden, step_dim):
            raise ValueError(f"wx must be ({hidden}, {step_dim}), got {self.wx.shape}")
        if self.wh.shape != (hidden, hidden):
            raise ValueError(f"wh must be square ({hidden}, {hidden}), got {self.wh.shape}")
        if self.b1.shape != (hidden,) or self.w2.shape[1] != hidden:
            raise ValueError("hidden dimensions are inconsistent")
        if self.b2.shape != (self.w2.shape[0],):
            raise ValueError("output bias length does not match output weights")

    @property
    def in_dim(self) -> int:
        return self.feature_count

    @property
    def hidden_dim(self) -> int:
        return self.wx.shape[0]

    @property
    def out_dim(self) -> int:
        return self.w2.shape[0]

    def _as_steps(self, X) -> np.ndarray:
        """(N, F) batch -> (N, steps, step_dim) per the sequence mode."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.feature_count:
            raise ValueError(
                f"expected {self.feature_count} features per sample, got {X.shape[1]}"
            )
        return X[:, None, :] if self.mode == "single-step" else X[:, :, None]

    def unroll(self, x):
        """Per-step (pre_activation, hidden, previous_context) lists for one sample."""
        steps = self._as_steps(np.asarray(x, dtype=float)[None, :])[0]
        context = np.full(self.hidden_dim, self.context_init)
        pres, hiddens, contexts = [], [], []
        for step in steps:
            pre = self.wx @ step + self.wh @ context + self.b1
            hidden = sigmoid(pre)
            pres.append(pre)
            hiddens.append(hidden)
            contexts.append(context)
            context = hidden
        return pres, hiddens, contexts

    def forward(self, x) -> np.ndarray:
        _, hiddens, _ = self.unroll(x)
        return sigmoid(self.w2 @ hiddens[-1] + self.b2)

    def workspace(self, rows: int, grad=None) -> Workspace:
        """A Workspace whose acts are the context, the hidden state after each
        step, and the output; the context is filled here, once."""
        steps = 1 if self.mode == "single-step" else self.feature_count
        workspace = Workspace(rows, [self.hidden_dim] * (steps + 1) + [self.out_dim],
                              [a.shape for a in self.param_arrays()], grad)
        workspace.acts[0].fill(self.context_init)
        return workspace

    def _states(self, steps, workspace: Workspace) -> list[np.ndarray]:
        """The initial context and the hidden state after each step of a
        (N, steps, step_dim) batch."""
        n = steps.shape[0]
        states = [buf[:n] for buf in workspace.acts[:-1]]
        e, mask = workspace.scratch[0][:n], workspace.masks[0][:n]
        for t in range(steps.shape[1]):
            pre = matmul_into(steps[:, t, :], self.wx.T, states[t + 1])
            pre += matmul_into(states[t], self.wh.T, e)
            pre += self.b1
            sigmoid_inplace(pre, e, mask)
        return states

    def _output(self, X, workspace: Workspace | None):
        """(steps, states, output, workspace) of a batch."""
        steps = self._as_steps(X)
        n = steps.shape[0]
        ws = workspace or self.workspace(n)
        states = self._states(steps, ws)
        Y = dense_sigmoid(states[-1], self.w2, self.b2,
                          ws.acts[-1][:n], ws.scratch[-1][:n], ws.masks[-1][:n])
        return steps, states, Y, ws

    def predict_batch(self, X, workspace: Workspace | None = None) -> np.ndarray:
        return self._output(X, workspace)[2]

    def param_arrays(self) -> list[np.ndarray]:
        return [self.wx, self.wh, self.b1, self.w2, self.b2]

    def set_param_arrays(self, arrays) -> None:
        self.wx, self.wh, self.b1, self.w2, self.b2 = _same_shapes(self.param_arrays(), arrays)

    def loss(self, x, target) -> float:
        return self.batch_loss(np.asarray(x, dtype=float)[None, :],
                               np.asarray(target, dtype=float)[None, :])

    def loss_and_grads(self, x, target):
        return self.batch_loss_and_grads(np.asarray(x, dtype=float)[None, :],
                                         np.asarray(target, dtype=float)[None, :])

    batch_loss = _batch_loss

    def batch_loss_and_grads(self, X, T, workspace: Workspace | None = None):
        """Backpropagation through time across the sample's steps."""
        steps, states, Y, ws = self._output(X, workspace)
        loss, d_out = output_delta(Y, np.atleast_2d(np.asarray(T, dtype=float)))
        g_wx, g_wh, g_b1, g_w2, g_b2 = ws.grads
        matmul_into(d_out.T, states[-1], g_w2)
        np.add.reduce(d_out, axis=0, out=g_b2)
        d_hidden = matmul_into(d_out, self.w2, ws.scratch[0][:len(Y)])
        # Step t overwrites states[t + 1], which no earlier step reads, and then
        # holds the delta it sends back; step 0 sends none.
        last = steps.shape[1] - 1
        for t in reversed(range(last + 1)):
            d_pre = times_sigmoid_slope(d_hidden, states[t + 1])
            if t == last:
                matmul_into(d_pre.T, steps[:, t, :], g_wx)
                matmul_into(d_pre.T, states[t], g_wh)
                np.add.reduce(d_pre, axis=0, out=g_b1)
            else:
                g_wx += d_pre.T @ steps[:, t, :]
                g_wh += d_pre.T @ states[t]
                g_b1 += d_pre.sum(axis=0)
            if t:
                d_hidden = matmul_into(d_pre, self.wh, states[t + 1])
        np.add(ws.grad, 0.0, out=ws.grad)
        return loss, ws.grads

    def prepare_training(self, X, T):
        return np.atleast_2d(np.asarray(X, dtype=float)), np.atleast_2d(np.asarray(T, dtype=float))


class NarxModel:
    """Autoregressive network over current features, delayed features, and
    delayed outputs.

    The underlying dense core sees the composed vector
    [x_t, x_{t-1}, ..., x_{t-du}, y_{t-1}, ..., y_{t-dy}].  per-record mode
    zeroes every delay tap (records are independent patients); stream mode
    composes taps from the ordered history with teacher-forced targets, so
    each composed step trains like an independent dense sample.  Prediction
    residuals (target minus output) are recorded whenever targets are
    available, and are never fed back into the model.
    """

    family = "narx"

    def __init__(self, core: FfnnModel, feature_count: int,
                 d_u: int = 0, d_y: int = 1, mode: str = "per-record"):
        if mode not in NARX_MODES:
            raise ValueError(f"mode must be one of {NARX_MODES}")
        if d_u < 0:
            raise ValueError("exogenous delay order d_u must be >= 0")
        if d_y < 1:
            raise ValueError("output delay order d_y must be >= 1")
        expected = feature_count * (1 + d_u) + core.out_dim * d_y
        if core.in_dim != expected:
            raise ValueError(
                f"core input width {core.in_dim} != F*(1+d_u)+O*d_y = {expected}"
            )
        self.core = core
        self.feature_count = int(feature_count)
        self.d_u = int(d_u)
        self.d_y = int(d_y)
        self.mode = mode
        self.last_residuals: np.ndarray | None = None

    @property
    def in_dim(self) -> int:
        return self.feature_count

    @property
    def out_dim(self) -> int:
        return self.core.out_dim

    @property
    def composed_dim(self) -> int:
        return self.core.in_dim

    def compose_record(self, x) -> np.ndarray:
        """Composed input for one independent record: all delay taps zero."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.feature_count,):
            raise ValueError(f"expected {self.feature_count} features, got {x.shape}")
        taps = np.zeros(self.composed_dim - self.feature_count)
        return np.concatenate([x, taps])

    def compose_stream(self, X, T) -> np.ndarray:
        """Teacher-forced composition over an ordered labeled stream.

        Delay taps before the start of the stream are zero; the output taps
        carry the true targets of earlier steps, never model predictions.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        T = np.atleast_2d(np.asarray(T, dtype=float))
        if len(X) != len(T):
            raise ValueError("stream features and targets must align")
        rows = []
        for t in range(len(X)):
            parts = [X[t]]
            for k in range(1, self.d_u + 1):
                parts.append(X[t - k] if t - k >= 0 else np.zeros(self.feature_count))
            for k in range(1, self.d_y + 1):
                parts.append(T[t - k] if t - k >= 0 else np.zeros(self.out_dim))
            rows.append(np.concatenate(parts))
        return np.array(rows) if rows else np.zeros((0, self.composed_dim))

    def forward(self, x) -> np.ndarray:
        """Per-record prediction; undefined for stream mode (no history)."""
        if self.mode != "per-record":
            raise ValueError("stream-mode NARX needs a labeled history; use predict_stream")
        return self.core.forward(self.compose_record(x))

    def predict_record_batch(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        taps = np.zeros((len(X), self.composed_dim - self.feature_count))
        return self.core.predict_batch(np.hstack([X, taps]))

    def predict_stream(self, X, T):
        """(outputs, residuals) over an ordered labeled stream."""
        composed = self.compose_stream(X, T)
        Y = self.core.predict_batch(composed)
        residuals = np.atleast_2d(np.asarray(T, dtype=float)) - Y
        self.last_residuals = residuals
        return Y, residuals

    # Training interface: samples are composed vectors.
    def param_arrays(self) -> list[np.ndarray]:
        return self.core.param_arrays()

    def set_param_arrays(self, arrays) -> None:
        self.core.set_param_arrays(arrays)

    def loss(self, composed, target) -> float:
        return self.core.loss(composed, target)

    def loss_and_grads(self, composed, target):
        return self.core.loss_and_grads(composed, target)

    def workspace(self, rows: int, grad=None) -> Workspace:
        return self.core.workspace(rows, grad)

    def batch_loss(self, Xc, T, workspace: Workspace | None = None) -> float:
        return self.core.batch_loss(Xc, T, workspace)

    def batch_loss_and_grads(self, Xc, T, workspace: Workspace | None = None):
        return self.core.batch_loss_and_grads(Xc, T, workspace)

    def prepare_training(self, X, T):
        T = np.atleast_2d(np.asarray(T, dtype=float))
        if self.mode == "per-record":
            X = np.atleast_2d(np.asarray(X, dtype=float))
            taps = np.zeros((len(X), self.composed_dim - self.feature_count))
            return np.hstack([X, taps]), T
        return self.compose_stream(X, T), T


def _init_layer(rng, out_dim: int, in_dim: int) -> LayerParams:
    # Uniform fan-balanced init keeps sigmoid layers out of saturation.
    r = np.sqrt(6.0 / (in_dim + out_dim))
    return LayerParams(rng.uniform(-r, r, size=(out_dim, in_dim)), np.zeros(out_dim))


def build_ffnn(feature_count: int, hidden_size: int, out_dim: int, seed: int = 0) -> FfnnModel:
    rng = np.random.default_rng(seed)
    return FfnnModel(
        hidden=_init_layer(rng, hidden_size, feature_count),
        output=_init_layer(rng, out_dim, hidden_size),
    )


def build_elman(feature_count: int, hidden_size: int, out_dim: int, seed: int = 0,
                mode: str = "single-step", context_init: float = 0.5) -> ElmanModel:
    rng = np.random.default_rng(seed)
    step_dim = feature_count if mode == "single-step" else 1
    wx = _init_layer(rng, hidden_size, step_dim)
    wh = _init_layer(rng, hidden_size, hidden_size)
    w2 = _init_layer(rng, out_dim, hidden_size)
    return ElmanModel(
        wx=wx.weights, wh=wh.weights, b1=wx.biases, w2=w2.weights, b2=w2.biases,
        feature_count=feature_count, mode=mode, context_init=context_init,
    )


def build_narx(feature_count: int, hidden_size: int, out_dim: int, seed: int = 0,
               d_u: int = 0, d_y: int = 1, mode: str = "per-record") -> NarxModel:
    width = feature_count * (1 + d_u) + out_dim * d_y
    core = build_ffnn(width, hidden_size, out_dim, seed=seed)
    return NarxModel(core, feature_count=feature_count, d_u=d_u, d_y=d_y, mode=mode)


def build_model(family: str, feature_count: int, hidden_size: int, out_dim: int,
                seed: int = 0, **kwargs):
    if family == "ffnn":
        return build_ffnn(feature_count, hidden_size, out_dim, seed=seed, **kwargs)
    if family == "elman":
        return build_elman(feature_count, hidden_size, out_dim, seed=seed, **kwargs)
    if family == "narx":
        return build_narx(feature_count, hidden_size, out_dim, seed=seed, **kwargs)
    raise ValueError(f"unknown model family {family!r}")
