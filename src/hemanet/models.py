"""The three network families over the dense core: feedforward, Elman
recurrent, and NARX with exogenous/output delay lines.

All models share the duck interface the trainer, the gradient checker and
the pipeline use: param_arrays / set_param_arrays, workspace, batch_loss,
batch_loss_and_grads, predict_batch and its batch of one, forward.  The
training methods take samples in the model's prepared form (see
prepare_training; NARX's adds the zero delay taps); predict_batch takes
feature rows.  The batch kernels take an optional nncore.Workspace from the
model's workspace(rows) and write into it; without one they build their
own for the call.  Every family runs nncore's one kernel, which a
workspace binds once per row count and which reads the model's current
parameter arrays on every call: FFNN's (wx, b1, w2, b2) in one step,
Elman's (wx, wh, b1, w2, b2) in one step or one per feature, and NARX
through its FFNN core.  FFNN and Elman share the bodies of those methods.
to_doc gives a network's model-document fields, and from_doc(doc,
feature_count, read) rebuilds it, with read(value, what) turning each
stored array into a float array or raising.

Elman and NARX are applied to independent patient records, so recurrent
state never leaks between samples: the Elman context restarts from its
configured initial value for every sample, and NARX zeroes all delay taps.
Elman's feature-sequence mode, which steps through one record's features,
is the one sequence-flavored alternative.
"""
from __future__ import annotations

import inspect
import math
from typing import Callable, NamedTuple

import numpy as np

from .nncore import LayerParams, Workspace, as_rows, output_residual
from .records import SUBTYPES, AnemiaLabel

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


def _workspace(model, rows: int) -> Workspace:
    """A Workspace for the model's kernel, for up to ``rows`` rows."""
    return Workspace(rows, [a.shape for a in model.param_arrays()], model.steps,
                     model.context_init)


def _predict_batch(model, X, workspace: Workspace | None = None) -> np.ndarray:
    """Outputs of the feature rows X, under ``workspace`` or a new one."""
    X = as_rows(X)
    n = len(X)
    return (workspace or model.workspace(n)).kernel(n).forward(model.param_arrays(), X)


def _batch_loss_and_grads(model, X, T, workspace: Workspace | None = None):
    """(mean squared error, gradients in parameter order) of the 2-d float64
    inputs X against targets T of the output's shape, under ``workspace``
    or a new one; the gradients are the workspace's ``grads``.  Matches the
    mean over its one-row batches up to summation order."""
    n = len(X)
    return (workspace or model.workspace(n)).kernel(n).backprop(model.param_arrays(), X, T)


def _batch_loss(model, X, T, workspace: Workspace | None = None) -> float:
    """Mean squared error of model.predict_batch(X) against T of its shape."""
    Y = model.predict_batch(X, workspace)
    return float(np.mean(output_residual(Y, np.atleast_2d(T)) ** 2))


def _forward(model, x) -> np.ndarray:
    """Output of one feature vector: predict_batch on a batch of one."""
    return model.predict_batch(np.asarray(x, dtype=float)[None])[0]


def _prepare_training(model, X, T):
    """(network inputs, targets) of feature rows and their targets, in the
    form the training kernels take: both as 2-d float arrays."""
    return as_rows(X), as_rows(T)


def decode_subtype(output, encoding: str) -> AnemiaLabel:
    """Subtype of one output vector: subtype_indices on a batch of one."""
    return SUBTYPES[subtype_indices(np.asarray(output, dtype=float)[None], encoding)[0]]


def _layer_doc(weights, biases) -> dict:
    return {"weights": weights.tolist(), "biases": biases.tolist()}


def _layers_from_doc(doc, read) -> list[LayerParams]:
    """The hidden and output layers of a model document, read with ``read``."""
    return [LayerParams(read(layer["weights"], f"{what} weights"),
                        read(layer["biases"], f"{what} biases"))
            for layer, what in zip(doc["layers"], ("hidden layer", "output layer"))]


class FfnnModel:
    """Input -> sigmoid hidden -> sigmoid output: the kernel's net in one
    step, with no recurrent state."""

    family = "ffnn"
    steps, context_init = 1, None

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

    forward = _forward
    workspace = _workspace
    predict_batch = _predict_batch

    def param_arrays(self) -> list[np.ndarray]:
        return [self.hidden.weights, self.hidden.biases,
                self.output.weights, self.output.biases]

    def set_param_arrays(self, arrays) -> None:
        (self.hidden.weights, self.hidden.biases,
         self.output.weights, self.output.biases) = _same_shapes(self.param_arrays(), arrays)

    batch_loss = _batch_loss
    batch_loss_and_grads = _batch_loss_and_grads
    prepare_training = _prepare_training

    def to_doc(self) -> dict:
        return {"layers": [_layer_doc(layer.weights, layer.biases)
                           for layer in (self.hidden, self.output)],
                "recurrent": {}, "delays": {}}

    @classmethod
    def from_doc(cls, doc, feature_count: int, read) -> FfnnModel:
        return cls(*_layers_from_doc(doc, read))


class ElmanModel:
    """Recurrent hidden layer with context units copied from the previous step.

    single-step mode feeds the whole feature vector as one step, starting
    from the configured initial context (0.5 per unit by default, so the
    recurrent weights receive gradient).  feature-sequence mode feeds the
    record one feature per step and reads the output from the final hidden
    state.
    """

    family = "elman"

    def __init__(self, wx, wh, b1, w2, b2, feature_count: int, *,
                 mode: str, context_init: float):
        if mode not in FAMILIES[self.family].modes:
            raise ValueError(f"mode must be one of {FAMILIES[self.family].modes}")
        if not math.isfinite(context_init):
            raise ValueError(f"context_init must be finite, got {context_init!r}")
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

    @property
    def steps(self) -> int:
        return 1 if self.mode == "single-step" else self.feature_count

    forward = _forward
    workspace = _workspace
    predict_batch = _predict_batch

    def param_arrays(self) -> list[np.ndarray]:
        return [self.wx, self.wh, self.b1, self.w2, self.b2]

    def set_param_arrays(self, arrays) -> None:
        self.wx, self.wh, self.b1, self.w2, self.b2 = _same_shapes(self.param_arrays(), arrays)

    batch_loss = _batch_loss
    batch_loss_and_grads = _batch_loss_and_grads  # backpropagation through time
    prepare_training = _prepare_training

    def to_doc(self) -> dict:
        return {
            "layers": [_layer_doc(self.wx, self.b1), _layer_doc(self.w2, self.b2)],
            "recurrent": {"weights": self.wh.tolist(), "context_init": self.context_init,
                          "mode": self.mode},
            "delays": {},
        }

    @classmethod
    def from_doc(cls, doc, feature_count: int, read) -> ElmanModel:
        hidden, output = _layers_from_doc(doc, read)
        recurrent = doc.get("recurrent") or {}
        default = FAMILIES[cls.family].options
        return cls(
            hidden.weights, read(recurrent["weights"], "recurrent weights"), hidden.biases,
            output.weights, output.biases, feature_count,
            mode=recurrent.get("mode", default["mode"]),
            context_init=float(read(recurrent.get("context_init", default["context_init"]),
                                    "context_init")),
        )


def _taps_width(feature_count: int, out_dim: int, d_u: int, d_y: int) -> int:
    """Width of the NARX delay taps; raises ValueError on a bad delay order."""
    if d_u < 0:
        raise ValueError("exogenous delay order d_u must be >= 0")
    if d_y < 1:
        raise ValueError("output delay order d_y must be >= 1")
    return feature_count * d_u + out_dim * d_y


class NarxModel:
    """Dense core over current features, delayed features, and delayed outputs.

    The core sees the composed vector
    [x_t, x_{t-1}, ..., x_{t-du}, y_{t-1}, ..., y_{t-dy}].  Records are
    independent patients, so every delay tap is zero: d_u and d_y set the
    core's input width, and with it the initialisation's fan-in, and the tap
    weights get exactly zero gradient.
    """

    family = "narx"

    def __init__(self, core: FfnnModel, feature_count: int, *, d_u: int, d_y: int):
        expected = feature_count + _taps_width(feature_count, core.out_dim, d_u, d_y)
        if core.in_dim != expected:
            raise ValueError(
                f"core input width {core.in_dim} != F*(1+d_u)+O*d_y = {expected}"
            )
        self.core = core
        self.feature_count = int(feature_count)
        self.d_u = int(d_u)
        self.d_y = int(d_y)

    @property
    def in_dim(self) -> int:
        return self.feature_count

    @property
    def out_dim(self) -> int:
        return self.core.out_dim

    @property
    def composed_dim(self) -> int:
        return self.core.in_dim

    def _zero_taps(self, X) -> np.ndarray:
        """Composed inputs of independent records: every delay tap zero."""
        return np.hstack([X, np.zeros((len(X), self.composed_dim - self.feature_count))])

    forward = _forward

    def predict_batch(self, X, workspace: Workspace | None = None) -> np.ndarray:
        X = as_rows(X)
        if X.shape[1] != self.feature_count:  # before the taps widen it
            raise ValueError(
                f"expected {self.feature_count} features per sample, got {X.shape[1]}")
        return self.core.predict_batch(self._zero_taps(X), workspace)

    # Training interface: samples are composed vectors.
    def param_arrays(self) -> list[np.ndarray]:
        return self.core.param_arrays()

    def set_param_arrays(self, arrays) -> None:
        self.core.set_param_arrays(arrays)

    def workspace(self, rows: int) -> Workspace:
        return self.core.workspace(rows)

    def batch_loss(self, Xc, T, workspace: Workspace | None = None) -> float:
        return self.core.batch_loss(Xc, T, workspace)

    def batch_loss_and_grads(self, Xc, T, workspace: Workspace | None = None):
        return _batch_loss_and_grads(self.core, Xc, T, workspace)

    def prepare_training(self, X, T):
        """(composed inputs, targets): the feature rows with zero delay taps."""
        X, T = _prepare_training(self, X, T)
        return self._zero_taps(X), T

    def to_doc(self) -> dict:
        return {**self.core.to_doc(),
                "delays": {"exogenous": self.d_u, "output": self.d_y, "mode": "per-record"}}

    @classmethod
    def from_doc(cls, doc, feature_count: int, read) -> NarxModel:
        delays = doc.get("delays") or {}
        if delays.get("mode", "per-record") != "per-record":
            raise ValueError(f"NARX delays.mode must be 'per-record', got {delays['mode']!r}")
        default = FAMILIES[cls.family].options
        return cls(
            FfnnModel.from_doc(doc, feature_count, read),
            feature_count=feature_count,
            d_u=int(delays.get("exogenous", default["d_u"])),
            d_y=int(delays.get("output", default["d_y"])),
        )


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


def build_elman(feature_count: int, hidden_size: int, out_dim: int, seed: int = 0, *,
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


def build_narx(feature_count: int, hidden_size: int, out_dim: int, seed: int = 0, *,
               d_u: int = 0, d_y: int = 1) -> NarxModel:
    width = feature_count + _taps_width(feature_count, out_dim, d_u, d_y)
    core = build_ffnn(width, hidden_size, out_dim, seed=seed)
    return NarxModel(core, feature_count=feature_count, d_u=d_u, d_y=d_y)


class Family(NamedTuple):
    """One network family: its model class, its builder, and the values of
    its ``mode`` option, if it has one."""

    model: type
    build: Callable
    modes: tuple[str, ...] = ()

    @property
    def options(self) -> dict:
        """The family's options, the builder's keyword-only arguments, with
        their defaults."""
        return {p.name: p.default for p in inspect.signature(self.build).parameters.values()
                if p.kind is p.KEYWORD_ONLY}


#: Every family by name, in the order ``compare`` reports them.
FAMILIES = {family.model.family: family for family in (
    Family(FfnnModel, build_ffnn),
    Family(NarxModel, build_narx),
    Family(ElmanModel, build_elman, ("single-step", "feature-sequence")),
)}


def build_model(family: str, feature_count: int, hidden_size: int, out_dim: int,
                seed: int = 0, **options):
    """A new network of ``family`` with the family's ``options``; raises
    ValueError on an unknown family or a bad option value."""
    if family not in FAMILIES:
        raise ValueError(f"unknown model family {family!r}")
    return FAMILIES[family].build(feature_count, hidden_size, out_dim, seed=seed, **options)
