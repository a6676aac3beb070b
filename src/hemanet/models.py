"""The three network families, feedforward (FFNN), Elman recurrent and NARX
with exogenous/output delay lines, as one Network over nncore's kernel.

A family is a row of FAMILIES: its options with their defaults.  Every
difference between the families follows from the options:
- ``context_init`` gives the net recurrent weights wh and a context,
  Elman's copy of the previous hidden state (Elman 1990), here constant:
  one row for every sample, so wh @ context is a second, trainable hidden
  bias, which the kernel computes once per call;
- ``d_u``/``d_y`` give F*d_u + O*d_y delay taps beside the F features of a
  net of O outputs (NARX; Lin, Horne, Tino & Giles 1996).
So FFNN is the kernel's (wx, b1, w2, b2), Elman adds wh after wx, and NARX
is the FFNN kernel on its feature columns.  Each family runs one hidden
step over the whole feature vector: the nine CBC values are one input, not
a sequence.

Records are independent patients, so recurrent state never leaks between
samples: the Elman context restarts from ``context_init`` for every sample,
and every NARX delay tap is zero, so its weight gets exactly zero gradient.
A net keeps those weights apart from its parameters, as ``tap_weights``, a
constant (hidden, taps) array that no kernel reads, for the model file,
whose input weights are one (hidden, F + taps) matrix.  The initial draw's
fan-in counts the taps.

The trainer, the gradient checker and the pipeline use param_arrays /
set_param_arrays, workspace, batch_loss, batch_loss_and_grads, predict_batch
and its batch of one, forward; every one of them takes feature rows.  The
batch methods take an optional nncore.Workspace from the network's
workspace(rows) and write into it; without one they build their own for
the call.  to_doc gives a network's model-document fields, where _STORED
places each option, and from_doc rebuilds it.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .nncore import Workspace, as_rows, output_residual
from .records import SUBTYPES, AnemiaLabel

# Output encodings.  Diagnosis uses a single thresholded sigmoid; the
# classification stage defaults to the first subtype encoding, one-hot over
# the three subtypes, with a single-output banded one as the alternative.
SUBTYPE_ENCODINGS = ("onehot3", "banded1")
ENCODINGS = ("binary1", *SUBTYPE_ENCODINGS)
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
    if encoding not in SUBTYPE_ENCODINGS:
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


def decode_subtype(output, encoding: str) -> AnemiaLabel:
    """Subtype of one output vector: subtype_indices on a batch of one."""
    return SUBTYPES[subtype_indices(np.asarray(output, dtype=float)[None], encoding)[0]]


class Family(NamedTuple):
    """One network family: its options with their defaults, and the entries
    its model documents hold whatever the options, by their name in _STORED."""

    options: dict
    fixed: dict = {}


#: Every family by name, in the order ``compare`` reports them.
FAMILIES = {
    "ffnn": Family({}),
    "narx": Family({"d_u": 0, "d_y": 1}, fixed={"delay_mode": "per-record"}),
    "elman": Family({"context_init": 0.5}, fixed={"mode": "single-step"}),
}

#: Where a model document stores each option, the recurrent weights (wh)
#: and the fixed entries: name -> (section, key), in the order written.
_STORED = {
    "wh": ("recurrent", "weights"),
    "context_init": ("recurrent", "context_init"),
    "mode": ("recurrent", "mode"),
    "d_u": ("delays", "exogenous"),
    "d_y": ("delays", "output"),
    "delay_mode": ("delays", "mode"),
}
_NAMES = {place: name for name, place in _STORED.items()}


def _options(family: str, given: dict) -> dict:
    """The options of ``family``: ``given``, as the type of their defaults,
    over the defaults.  Raises ValueError on an unknown family or option,
    or a bad value."""
    if family not in FAMILIES:
        raise ValueError(f"unknown model family {family!r}")
    spec = FAMILIES[family]
    if stray := sorted(given.keys() - spec.options.keys()):
        raise ValueError(f"{family} has no option {stray[0]!r}")
    for name, value in given.items():
        kind = type(spec.options[name])  # a float option takes an int too, never a bool
        if isinstance(value, bool) or not isinstance(value, (int, kind)):
            raise ValueError(f"{name} must be of type {kind.__name__}, got {value!r}")
    options = {name: type(default)(given.get(name, default))
               for name, default in spec.options.items()}
    if not math.isfinite(options.get("context_init", 0.0)):
        raise ValueError(f"context_init must be finite, got {options['context_init']!r}")
    if options.get("d_u", 0) < 0:
        raise ValueError("exogenous delay order d_u must be >= 0")
    if options.get("d_y", 1) < 1:
        raise ValueError("output delay order d_y must be >= 1")
    return options


def _layout(options: dict, feature_count: int, hidden: int, out: int):
    """(parameter shapes, tap columns) of a net of ``options``: the shapes of
    (wx, b1, w2, b2), with wh's after wx when there is a context."""
    taps = feature_count * options.get("d_u", 0) + out * options.get("d_y", 0)
    recurrent = [(hidden, hidden)] if "context_init" in options else []
    return [(hidden, feature_count), *recurrent, (hidden,), (out, hidden), (out,)], taps


class Network:
    """A sigmoid hidden layer, then a sigmoid output layer: nncore's kernel
    with the parameters ``params`` of a net of ``family`` and its
    ``options`` over ``feature_count`` features, beside the (hidden, taps)
    ``tap_weights``, kept read-only (none when not given).  Raises ValueError
    on a bad option, or on arrays not finite or not of the shapes it gives."""

    def __init__(self, family: str, params, feature_count: int, tap_weights=None, **options):
        self.family = family
        self.options = _options(family, options)
        self.feature_count = int(feature_count)
        self.context_init = self.options.get("context_init")
        params = [np.asarray(a, dtype=float) for a in params]
        if params[-2].ndim != 2:
            raise ValueError(f"output weights must be 2-d, got shape {params[-2].shape}")
        out, hidden = params[-2].shape
        shapes, taps = _layout(self.options, self.feature_count, hidden, out)
        tap_weights = np.array(np.zeros((hidden, 0)) if tap_weights is None else tap_weights, float)
        if [a.shape for a in params] != shapes or tap_weights.shape != (hidden, taps):
            raise ValueError(f"{family} parameters over {self.feature_count} features must "
                             f"have shapes {shapes} and tap weights {(hidden, taps)}, got "
                             f"{[a.shape for a in params]} and {tap_weights.shape}")
        if not all(np.isfinite(a).all() for a in (*params, tap_weights)):
            raise ValueError("parameters must be finite")
        tap_weights.flags.writeable = False
        self.params, self.tap_weights = params, tap_weights

    @classmethod
    def _of_input_matrix(cls, family: str, params, feature_count: int, **options) -> Network:
        """The network whose input weights params[0] are the model file's one
        (hidden, features + taps) matrix, its tap weights after the features."""
        wx, tap_weights = np.hsplit(np.asarray(params[0], dtype=float), [feature_count])
        return cls(family, [np.ascontiguousarray(wx), *params[1:]], feature_count,
                   tap_weights, **options)

    @property
    def out_dim(self) -> int:
        return len(self.params[-1])

    def param_arrays(self) -> list[np.ndarray]:
        return self.params

    def set_param_arrays(self, arrays) -> None:
        """Rebind the parameters to ``arrays`` of the same shapes.  Values are
        not checked: the trainer binds views whose finiteness it checks itself."""
        arrays = [np.asarray(a, dtype=float) for a in arrays]
        if [a.shape for a in arrays] != [a.shape for a in self.params]:
            raise ValueError(f"parameter shapes {[a.shape for a in arrays]} do not match "
                             f"{[a.shape for a in self.params]}")
        self.params = arrays

    def workspace(self, rows: int) -> Workspace:
        """A Workspace for the network's kernel, for up to ``rows`` rows."""
        return Workspace(rows, [a.shape for a in self.params], self.context_init)

    def predict_batch(self, X, workspace: Workspace | None = None) -> np.ndarray:
        """Outputs of the feature rows X, under ``workspace`` or a new one."""
        X = as_rows(X)
        n = len(X)
        return (workspace or self.workspace(n)).kernel(n).forward(self.params, X)

    def forward(self, x) -> np.ndarray:
        """Output of one feature vector: predict_batch on a batch of one."""
        return self.predict_batch(np.asarray(x, dtype=float)[None])[0]

    def batch_loss(self, X, T, workspace: Workspace | None = None) -> float:
        """Mean squared error of the feature rows X against T of the output's shape."""
        n = len(X)
        Y = (workspace or self.workspace(n)).kernel(n).forward(self.params, X)
        return float(np.mean(output_residual(Y, np.atleast_2d(T)) ** 2))

    def batch_loss_and_grads(self, X, T, workspace: Workspace | None = None):
        """(mean squared error, gradients in parameter order) of the feature
        rows X against targets T of the output's shape, by backpropagation,
        under ``workspace`` or a new one; the gradients are the workspace's
        ``grads``.  Matches the mean over its one-row batches up to
        summation order."""
        n = len(X)
        return (workspace or self.workspace(n)).kernel(n).backprop(self.params, X, T)

    def to_doc(self) -> dict:
        """The network's model-document fields."""
        wx, *wh, b1, w2, b2 = self.params
        wx = np.hstack([wx, self.tap_weights])
        doc = {"layers": [{"weights": wx.tolist(), "biases": b1.tolist()},
                          {"weights": w2.tolist(), "biases": b2.tolist()}],
               "recurrent": {}, "delays": {}}
        values = {**FAMILIES[self.family].fixed, **self.options}
        if wh:
            values["wh"] = wh[0].tolist()
        for name, (section, key) in _STORED.items():
            if name in values:
                doc[section][key] = values[name]
        return doc

    @classmethod
    def from_doc(cls, family: str, doc, feature_count: int, read) -> Network:
        """The network of ``family`` whose model-document fields ``doc`` holds;
        ``read(value, what)`` turns each stored array into a float array or
        raises.  An option not stored takes its default.  Raises ValueError
        on an entry of ``recurrent`` or ``delays`` the family does not store."""
        spec = FAMILIES[family]
        stored = {*spec.options, *spec.fixed}
        if "context_init" in stored:
            stored.add("wh")
        values = {}
        for section in ("recurrent", "delays"):
            for key, value in (doc.get(section) or {}).items():
                name = _NAMES.get((section, key))
                if name not in stored:
                    raise ValueError(f"{family} models store no {section}.{key}")
                values[name] = value
        for name, value in spec.fixed.items():
            if (got := values.pop(name, value)) != value:
                section, key = _STORED[name]
                raise ValueError(f"{family.upper()} {section}.{key} must be {value!r}, "
                                 f"got {got!r}")
        if "wh" in stored and "wh" not in values:
            raise ValueError(f"{family} models need recurrent.weights")
        recurrent = [read(values.pop("wh"), "recurrent weights")] if "wh" in stored else []
        hidden, output = doc["layers"]
        params = [read(hidden["weights"], "hidden layer weights"), *recurrent,
                  read(hidden["biases"], "hidden layer biases"),
                  read(output["weights"], "output layer weights"),
                  read(output["biases"], "output layer biases")]
        return cls._of_input_matrix(family, params, feature_count, **values)


def build_model(family: str, feature_count: int, hidden_size: int, out_dim: int,
                seed: int = 0, **options) -> Network:
    """A new network of ``family`` with the family's ``options``; raises
    ValueError on an unknown family, option or bad option value.  Weights
    are drawn uniform and fan-balanced, which keeps sigmoid layers out of
    saturation, in parameter order; biases start at zero."""
    options = _options(family, options)
    rng = np.random.default_rng(seed)
    shapes, taps = _layout(options, feature_count, hidden_size, out_dim)
    shapes[0] = (hidden_size, feature_count + taps)  # the model file's input matrix
    params = []
    for shape in shapes:
        r = np.sqrt(6.0 / sum(shape))
        params.append(rng.uniform(-r, r, size=shape) if len(shape) == 2 else np.zeros(shape))
    return Network._of_input_matrix(family, params, feature_count, **options)
