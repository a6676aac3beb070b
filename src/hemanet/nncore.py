"""Dense-network machinery: one batched kernel (sigmoid layers, MSE and
backprop over a batch of rows; one sample is a batch of one), momentum SGD,
finite-difference gradient checking, and the training loop.

All math is float64.  Training is single-threaded and fully determined by
(seed, data, config); the per-sample update mode shuffles with its own
seeded generator each epoch.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def sigmoid_inplace(z: np.ndarray, e=None, nonnegative=None) -> np.ndarray:
    """Logistic function of the float64 array ``z`` (at least 1-d), written over it.

    Branch-free: with e = exp(-|z|), the numerator max(e, z >= 0) is exactly 1
    where z >= 0 and e elsewhere, so every value, NaN too, is 1/(1+e) | e/(1+e).
    Steps alternate between ``z`` and one temporary: numpy is slow to run an
    operation into its own input when the array has a single element.  ``e``
    and ``nonnegative`` are float64 and bool scratch arrays of z's shape;
    new ones are allocated when they are not given.
    """
    nonnegative = np.greater_equal(z, 0.0, out=nonnegative)
    e = np.abs(z, out=e)
    np.negative(e, out=z)
    np.exp(z, out=e)
    np.add(e, 1.0, out=z)
    np.maximum(e, nonnegative, out=e)
    return np.divide(e, z, out=z)


def sigmoid(x):
    """Logistic function of a copy of ``x``; a 0-d input gives a float."""
    x = np.array(x, dtype=float)
    return sigmoid_inplace(x) if x.shape else float(sigmoid_inplace(x[None])[0])


@dataclass
class LayerParams:
    """One dense layer: weights (out_dim, in_dim) and biases (out_dim,)."""

    weights: np.ndarray
    biases: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.biases = np.asarray(self.biases, dtype=float)
        if self.weights.ndim != 2 or self.biases.ndim != 1:
            raise ValueError("weights must be 2-d and biases 1-d")
        if self.weights.shape[0] != self.biases.shape[0]:
            raise ValueError(
                f"bias length {self.biases.shape[0]} does not match "
                f"output dim {self.weights.shape[0]}"
            )
        if not (np.isfinite(self.weights).all() and np.isfinite(self.biases).all()):
            raise ValueError("layer parameters must be finite")

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]


def matmul_into(a, b, out) -> np.ndarray:
    """a @ b, written into ``out``.

    With an inner dimension of 1 the product is an outer product, computed as
    a broadcast multiply.  Its zeros keep their sign, where a BLAS product,
    which accumulates from zero, gives +0.0: kernels add 0.0 to the
    gradients they write this way.
    """
    if a.shape[-1] == 1:
        return np.multiply(a, b, out=out)
    return np.matmul(a, b, out=out)


def param_views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive pieces of the flat vector ``flat`` as views of the given
    shapes, which must fill it exactly."""
    sizes = [math.prod(shape) for shape in shapes]
    if sum(sizes) != flat.size:
        raise ValueError(f"shapes {list(shapes)} do not fill a vector of {flat.size}")
    views, start = [], 0
    for shape, size in zip(shapes, sizes):
        views.append(flat[start:start + size].reshape(shape))
        start += size
    return views


class Workspace:
    """Preallocated buffers for a model's batch kernels, for up to ``rows`` rows.

    ``acts`` holds one (rows, width) float64 array per entry of ``widths``,
    and ``scratch``/``masks`` a float64 and a bool array of the same shape
    for each; every scratch array is a view of one buffer, and so is every
    mask.  A batch of n rows uses the first n rows of each array.  A scratch
    array holds the sigmoid's temporary, then the first backward delta;
    ``spare`` (stacks of more than two layers only) holds every second delta
    after it.  ``grads`` are views, in parameter order, into the flat
    gradient vector ``grad`` (a new one when it is not given).

    A kernel run under a workspace writes its activations, deltas and
    gradients into it, so the arrays it returns are overwritten by the next
    call under the same workspace.  Nothing is shared between workspaces.
    """

    def __init__(self, rows: int, widths, shapes, grad=None, spare: bool = False):
        size = rows * max(widths)
        self.acts = [np.empty((rows, width)) for width in widths]
        self.scratch = self._views(np.empty(size), rows, widths)
        self.masks = self._views(np.empty(size, dtype=bool), rows, widths)
        self.spare = self._views(np.empty(size), rows, widths) if spare else None
        self.grad = np.empty(sum(math.prod(s) for s in shapes)) if grad is None else grad
        self.grads = param_views(self.grad, shapes)

    @staticmethod
    def _views(buffer, rows, widths):
        return [buffer[:rows * width].reshape(rows, width) for width in widths]


def layer_workspace(layers: list[LayerParams], rows: int, grad=None) -> Workspace:
    """A Workspace for batch_forward and batch_backprop over ``layers``."""
    return Workspace(rows, [layer.out_dim for layer in layers],
                     [a.shape for layer in layers for a in (layer.weights, layer.biases)],
                     grad, spare=len(layers) > 2)


def dense_sigmoid(a, weights, biases, out, e, mask) -> np.ndarray:
    """sigmoid(a @ weights.T + biases) for a batch of rows, written into ``out``
    with the scratch arrays ``e`` and ``mask`` of its shape."""
    z = matmul_into(a, weights.T, out)
    z += biases
    return sigmoid_inplace(z, e, mask)


def times_sigmoid_slope(delta, s) -> np.ndarray:
    """delta * s * (1 - s), left to right, in place; s (spent) becomes 1 - s."""
    delta *= s
    np.subtract(1.0, s, out=s)
    delta *= s
    return delta


def output_residual(Y, T) -> np.ndarray:
    """Y - T for outputs Y and targets T; ValueError unless their shapes match."""
    if Y.shape != T.shape:
        raise ValueError(f"targets of shape {T.shape} do not match outputs {Y.shape}")
    return Y - T


def output_delta(Y, T):
    """(mean squared error, its gradient at the output pre-activation) of
    outputs Y against targets T of the same shape."""
    residual = output_residual(Y, T)
    return float((residual ** 2).sum() / Y.size), 2.0 / Y.size * residual * Y * (1.0 - Y)


def _activations(layers: list[LayerParams], X, workspace: Workspace | None):
    """The batch and every layer's activation of it, input first, and the
    workspace that holds them (a new one when none is given)."""
    acts = [np.atleast_2d(np.asarray(X, dtype=float))]
    n = len(acts[0])
    ws = workspace or layer_workspace(layers, n)
    for layer, out, e, mask in zip(layers, ws.acts, ws.scratch, ws.masks):
        acts.append(dense_sigmoid(acts[-1], layer.weights, layer.biases,
                                  out[:n], e[:n], mask[:n]))
    return acts, ws


def batch_forward(layers: list[LayerParams], X, workspace: Workspace | None = None) -> np.ndarray:
    """Vectorized forward over a batch of row vectors."""
    return _activations(layers, X, workspace)[0][-1]


def batch_backprop(layers: list[LayerParams], X, T, workspace: Workspace | None = None):
    """Vectorized mean loss and mean gradients over a batch.

    Matches the mean over its one-row batches up to summation order.  The
    gradients are the workspace's ``grads``.
    """
    acts, ws = _activations(layers, X, workspace)
    loss, delta = output_delta(acts[-1], np.atleast_2d(np.asarray(T, dtype=float)))
    n = len(acts[0])
    deltas = (ws.scratch, ws.spare)
    for i in reversed(range(len(layers))):
        matmul_into(delta.T, acts[i], ws.grads[2 * i])
        np.add.reduce(delta, axis=0, out=ws.grads[2 * i + 1])
        if i:
            out = deltas[(len(layers) - 1 - i) % 2][i - 1][:n]
            delta = times_sigmoid_slope(matmul_into(delta, layers[i].weights, out), acts[i])
    np.add(ws.grad, 0.0, out=ws.grad)
    return loss, ws.grads


def sgd_momentum_step(params, grad, velocity, learning_rate: float, momentum: float) -> None:
    """Classical momentum, in place on flat vectors: v <- mu*v - eta*g ; w <- w + v."""
    if grad.shape != params.shape or velocity.shape != params.shape:
        raise ValueError(
            f"gradient {grad.shape} and velocity {velocity.shape} must match "
            f"parameters {params.shape}"
        )
    velocity *= momentum
    velocity -= learning_rate * grad
    params += velocity


def gradient_check(model, sample, target, epsilon: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``model`` must expose param_arrays() (live arrays), batch_loss(X, T) and
    batch_loss_and_grads(X, T), the kernels training runs; the sample and its
    target are checked as a batch of one row.  Relative error per parameter
    is |a - n| / max(|a|, |n|, 1e-8).
    """
    if not 1e-7 <= epsilon <= 1e-3:
        raise ValueError("epsilon must lie in [1e-7, 1e-3]")
    sample = np.asarray(sample, dtype=float)[None, :]
    target = np.asarray(target, dtype=float)[None, :]
    _, analytic = model.batch_loss_and_grads(sample, target)
    worst = 0.0
    for arr, grad in zip(model.param_arrays(), analytic):
        for idx in np.ndindex(arr.shape):
            original = arr[idx]
            arr[idx] = original + epsilon
            plus = model.batch_loss(sample, target)
            arr[idx] = original - epsilon
            minus = model.batch_loss(sample, target)
            arr[idx] = original
            numeric = (plus - minus) / (2.0 * epsilon)
            a = float(grad[idx])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, rel)
    return worst


UPDATE_MODES = ("full-batch", "per-sample")


@dataclass
class TrainConfig:
    learning_rate: float = 0.05
    momentum: float = 0.9
    epochs: int = 1000
    update_mode: str = "full-batch"
    hidden_size: int = 50
    seed: int = 0
    patience: int | None = None

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must lie in [0, 1)")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.hidden_size < 1:
            raise ValueError("hidden_size must be at least 1")
        if self.update_mode not in UPDATE_MODES:
            raise ValueError(f"update_mode must be one of {UPDATE_MODES}")
        if self.patience is not None and self.patience < 1:
            raise ValueError("patience must be at least 1 when set")


@dataclass
class LossCurve:
    """Per-epoch training loss, plus validation loss when tracked."""

    train: list[float] = field(default_factory=list)
    validation: list[float] | None = None

    def __len__(self) -> int:
        return len(self.train)

    def to_csv(self) -> str:
        lines = ["epoch,train_loss,val_loss" if self.validation is not None
                 else "epoch,train_loss"]
        for i, loss in enumerate(self.train, start=1):
            if self.validation is not None:
                lines.append(f"{i},{loss!r},{self.validation[i - 1]!r}")
            else:
                lines.append(f"{i},{loss!r}")
        return "\n".join(lines) + "\n"


class NumericError(RuntimeError):
    """A computation produced non-finite numbers (CLI exit code 4)."""


class TrainingDivergedError(NumericError):
    """Training loss or parameters went non-finite."""

    def __init__(self, epoch: int, what: str = "training loss"):
        self.epoch = epoch
        super().__init__(f"non-finite {what} at epoch {epoch}")


def _bind_flat(model) -> np.ndarray:
    """Copy the model's parameters into one float64 vector and rebind the
    model's arrays as views into it, so updating the vector updates the model."""
    arrays = model.param_arrays()
    flat = np.concatenate([a.ravel() for a in arrays], dtype=float)
    model.set_param_arrays(param_views(flat, [a.shape for a in arrays]))
    return flat


def train_loop(model, train, validation=None, config: TrainConfig | None = None):
    """Run momentum SGD for config.epochs epochs (or stop early on patience).

    ``train`` and ``validation`` are (X, T) pairs of prepared sample and
    target matrices.  The recorded training loss is the loss the optimizer
    saw before each update; validation loss is evaluated after the epoch's
    updates.  All parameters live in one flat vector, which every update
    changes in place; a non-finite loss or parameter raises
    TrainingDivergedError.  One workspace (``model.workspace``), sized for
    the larger of the update batch and the validation set, holds every
    update's and validation pass's arrays, and its gradient views write
    into the flat gradient vector the optimizer reads.
    """
    config = config or TrainConfig()
    X, T = train
    X = np.atleast_2d(np.asarray(X, dtype=float))
    T = np.atleast_2d(np.asarray(T, dtype=float))
    if len(X) == 0:
        raise ValueError("training data is empty")
    rows = len(X) if config.update_mode == "full-batch" else 1
    if validation is not None:
        val_x = np.atleast_2d(np.asarray(validation[0], dtype=float))
        val_t = np.atleast_2d(np.asarray(validation[1], dtype=float))
        rows = max(rows, len(val_x))

    flat = _bind_flat(model)
    velocity = np.zeros_like(flat)
    grad = np.empty_like(flat)
    workspace = model.workspace(rows, grad)
    lr, mu = config.learning_rate, config.momentum
    rng = np.random.default_rng(config.seed)
    curve = LossCurve(validation=[] if validation is not None else None)
    best_val = np.inf
    stale = 0

    def update(x, t, epoch):
        loss, _ = model.batch_loss_and_grads(x, t, workspace)
        if not math.isfinite(loss):
            raise TrainingDivergedError(epoch)
        sgd_momentum_step(flat, grad, velocity, lr, mu)
        if not np.isfinite(flat).all():
            raise TrainingDivergedError(epoch, "parameters")
        return loss

    for epoch in range(1, config.epochs + 1):
        if config.update_mode == "full-batch":
            epoch_loss = update(X, T, epoch)
        else:
            losses = [update(X[i : i + 1], T[i : i + 1], epoch)
                      for i in rng.permutation(len(X))]
            epoch_loss = float(np.mean(losses))
        curve.train.append(epoch_loss)

        if validation is not None:
            val_loss = model.batch_loss(val_x, val_t, workspace)
            curve.validation.append(val_loss)
            if config.patience is not None:
                if val_loss < best_val:
                    best_val = val_loss
                    stale = 0
                else:
                    stale += 1
                    if stale >= config.patience:
                        break
    return model, curve
