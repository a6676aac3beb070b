"""Dense-network machinery: sigmoid layers, MSE, backprop, momentum SGD,
finite-difference gradient checking, and the training loop.

All math is float64.  Training is single-threaded and fully determined by
(seed, data, config); the per-sample update mode shuffles with its own
seeded generator each epoch.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def sigmoid(x):
    """Logistic function, overflow-safe for any finite input."""
    x = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return out if out.shape else float(out)


def sigmoid_prime(x):
    s = sigmoid(x)
    return s * (1.0 - s)


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


def forward_dense(layer: LayerParams, x) -> tuple[np.ndarray, np.ndarray]:
    """One layer forward; returns (pre_activation, activation)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (layer.in_dim,):
        raise ValueError(f"input shape {x.shape} does not match in_dim {layer.in_dim}")
    pre = layer.weights @ x + layer.biases
    return pre, sigmoid(pre)


def mse_loss(pred, target) -> float:
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    return float(np.mean((pred - target) ** 2))


def mse_grad(pred, target) -> np.ndarray:
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    return 2.0 / pred.size * (pred - target)


def backprop(layers: list[LayerParams], x, target):
    """Exact reverse-mode gradients of mse_loss through sigmoid layers.

    Returns (loss, grads) with grads as a flat list
    [dW_0, db_0, dW_1, db_1, ...] matching the layer order.
    """
    pres, acts = [], [np.asarray(x, dtype=float)]
    for layer in layers:
        pre, act = forward_dense(layer, acts[-1])
        pres.append(pre)
        acts.append(act)
    loss = mse_loss(acts[-1], target)
    delta = mse_grad(acts[-1], target) * sigmoid_prime(pres[-1])
    grads = [None] * (2 * len(layers))
    for i in reversed(range(len(layers))):
        grads[2 * i] = np.outer(delta, acts[i])
        grads[2 * i + 1] = delta
        if i:
            delta = (layers[i].weights.T @ delta) * sigmoid_prime(pres[i - 1])
    return loss, grads


def batch_forward(layers: list[LayerParams], X) -> np.ndarray:
    """Vectorized forward over a batch of row vectors."""
    act = np.atleast_2d(np.asarray(X, dtype=float))
    for layer in layers:
        act = sigmoid(act @ layer.weights.T + layer.biases)
    return act


def batch_backprop(layers: list[LayerParams], X, T):
    """Vectorized mean loss and mean gradients over a batch.

    Matches the average of per-sample backprop results up to summation
    order.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    T = np.atleast_2d(np.asarray(T, dtype=float))
    acts = [X]
    for layer in layers:
        acts.append(sigmoid(acts[-1] @ layer.weights.T + layer.biases))
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

    ``model`` must expose param_arrays() (live arrays), loss(sample, target)
    and loss_and_grads(sample, target).  Relative error per parameter is
    |a - n| / max(|a|, |n|, 1e-8).
    """
    if not 1e-7 <= epsilon <= 1e-3:
        raise ValueError("epsilon must lie in [1e-7, 1e-3]")
    _, analytic = model.loss_and_grads(sample, target)
    worst = 0.0
    for arr, grad in zip(model.param_arrays(), analytic):
        for idx in np.ndindex(arr.shape):
            original = arr[idx]
            arr[idx] = original + epsilon
            plus = model.loss(sample, target)
            arr[idx] = original - epsilon
            minus = model.loss(sample, target)
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
    views, start = [], 0
    for a in arrays:
        views.append(flat[start:start + a.size].reshape(a.shape))
        start += a.size
    model.set_param_arrays(views)
    return flat


def train_loop(model, train, validation=None, config: TrainConfig | None = None):
    """Run momentum SGD for config.epochs epochs (or stop early on patience).

    ``train`` and ``validation`` are (X, T) pairs of prepared sample and
    target matrices.  The recorded training loss is the loss the optimizer
    saw before each update; validation loss is evaluated after the epoch's
    updates.  All parameters live in one flat vector, which every update
    changes in place; a non-finite loss or parameter raises
    TrainingDivergedError.
    """
    config = config or TrainConfig()
    X, T = train
    X = np.atleast_2d(np.asarray(X, dtype=float))
    T = np.atleast_2d(np.asarray(T, dtype=float))
    if len(X) == 0:
        raise ValueError("training data is empty")
    if validation is not None:
        val_x = np.atleast_2d(np.asarray(validation[0], dtype=float))
        val_t = np.atleast_2d(np.asarray(validation[1], dtype=float))

    flat = _bind_flat(model)
    velocity = np.zeros_like(flat)
    grad = np.empty_like(flat)
    lr, mu = config.learning_rate, config.momentum
    rng = np.random.default_rng(config.seed)
    curve = LossCurve(validation=[] if validation is not None else None)
    best_val = np.inf
    stale = 0

    def update(x, t, epoch):
        loss, grads = model.batch_loss_and_grads(x, t)
        if not math.isfinite(loss):
            raise TrainingDivergedError(epoch)
        np.concatenate([g.ravel() for g in grads], out=grad)
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
            val_loss = model.batch_loss(val_x, val_t)
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
