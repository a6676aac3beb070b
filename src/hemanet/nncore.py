"""Dense-network machinery: one batched kernel (sigmoid layers, MSE and
backprop over a batch of rows; one sample is a batch of one), momentum SGD,
finite-difference gradient checking, and the training loop.

A Workspace holds a kernel's buffers and binds the kernel to them once per
row count: the views it writes, its product choices and its output-delta
buffers are made on the first call with n rows, so that a later call, a
one-row training update above all, runs only its ufuncs.

All math is float64.  Training is single-threaded and fully determined by
(seed, data, config); the per-sample update mode shuffles with its own
seeded generator each epoch.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

# Constant operands of the kernels, as read-only 0-d float64 arrays: numpy
# converts a Python float operand on every call, which costs about a third
# of a one-row operation.  The values, and so every result, are the same.
ZERO, ONE = np.array(0.0), np.array(1.0)
ZERO.flags.writeable = ONE.flags.writeable = False


def sigmoid_inplace(z: np.ndarray, e=None, nonnegative=None, f=None) -> np.ndarray:
    """Logistic function of the float64 array ``z`` (at least 1-d), written over it.

    Branch-free: with e = exp(-|z|), the numerator max(e, z >= 0) is exactly 1
    where z >= 0 and e elsewhere, so every value, NaN too, is 1/(1+e) | e/(1+e).
    ``e`` and ``nonnegative`` are float64 and bool scratch arrays of z's
    shape, allocated when not given.  Three steps run into their own input
    unless ``f``, a third float64 array of z's shape, is given: numpy does
    that slowly on a one-element array and fastest on a large one.
    """
    f = z if f is None else f
    nonnegative = np.greater_equal(z, ZERO, out=nonnegative)
    e = np.abs(z, out=e)
    np.negative(e, out=f)
    np.exp(f, out=z)
    np.add(z, ONE, out=e)
    np.maximum(z, nonnegative, out=f)
    return np.divide(f, e, out=z)


def as_rows(X) -> np.ndarray:
    """X as a float64 array of rows, as np.atleast_2d gives it: itself when
    it is one already, and one row when it is 0-d or 1-d."""
    X = np.asarray(X, dtype=float)
    return X if X.ndim > 1 else X.reshape(1, -1)


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


def product_of(inner: int):
    """The ufunc for a matrix product whose inner dimension is ``inner``.

    With an inner dimension of 1 the product is an outer product, computed as
    a broadcast multiply.  Its zeros keep their sign, where a BLAS product,
    which accumulates from zero, gives +0.0: kernels add 0.0 to the
    gradients they write this way.
    """
    return np.multiply if inner == 1 else np.matmul


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


class Kernel(NamedTuple):
    """A model's kernel bound to a workspace's first n rows: forward(params,
    X) gives the outputs, backprop(params, X, T) the mean squared error and
    the workspace's grads; ``params`` are the layers (dense) or the model."""

    forward: Callable
    backprop: Callable


class Workspace:
    """Preallocated buffers for a model's batch kernel, for up to ``rows`` rows,
    and the kernel bound to them once per row count.

    ``acts`` holds one (rows, width) float64 array per entry of ``widths``,
    and ``scratch``/``masks`` a float64 and a bool array of the same shape
    for each; every scratch array is a view of one buffer, and so is every
    mask.  A batch of n rows uses the first n rows of each array.  A scratch
    array holds the sigmoid's temporary, then the first backward delta;
    ``spare`` (stacks of more than two layers only) holds every second delta
    after it.  ``residual`` and ``square`` are two (rows, widths[-1])
    arrays of their own for the output delta, which is written over the
    output.  ``grads`` are views, in parameter order, into the flat
    gradient vector ``grad`` (a new one when it is not given).

    ``kernel(n)`` is the Kernel that ``bind(workspace, n)`` builds on the
    first call with n, with every view and shape-dependent choice made, and
    later calls reuse.  It holds buffers, not parameters, so it stays valid
    when they change or are rebound.

    A kernel run under a workspace writes its activations, deltas and
    gradients into it, so the arrays it returns are overwritten by the next
    call under the same workspace.  Nothing is shared between workspaces.
    """

    def __init__(self, rows: int, widths, shapes, bind, grad=None, spare: bool = False):
        size = rows * max(widths)
        self.acts = [np.empty((rows, width)) for width in widths]
        self.scratch = self._views(np.empty(size), rows, widths)
        self.masks = self._views(np.empty(size, dtype=bool), rows, widths)
        self.spare = self._views(np.empty(size), rows, widths) if spare else None
        self.residual = np.empty((rows, widths[-1]))
        self.square = np.empty((rows, widths[-1]))
        self.grad = np.empty(sum(math.prod(s) for s in shapes)) if grad is None else grad
        self.grads = param_views(self.grad, shapes)
        self._bind = bind
        self._kernels: dict[int, Kernel] = {}

    @staticmethod
    def _views(buffer, rows, widths):
        return [buffer[:rows * width].reshape(rows, width) for width in widths]

    def kernel(self, n: int) -> Kernel:
        """The kernel over the first n rows, bound on the first call with n."""
        kernel = self._kernels.get(n)
        if kernel is None:
            kernel = self._kernels[n] = self._bind(self, n)
        return kernel


def sigmoid_layer(in_dim: int, out, e, mask, free=None) -> tuple:
    """(product, pre, out, e, mask, f) of a sigmoid layer with ``in_dim``
    inputs: a kernel runs product(a, weights.T, out=pre), adds the biases
    into ``out`` and takes the sigmoid there with scratch e, mask and f.
    A one-element output takes pre = e and f = ``free`` (an array of its
    shape the forward pass leaves alone); any other, pre = f = out."""
    if out.size == 1 and free is not None:
        return product_of(in_dim), e, out, e, mask, free
    return product_of(in_dim), out, out, e, mask, out


def _bind_layers(ws: Workspace, n: int) -> Kernel:
    """The dense stack's Kernel over the first n rows of ``ws``, whose
    ``params`` are the stack's layers."""
    acts = [a[:n] for a in ws.acts]
    grad, grads, residual, square = ws.grad, ws.grads, ws.residual[:n], ws.square[:n]
    weight_grads = grads[::2]
    # The output delta's arrays are free during the forward pass.
    frees = [None] * (len(acts) - 1) + [square]
    steps = [sigmoid_layer(g_w.shape[1], out, e[:n], mask[:n], free)
             for g_w, out, e, mask, free in zip(weight_grads, acts, ws.scratch, ws.masks, frees)]
    weight_product = product_of(n)
    # Deltas from the output layer down: the output delta is written over
    # the output, and layer i - 1's into the scratch of layer i - 1 or,
    # every second layer, its spare, so a product never writes into its input.
    deltas = [acts[-1]]
    for i in reversed(range(1, len(acts))):
        deltas.append((ws.scratch, ws.spare)[(len(acts) - 1 - i) % 2][i - 1][:n])
    hidden = [(deltas[k], deltas[k].T, weight_grads[i], grads[2 * i + 1], acts[i - 1],
               product_of(weight_grads[i].shape[0]), deltas[k + 1])
              for k, i in enumerate(reversed(range(1, len(acts))))]
    delta, delta_t = deltas[-1], deltas[-1].T

    def forward(layers, X):
        a = X
        for layer, (product, pre, out, e, mask, f) in zip(layers, steps):
            product(a, layer.weights.T, out=pre)
            a = sigmoid_inplace(np.add(pre, layer.biases, out=out), e, mask, f)
        return a

    def backprop(layers, X, T):
        loss = output_delta(forward(layers, X), T, residual, square)[0]
        for layer, (d, d_t, g_w, g_b, a, product, below) in zip(layers[:0:-1], hidden):
            weight_product(d_t, a, out=g_w)
            np.add.reduce(d, axis=0, out=g_b)
            times_sigmoid_slope(product(d, layer.weights, out=below), a)
        weight_product(delta_t, X, out=grads[0])
        np.add.reduce(delta, axis=0, out=grads[1])
        np.add(grad, ZERO, out=grad)
        return loss, grads

    return Kernel(forward, backprop)


def layer_workspace(layers: list[LayerParams], rows: int, grad=None) -> Workspace:
    """A Workspace for batch_forward and batch_backprop over ``layers``."""
    return Workspace(rows, [layer.out_dim for layer in layers],
                     [a.shape for layer in layers for a in (layer.weights, layer.biases)],
                     _bind_layers, grad, spare=len(layers) > 2)


def times_sigmoid_slope(delta, s) -> np.ndarray:
    """delta * s * (1 - s), left to right, in place; s (spent) becomes 1 - s."""
    delta *= s
    np.subtract(ONE, s, out=s)
    delta *= s
    return delta


def output_residual(Y, T, out=None) -> np.ndarray:
    """Y - T for outputs Y and targets T, into ``out`` when it is given;
    ValueError unless their shapes match."""
    if Y.shape != T.shape:
        raise ValueError(f"targets of shape {T.shape} do not match outputs {Y.shape}")
    return np.subtract(Y, T, out=out)


def output_delta(Y, T, residual=None, square=None):
    """(mean squared error, its gradient at the output pre-activation) of
    outputs Y against targets T of the same shape.

    The gradient 2/size * (Y - T) * Y * (1 - Y), left to right, is written
    over Y (spent).  ``residual`` and ``square`` are float64 scratch of Y's
    shape (new when not given), so that no step writes into its own input.
    """
    residual = output_residual(Y, T, residual)
    square = np.square(residual, out=square)
    loss = float(square.sum() / Y.size)
    np.multiply(residual, 2.0 / Y.size, out=square)
    np.multiply(square, Y, out=residual)
    np.subtract(ONE, Y, out=square)
    return loss, np.multiply(residual, square, out=Y)


def batch_forward(layers: list[LayerParams], X, workspace: Workspace | None = None) -> np.ndarray:
    """Vectorized forward over a batch of row vectors, the 2-d float64 array X."""
    n = len(X)
    return (workspace or layer_workspace(layers, n)).kernel(n).forward(layers, X)


def batch_backprop(layers: list[LayerParams], X, T, workspace: Workspace | None = None):
    """Vectorized mean loss and mean gradients over a batch: 2-d float64
    inputs X and targets T of the output's shape.

    Matches the mean over its one-row batches up to summation order.  The
    gradients are the workspace's ``grads``.
    """
    n = len(X)
    return (workspace or layer_workspace(layers, n)).kernel(n).backprop(layers, X, T)


def sgd_momentum_step(params, grad, velocity, learning_rate: float, momentum: float,
                      step=None) -> None:
    """Classical momentum, in place on flat vectors: v <- mu*v - eta*g ; w <- w + v.

    ``step`` receives eta*g; without it, the shapes are checked and a new
    array is made.  A caller that gives it has made all four of one shape.
    """
    if step is None:
        if grad.shape != params.shape or velocity.shape != params.shape:
            raise ValueError(
                f"gradient {grad.shape} and velocity {velocity.shape} must match "
                f"parameters {params.shape}"
            )
        step = np.empty_like(params)
    velocity *= momentum
    velocity -= np.multiply(learning_rate, grad, out=step)
    params += velocity


def gradient_check(model, sample, target, epsilon: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``model`` must expose param_arrays() (live arrays), batch_loss(X, T) and
    batch_loss_and_grads(X, T), the kernels training runs; the sample and its
    target are checked as a batch of one row.  A model that also has
    workspace(rows) runs every loss under one workspace of one row.  Relative
    error per parameter is |a - n| / max(|a|, |n|, 1e-8).
    """
    if not 1e-7 <= epsilon <= 1e-3:
        raise ValueError("epsilon must lie in [1e-7, 1e-3]")
    sample = np.asarray(sample, dtype=float)[None, :]
    target = np.asarray(target, dtype=float)[None, :]
    # Forward passes write no gradient, so the analytic ones stay in place.
    workspace = (model.workspace(1),) if hasattr(model, "workspace") else ()
    _, analytic = model.batch_loss_and_grads(sample, target, *workspace)
    worst = 0.0
    for arr, grad in zip(model.param_arrays(), analytic):
        for idx in np.ndindex(arr.shape):
            original = arr[idx]
            arr[idx] = original + epsilon
            plus = model.batch_loss(sample, target, *workspace)
            arr[idx] = original - epsilon
            minus = model.batch_loss(sample, target, *workspace)
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
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(
                f"learning_rate must be finite and positive, got {self.learning_rate!r}")
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
    into the flat gradient vector the optimizer reads; the optimizer's
    step vector, like the workspace, is allocated once per run.
    """
    config = config or TrainConfig()
    X, T = train
    X = as_rows(X)
    T = as_rows(T)
    if len(X) == 0:
        raise ValueError("training data is empty")
    rows = len(X) if config.update_mode == "full-batch" else 1
    if validation is not None:
        val_x = as_rows(validation[0])
        val_t = as_rows(validation[1])
        rows = max(rows, len(val_x))

    flat = _bind_flat(model)
    velocity = np.zeros_like(flat)
    grad = np.empty_like(flat)
    step = np.empty_like(flat)
    workspace = model.workspace(rows, grad)
    loss_and_grads = model.batch_loss_and_grads
    lr, mu = np.array(config.learning_rate), np.array(config.momentum)  # 0-d, as ONE is
    rng = np.random.default_rng(config.seed)
    curve = LossCurve(validation=[] if validation is not None else None)
    best_val = np.inf
    stale = 0
    stepped = False

    def update(x, t, epoch):
        nonlocal stepped
        loss, _ = loss_and_grads(x, t, workspace)
        if not math.isfinite(loss):  # an earlier step may have left non-finite parameters
            broken = stepped and not np.isfinite(flat).all()
            raise TrainingDivergedError(epoch, "parameters" if broken else "training loss")
        sgd_momentum_step(flat, grad, velocity, lr, mu, step)
        stepped = True
        return loss

    for epoch in range(1, config.epochs + 1):
        if config.update_mode == "full-batch":
            epoch_loss = update(X, T, epoch)
        else:
            losses = [update(X[i : i + 1], T[i : i + 1], epoch)
                      for i in rng.permutation(len(X)).tolist()]
            epoch_loss = float(np.mean(losses))
        # Once per epoch: a non-finite parameter never becomes finite again.
        if not np.isfinite(flat).all():
            raise TrainingDivergedError(epoch, "parameters")
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
