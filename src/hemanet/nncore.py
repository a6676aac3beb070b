"""Network machinery: one batched kernel (a sigmoid hidden layer, then a
sigmoid output layer, with MSE and backprop over a batch of rows; one
sample is a batch of one), momentum SGD, finite-difference gradient
checking, and the training loop.

The kernel serves every family (see models): its parameters are
(wx, b1, w2, b2), or (wx, wh, b1, w2, b2), where the hidden layer also
reads a constant context through wh.  The context is one row for the whole
batch, so the kernel adds its product with wh as one row, computed once
per call, as it adds b1.

A Workspace holds the kernel's buffers and binds the kernel to them once per
row count: the views it writes, its product choices and its output-delta
buffers are made on the first call with n rows, so that a later call, a
one-row training update above all, runs only its ufuncs.  A batch of one
has its own straight-line binding, with the same arithmetic in half the
numpy calls: vector forms of the elementwise steps, a five-call sigmoid,
and for a net of one output, the output neuron in Python floats.

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
ZERO, ONE, MINUS_ONE = np.array(0.0), np.array(1.0), np.array(-1.0)
ZERO.flags.writeable = ONE.flags.writeable = MINUS_ONE.flags.writeable = False


def sigmoid_inplace(z: np.ndarray, e=None, nonnegative=None) -> np.ndarray:
    """Logistic function of the float64 array ``z`` (at least 1-d), written over it.

    Branch-free: with e = exp(-|z|), the numerator max(e, z >= 0) is exactly 1
    where z >= 0 and e elsewhere, so every value, NaN too, is 1/(1+e) | e/(1+e).
    ``e`` and ``nonnegative`` are float64 and bool scratch arrays of z's
    shape, allocated when not given.
    """
    nonnegative = np.greater_equal(z, ZERO, out=nonnegative)
    e = np.abs(z, out=e)
    np.negative(e, out=z)
    np.exp(z, out=z)
    np.add(z, ONE, out=e)
    np.maximum(z, nonnegative, out=z)
    return np.divide(z, e, out=z)


def sigmoid_row(z: np.ndarray, pair, num, den) -> np.ndarray:
    """sigmoid_inplace of the 1-d float64 array ``z``, bit for bit, written over it.

    The numerator is exp(min(z, 0)): where z < 0 it is exp(z), which is
    exp(-|z|), and elsewhere exp(0) = 1.  ``pair`` is a (2, z.size) float64
    buffer and ``num``, ``den`` its two rows: one exp over the pair turns
    min(z, 0) and copysign(z, -1) = -|z| into the numerator and exp(-|z|),
    so the sigmoid takes five calls, none mixing in a bool operand, which
    costs more than a call on one row.
    """
    np.minimum(z, ZERO, out=num)
    np.copysign(z, MINUS_ONE, out=den)
    np.exp(pair, out=pair)
    np.add(den, ONE, out=den)
    return np.divide(num, den, out=z)


def as_rows(X) -> np.ndarray:
    """X as a float64 array of rows, as np.atleast_2d gives it: itself when
    it is one already, and one row when it is 0-d or 1-d."""
    X = np.asarray(X, dtype=float)
    return X if X.ndim > 1 else X.reshape(1, -1)


def sigmoid(x):
    """Logistic function of a copy of ``x``; a 0-d input gives a float."""
    x = np.array(x, dtype=float)
    return sigmoid_inplace(x) if x.shape else float(sigmoid_inplace(x[None])[0])


def product_of(inner: int):
    """The ufunc for a matrix product whose inner dimension is ``inner``.

    With an inner dimension of 1 the product is an outer product, computed as
    a broadcast multiply.  Its zeros keep their sign, where a BLAS product
    gives +0.0 or -0.0 by how it sums.  Kernels add 0.0 to every gradient,
    so a zero gradient reads +0.0 whichever way it was made.
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
    """The kernel bound to a workspace's first n rows: forward(params, X)
    gives the outputs, backprop(params, X, T) the mean squared error and the
    workspace's grads."""

    forward: Callable
    backprop: Callable


class Workspace:
    """Preallocated buffers for the batch kernel of a net whose parameters
    have ``shapes``, for up to ``rows`` rows, and the kernel bound to them
    once per row count.

    The net is a sigmoid hidden layer, then a sigmoid output layer.  Its
    parameters are (wx, b1, w2, b2), or (wx, wh, b1, w2, b2) when the hidden
    layer also reads the constant ``context`` through wh.

    ``acts`` holds float64 arrays: with wh first the context, one (1, hidden)
    row filled here, then a (rows, width) array for the hidden state and one
    for the output.  ``scratch``/``masks`` are a float64 and a bool array of
    the hidden and of the output width, views of one buffer each: the
    sigmoids' temporary and wh's product with the context, then the
    backward delta; a batch of one writes its output product into the
    second.  ``pair`` is a float64 buffer of two rows of the hidden or the
    output width, the one-row sigmoids' numerators and denominators.
    ``residual`` and ``square`` are two (rows, outputs) arrays of their own
    for the output delta.  ``grads`` are views, in parameter order, into
    the flat gradient vector ``grad``.  A batch of n rows uses the first n
    rows of each array.

    ``kernel(n)`` is the Kernel bound on the first call with n, with every
    view and shape-dependent choice made, and later calls reuse: _bind_row's
    for one row, _bind's for more.  It holds buffers, not parameters, so it
    stays valid when they change or are rebound.

    A kernel run under a workspace writes its activations, deltas and
    gradients into it, so the arrays it returns are overwritten by the next
    call under the same workspace.  Nothing is shared between workspaces.
    """

    def __init__(self, rows: int, shapes, context: float = 0.0):
        (out, hidden), recurrent = shapes[-2], len(shapes) == 5
        self.acts = [np.full((1, hidden), context)] if recurrent else []
        self.acts += [np.empty((rows, hidden)), np.empty((rows, out))]
        size = rows * max(hidden, out)
        self.scratch = self._views(np.empty(size), rows, (hidden, out))
        self.masks = self._views(np.empty(size, dtype=bool), rows, (hidden, out))
        self.pair = np.empty(2 * max(hidden, out))
        self.residual = np.empty((rows, out))
        self.square = np.empty((rows, out))
        self.grad = np.empty(sum(math.prod(s) for s in shapes))
        self.grads = param_views(self.grad, shapes)
        self._kernels: dict[int, Kernel] = {}

    @staticmethod
    def _views(buffer, rows, widths):
        return [buffer[:rows * width].reshape(rows, width) for width in widths]

    def kernel(self, n: int) -> Kernel:
        """The kernel over the first n rows, bound on the first call with n."""
        kernel = self._kernels.get(n)
        if kernel is None:
            kernel = self._kernels[n] = _bind_row(self) if n == 1 else _bind(self, n)
        return kernel


def _bind(ws: Workspace, n: int) -> Kernel:
    """The Kernel over the first n rows of ``ws``, n > 1.  Its ``params``
    are the net's (wx, b1, w2, b2) or (wx, wh, b1, w2, b2).

    Every choice is made here: the products' forms and the views the steps
    write.  The output delta is written over the output.

    The context is one row for every row of the batch: a net with wh adds
    wh @ context as one row, as it adds b1, and wh's gradient is the outer
    product of b1's gradient (the delta's row sums) and the context.
    """
    grad, grads = ws.grad, ws.grads
    g_wx, g_b1, g_w2, g_b2 = grads[0], grads[-3], grads[-2], grads[-1]
    recurrent = len(grads) == 5  # a net with wh
    context, g_wh = (ws.acts[0], grads[1]) if recurrent else (None, None)
    (out, hidden), width = g_w2.shape, g_wx.shape[1]
    h, Y = ws.acts[-2][:n], ws.acts[-1][:n]
    residual, square = ws.residual[:n], ws.square[:n]
    e, e_out = ws.scratch[0][:n], ws.scratch[1][:n]
    hidden_scratch, out_scratch = (e, ws.masks[0][:n]), (e_out, ws.masks[1][:n])
    scale = np.array(2.0 / Y.size)
    input_product, hidden_product = product_of(width), product_of(hidden)
    delta_product = product_of(out)
    Y_t, e_t, g_b1_col = Y.T, e.T, g_b1[:, None]
    term = e[:1]  # wh @ context, free until the hidden sigmoid

    def forward(params, X):
        if X.shape[1] != width:
            raise ValueError(f"expected {width} features per sample, got {X.shape[1]}")
        input_product(X, params[0].T, out=h)
        if recurrent:
            hidden_product(context, params[1].T, out=term)
            np.add(h, term, out=h)
        np.add(h, params[-3], out=h)
        sigmoid_inplace(h, *hidden_scratch)
        hidden_product(h, params[-2].T, out=Y)
        np.add(Y, params[-1], out=Y)
        sigmoid_inplace(Y, *out_scratch)
        return Y

    def backprop(params, X, T):
        loss = output_delta(forward(params, X), T, residual, square, scale)[0]
        np.matmul(Y_t, h, out=g_w2)
        np.add.reduce(Y, axis=0, out=g_b2)
        delta_product(Y, params[-2], out=e)
        times_sigmoid_slope(e, h)
        np.matmul(e_t, X, out=g_wx)
        np.add.reduce(e, axis=0, out=g_b1)
        if recurrent:
            np.multiply(g_b1_col, context, out=g_wh)
        np.add(grad, ZERO, out=grad)  # a zero reads +0.0 (see product_of)
        return loss, grads

    return Kernel(forward, backprop)


def _bind_row(ws: Workspace) -> Kernel:
    """The Kernel over the first row of ``ws``: _bind's arithmetic, bit for
    bit, in fewer numpy calls, since a one-row call costs numpy's dispatch
    more than its arithmetic.

    Elementwise steps run on 1-d row views, on which numpy costs two to
    three times less per call than on a (1, H) row to broadcast or to
    reduce, and the sigmoids are sigmoid_row over ``ws.pair``.  The output
    delta is written into b2's gradient, which is then the delta, so the
    backward steps read it from there and no copy is made.

    A net of one output computes its output neuron in Python floats, which
    make the same IEEE operations: z + b2, the sigmoid, the loss r * r and
    the delta ((r * 2) * y) * (1 - y), each in _bind's order.  Its two
    exponentials come from one np.exp over two elements of ``ws.pair``:
    math.exp is not np.exp's function, and would change the bits.  The
    delta goes to the backward steps as a 0-d view of b2's gradient, which
    numpy reads faster than a Python float.
    """
    grad, grads = ws.grad, ws.grads
    g_wx, g_b1, g_w2, g_b2 = grads[0], grads[-3], grads[-2], grads[-1]
    recurrent = len(grads) == 5  # a net with wh
    context, g_wh = (ws.acts[0], grads[1]) if recurrent else (None, None)
    (out, hidden), width = g_w2.shape, g_wx.shape[1]
    h, Y = ws.acts[-2][:1], ws.acts[-1][:1]
    h_z, Y_z = h[0], Y[0]
    residual, square = ws.residual[:1], ws.square[:1]
    term, pre = ws.scratch[0][:1], ws.scratch[1][:1]  # wh @ context; the output product
    term_z, pre_z = term[0], pre[0]
    pairs = [ws.pair[:2 * size].reshape(2, size) for size in (hidden, out)]
    hidden_pair, out_pair = [(pair, pair[0], pair[1]) for pair in pairs]
    exps = ws.pair[:2]  # one output's min(z, 0) and -|z|
    scale = np.array(2.0 / out)
    input_product, hidden_product = product_of(width), product_of(hidden)
    delta_product = product_of(out)
    g_b1_row, g_b1_col, g_b2_row = g_b1[None], g_b1[:, None], g_b2[None]
    # The output delta as the backward products read it: a column and a
    # row, or for one output a 0-d view.
    delta_col, delta_row = (g_b2.reshape(()),) * 2 if out == 1 else (g_b2[:, None], g_b2_row)

    def hidden_layer(params, X):  # the hidden state and the output product
        if X.shape[1] != width:
            raise ValueError(f"expected {width} features per sample, got {X.shape[1]}")
        input_product(X, params[0].T, out=h)
        if recurrent:
            hidden_product(context, params[1].T, out=term)
            np.add(h_z, term_z, out=h_z)
        np.add(h_z, params[-3], out=h_z)
        sigmoid_row(h_z, *hidden_pair)
        hidden_product(h, params[-2].T, out=pre)

    def forward(params, X):
        hidden_layer(params, X)
        np.add(pre_z, params[-1], out=Y_z)
        sigmoid_row(Y_z, *out_pair)
        return Y

    def backward(params, X):  # from the output delta in g_b2
        np.multiply(delta_col, h, out=g_w2)
        delta_product(delta_row, params[-2], out=g_b1_row)
        times_sigmoid_slope(g_b1, h_z)
        np.multiply(g_b1_col, X, out=g_wx)
        if recurrent:
            np.multiply(g_b1_col, context, out=g_wh)
        np.add(grad, ZERO, out=grad)
        return grads

    def backprop(params, X, T):
        loss = output_delta(forward(params, X), T, residual, square, scale, g_b2_row)[0]
        return loss, backward(params, X)

    def backprop_one_output(params, X, T):
        hidden_layer(params, X)
        check_targets(Y, T)
        z = pre.item() + params[-1].item()
        exps[0], exps[1] = min(z, 0.0), -abs(z)
        np.exp(exps, out=exps)
        numerator, e = exps.tolist()
        y = numerator / (e + 1.0)
        r = y - T.item()
        g_b2[0] = r * 2.0 * y * (1.0 - y)
        return r * r, backward(params, X)

    return Kernel(forward, backprop_one_output if out == 1 else backprop)


def times_sigmoid_slope(delta, s) -> np.ndarray:
    """delta * s * (1 - s), left to right, in place; s (spent) becomes 1 - s."""
    delta *= s
    np.subtract(ONE, s, out=s)
    delta *= s
    return delta


def check_targets(Y, T) -> None:
    """ValueError unless targets T have the shape of outputs Y."""
    if Y.shape != T.shape:
        raise ValueError(f"targets of shape {T.shape} do not match outputs {Y.shape}")


def output_residual(Y, T, out=None) -> np.ndarray:
    """Y - T for outputs Y and targets T, into ``out`` when it is given;
    ValueError unless their shapes match."""
    check_targets(Y, T)
    return np.subtract(Y, T, out=out)


def output_delta(Y, T, residual=None, square=None, scale=None, out=None):
    """(mean squared error, its gradient at the output pre-activation) of
    outputs Y against targets T of the same shape.

    The gradient 2/size * (Y - T) * Y * (1 - Y), left to right, is written
    into ``out``, or over Y (spent) when it is not given.  ``residual`` and ``square`` are float64 scratch of Y's
    shape (new when not given), so that no step writes into its own input.
    ``scale`` is 2/size as a 0-d float64 array, made when not given.
    """
    residual = output_residual(Y, T, residual)
    square = np.square(residual, out=square)
    loss = float(np.add.reduce(square, axis=None) / Y.size)
    np.multiply(residual, np.array(2.0 / Y.size) if scale is None else scale, out=square)
    np.multiply(square, Y, out=residual)
    np.subtract(ONE, Y, out=square)
    return loss, np.multiply(residual, square, out=Y if out is None else out)


def sgd_momentum_step(params, grad, velocity, learning_rate: float, momentum: float,
                      step) -> None:
    """Classical momentum, in place on flat vectors of one shape:
    v <- mu*v - eta*g ; w <- w + v.  ``step``, a fifth, receives eta*g."""
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

    ``train`` and ``validation`` are (X, T) pairs of feature rows and their
    targets.  The recorded training loss is the loss the optimizer
    saw before each update; validation loss is evaluated after the epoch's
    updates.  All parameters live in one flat vector, which every update
    changes in place; a non-finite loss or parameter raises
    TrainingDivergedError.  One workspace (``model.workspace``), sized for
    the larger of the update batch and the validation set, holds every
    update's and validation pass's arrays and the flat gradient vector
    (``workspace.grad``) the optimizer reads; the optimizer's step vector
    and the per-sample mode's one-row views, like the workspace, are made
    once per run.
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
    step = np.empty_like(flat)
    workspace = model.workspace(rows)
    grad = workspace.grad
    loss_and_grads = model.batch_loss_and_grads
    lr, mu = np.array(config.learning_rate), np.array(config.momentum)  # 0-d, as ONE is
    if config.update_mode == "per-sample":
        samples = [(X[i : i + 1], T[i : i + 1]) for i in range(len(X))]
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
            losses = [update(*samples[i], epoch) for i in rng.permutation(len(X)).tolist()]
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
