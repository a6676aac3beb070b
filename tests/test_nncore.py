"""Sigmoid, dense forward/backward, the optimizer, the gradient checker,
the training loop and its workspace."""
import tracemalloc

import numpy as np
import pytest

from hemanet.nncore import (
    TrainConfig,
    TrainingDivergedError,
    gradient_check,
    output_delta,
    sgd_momentum_step,
    sigmoid,
    times_sigmoid_slope,
    train_loop,
)
from hemanet.models import Network, build_model


class TestSigmoid:
    def test_at_zero(self):
        assert sigmoid(0.0) == 0.5

    def test_symmetry(self):
        x = np.random.default_rng(0).uniform(-30, 30, size=500)
        np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-12)

    def test_prime_at_zero(self):
        assert times_sigmoid_slope(np.ones(1), sigmoid(np.zeros(1)))[0] == 0.25

    def test_prime_matches_central_difference(self):
        x = np.linspace(-8, 8, 200)
        h = 1e-6
        numeric = (sigmoid(x + h) - sigmoid(x - h)) / (2 * h)
        np.testing.assert_allclose(times_sigmoid_slope(np.ones_like(x), sigmoid(x)), numeric,
                                   atol=1e-9)

    def test_stable_to_700(self):
        # No overflow anywhere in [-700, 700]; everything stays finite.
        with np.errstate(all="raise"):
            for x in (-700.0, 700.0, np.array([-700.0, -100.0, 100.0, 700.0])):
                s = sigmoid(x)
                assert np.all(np.isfinite(s))
                assert np.all((np.asarray(s) >= 0) & (np.asarray(s) <= 1))
                s = np.atleast_1d(s)
                assert np.all(np.isfinite(times_sigmoid_slope(np.ones_like(s), s.copy())))

    def test_strictly_inside_unit_interval_where_representable(self):
        # float64 saturates to exactly 0.0/1.0 past |x| ~ 36; inside that
        # range the output is strictly between 0 and 1.
        x = np.linspace(-36, 36, 2001)
        s = sigmoid(x)
        assert np.all((s > 0) & (s < 1))

    def test_monotonic(self):
        x = np.linspace(-20, 20, 1000)
        assert np.all(np.diff(sigmoid(x)) > 0)


def _net(*layers) -> Network:
    """A two-layer FFNN of (weights, biases) pairs."""
    return Network("ffnn", [a for layer in layers for a in layer], len(layers[0][0][0]))


class TestBatchForward:
    def test_zero_params_give_half(self):
        net = _net((np.zeros((3, 4)), np.zeros(3)), (np.zeros((2, 3)), np.zeros(2)))
        act = net.predict_batch(np.array([[1.0, -2.0, 0.5, 3.0]]))
        np.testing.assert_array_equal(act, 0.5)

    def test_unit_1x1_layer(self):
        # sigmoid(0) = 0.5 in the hidden unit, and 0.5 * 1 - 0.5 = 0 at the output.
        net = _net(([[1.0]], [0.0]), ([[1.0]], [-0.5]))
        assert net.predict_batch(np.array([[0.0]]))[0, 0] == 0.5

    def test_activation_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(1)
        net = _net((rng.normal(size=(5, 3)), rng.normal(size=5)),
                   (rng.normal(size=(4, 5)), rng.normal(size=4)))
        act = net.predict_batch(rng.uniform(-2, 2, size=(20, 3)))
        assert np.all((act > 0) & (act < 1))

    def test_dimension_mismatch(self):
        net = _net((np.zeros((2, 3)), np.zeros(2)), (np.zeros((1, 2)), np.zeros(1)))
        with pytest.raises(ValueError):
            net.predict_batch(np.zeros((1, 4)))

    def test_one_input_net_refuses_a_row_as_wide_as_its_hidden_layer(self):
        # Its input product is a broadcast multiply, which would take the row.
        net = _net((np.zeros((2, 1)), np.zeros(2)), (np.zeros((1, 2)), np.zeros(1)))
        with pytest.raises(ValueError, match="expected 1 features per sample, got 2"):
            net.predict_batch(np.zeros((1, 2)))
        with pytest.raises(ValueError, match="expected 1 features per sample, got 2"):
            net.batch_loss_and_grads(np.zeros((1, 2)), np.zeros((1, 1)))

    def test_layer_shape_validation(self):
        with pytest.raises(ValueError, match="must have shapes"):
            _net((np.zeros((2, 3)), np.zeros(3)), (np.zeros((1, 2)), np.zeros(1)))
        with pytest.raises(ValueError, match="must be finite"):
            _net((np.array([[np.nan, 0.0]]), np.zeros(1)), (np.zeros((1, 1)), np.zeros(1)))


class TestOutputDelta:
    def test_zero_at_match(self):
        Y = np.array([[0.3, 0.7]])
        loss, delta = output_delta(Y, Y.copy())
        assert loss == 0.0
        np.testing.assert_array_equal(delta, 0.0)

    def test_known_value(self):
        loss, delta = output_delta(np.array([[1.0, 0.5]]), np.array([[0.0, 0.0]]))
        assert loss == 0.625
        # d loss / d pre-activation = 2/size * (y - t) * y * (1 - y)
        np.testing.assert_allclose(delta, [[0.0, 0.125]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            output_delta(np.array([[1.0]]), np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError):
            _net((np.zeros((1, 2)), np.zeros(1)), (np.zeros((1, 1)), np.zeros(1))
                 ).batch_loss_and_grads(np.zeros((3, 2)), np.zeros((1, 3)))


def _one_row_loss(net, x, target):
    Y = net.predict_batch(x[None])
    return float(np.mean((Y - target) ** 2))


def _finite_difference_grads(net, x, target, eps=1e-6):
    """Independent oracle: central differences on every parameter."""
    grads = []
    for arr in net.param_arrays():
        g = np.zeros_like(arr)
        for idx in np.ndindex(arr.shape):
            original = arr[idx]
            arr[idx] = original + eps
            plus = _one_row_loss(net, x, target)
            arr[idx] = original - eps
            minus = _one_row_loss(net, x, target)
            arr[idx] = original
            g[idx] = (plus - minus) / (2 * eps)
        grads.append(g)
    return grads


def _one_row_backprop(net, x, target):
    """(loss, gradients) of one sample: batch_loss_and_grads on a batch of one."""
    return net.batch_loss_and_grads(x[None], np.asarray(target)[None])


class TestBackprop:
    def _random_net(self, seed, dims=(4, 6, 2)):
        rng = np.random.default_rng(seed)
        layers = [(rng.normal(scale=0.8, size=(dims[i + 1], dims[i])),
                   rng.normal(scale=0.2, size=dims[i + 1])) for i in range(2)]
        return _net(*layers), rng

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_finite_differences(self, seed):
        net, rng = self._random_net(seed)
        x = rng.uniform(-1, 1, size=4)
        target = rng.uniform(0.1, 0.9, size=2)
        _, analytic = _one_row_backprop(net, x, target)
        numeric = _finite_difference_grads(net, x, target)
        for a, n in zip(analytic, numeric):
            err = np.abs(a - n) / np.maximum.reduce([np.abs(a), np.abs(n), np.full_like(a, 1e-8)])
            assert err.max() < 1e-4

    def test_zero_gradients_at_zero_loss(self):
        net, rng = self._random_net(3)
        x = rng.uniform(-1, 1, size=4)
        pred = net.predict_batch(x[None])[0].copy()
        loss, grads = _one_row_backprop(net, x, pred)
        assert loss == 0.0
        for g in grads:
            np.testing.assert_array_equal(g, 0.0)

    def test_doubling_residual_doubles_every_gradient(self):
        # Backprop is linear in the output residual: moving the target to
        # 2t - y doubles (y - t) and therefore every gradient.
        net, rng = self._random_net(7)
        x = rng.uniform(-1, 1, size=4)
        target = rng.uniform(0.1, 0.9, size=2)
        pred = net.predict_batch(x[None])[0]
        _, grads = _one_row_backprop(net, x, target)
        _, doubled = _one_row_backprop(net, x, 2 * target - pred)
        for g, d in zip(grads, doubled):
            np.testing.assert_allclose(d, 2 * g, rtol=1e-12, atol=1e-15)

    def test_batch_matches_mean_of_per_sample(self):
        net, rng = self._random_net(9)
        X = rng.uniform(-1, 1, size=(8, 4))
        T = rng.uniform(0.1, 0.9, size=(8, 2))
        batch_loss, batch_grads = net.batch_loss_and_grads(X, T)
        per = [_one_row_backprop(net, x, t) for x, t in zip(X, T)]
        np.testing.assert_allclose(batch_loss, np.mean([p[0] for p in per]), rtol=1e-12)
        for i, bg in enumerate(batch_grads):
            mean_g = np.mean([p[1][i] for p in per], axis=0)
            np.testing.assert_allclose(bg, mean_g, rtol=1e-9, atol=1e-14)

    def test_batch_forward_matches_per_sample(self):
        net, rng = self._random_net(13)
        X = rng.uniform(-1, 1, size=(6, 4))
        stacked = np.array([net.predict_batch(x[None])[0] for x in X])
        np.testing.assert_allclose(net.predict_batch(X), stacked, rtol=1e-12)


class TestSgdMomentum:
    def test_zero_momentum_is_plain_gradient_descent(self):
        params, vel = np.array([1.0]), np.array([0.0])
        sgd_momentum_step(params, np.array([0.5]), vel, 0.1, 0.0, np.empty(1))
        assert params[0] == pytest.approx(0.95)

    def test_zero_gradient_zero_velocity_is_identity(self):
        params = np.array([1.0, -2.0])
        vel = np.zeros(2)
        sgd_momentum_step(params, np.zeros(2), vel, 0.1, 0.9, np.empty(2))
        np.testing.assert_array_equal(params, [1.0, -2.0])
        np.testing.assert_array_equal(vel, 0.0)

    def test_two_step_velocity_recurrence(self):
        # mu=0.9, eta=0.1, g=1: v1 = -0.1, v2 = 0.9*(-0.1) - 0.1 = -0.19
        params, vel = np.array([0.0]), np.array([0.0])
        g, step = np.array([1.0]), np.empty(1)
        sgd_momentum_step(params, g, vel, 0.1, 0.9, step)
        assert vel[0] == pytest.approx(-0.1)
        sgd_momentum_step(params, g, vel, 0.1, 0.9, step)
        assert vel[0] == pytest.approx(-0.19)


class _OneLayerModel:
    """Single sigmoid layer with hand-derived closed-form gradients."""

    def __init__(self, w, b):
        self.w = np.array(w, dtype=float)
        self.b = np.array(b, dtype=float)

    def param_arrays(self):
        return [self.w, self.b]

    def _forward(self, X):
        return sigmoid(X @ self.w.T + self.b)

    def batch_loss(self, X, T):
        return float(np.mean((self._forward(X) - T) ** 2))

    def batch_loss_and_grads(self, X, T):
        y = self._forward(X)
        delta = 2.0 / y.size * (y - T) * y * (1 - y)
        return self.batch_loss(X, T), [delta.T @ X, delta.sum(axis=0)]


class _CorruptedModel(_OneLayerModel):
    def batch_loss_and_grads(self, X, T):
        loss, (gw, gb) = super().batch_loss_and_grads(X, T)
        gw = gw.copy()
        gw[0, 0] *= 2.0  # deliberately wrong
        return loss, [gw, gb]


class TestGradientCheck:
    def test_closed_form_single_layer(self):
        rng = np.random.default_rng(5)
        model = _OneLayerModel(rng.normal(size=(3, 4)), rng.normal(size=3))
        x = rng.uniform(0.2, 1.0, size=4)
        target = rng.uniform(0.1, 0.9, size=3)
        assert gradient_check(model, x, target) < 1e-6

    def test_full_network(self):
        net = build_model("ffnn", 5, 7, 2, seed=3)
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, size=5)
        target = rng.uniform(0.1, 0.9, size=2)
        assert gradient_check(net, x, target) < 1e-4

    def test_detects_corrupted_gradient(self):
        rng = np.random.default_rng(6)
        model = _CorruptedModel(rng.normal(size=(3, 4)), rng.normal(size=3))
        x = rng.uniform(0.2, 1.0, size=4)
        target = rng.uniform(0.1, 0.9, size=3)
        assert gradient_check(model, x, target) > 0.3

    def test_epsilon_bounds(self):
        model = _OneLayerModel(np.zeros((1, 1)), np.zeros(1))
        with pytest.raises(ValueError):
            gradient_check(model, np.array([1.0]), np.array([0.5]), epsilon=1e-8)
        with pytest.raises(ValueError):
            gradient_check(model, np.array([1.0]), np.array([0.5]), epsilon=1e-2)


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert (cfg.learning_rate, cfg.momentum, cfg.epochs) == (0.05, 0.9, 1000)
        assert cfg.hidden_size == 50 and cfg.update_mode == "full-batch"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": 0},
            {"learning_rate": 0.0},
            {"learning_rate": float("inf")},
            {"learning_rate": float("nan")},
            {"momentum": 1.0},
            {"momentum": -0.1},
            {"hidden_size": 0},
            {"update_mode": "minibatch"},
            {"patience": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


def _toy_problem(seed=0, n=40):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 3))
    T = (X.sum(axis=1, keepdims=True) > 0).astype(float)
    return X, T


class TestTrainLoop:
    def test_loss_decreases(self):
        X, T = _toy_problem()
        net = build_model("ffnn", 3, 8, 1, seed=1)
        _, curve = train_loop(net, (X, T), config=TrainConfig(epochs=300, hidden_size=8, seed=1))
        assert curve.train[-1] < curve.train[0]
        assert len(curve) == 300

    def test_bitwise_deterministic(self):
        X, T = _toy_problem()
        curves = []
        for _ in range(2):
            net = build_model("ffnn", 3, 6, 1, seed=2)
            _, curve = train_loop(
                net, (X, T),
                config=TrainConfig(epochs=50, update_mode="per-sample", seed=7),
            )
            curves.append(curve)
        assert curves[0].train == curves[1].train

    def test_trained_params_deterministic(self):
        X, T = _toy_problem()
        nets = []
        for _ in range(2):
            net = build_model("ffnn", 3, 6, 1, seed=2)
            train_loop(net, (X, T), config=TrainConfig(epochs=30, seed=7))
            nets.append(net)
        for a, b in zip(nets[0].param_arrays(), nets[1].param_arrays()):
            np.testing.assert_array_equal(a, b)

    def test_zero_momentum_identical_to_hand_rolled_gd(self):
        X, T = _toy_problem()
        net = build_model("ffnn", 3, 5, 1, seed=3)
        train_loop(net, (X, T), config=TrainConfig(epochs=25, momentum=0.0, seed=0))

        reference = build_model("ffnn", 3, 5, 1, seed=3)
        lr = TrainConfig().learning_rate
        for _ in range(25):
            _, grads = reference.batch_loss_and_grads(X, T)
            reference.set_param_arrays(
                [p - lr * g for p, g in zip(reference.param_arrays(), grads)]
            )
        for a, b in zip(net.param_arrays(), reference.param_arrays()):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("update_mode", ["full-batch", "per-sample"])
    @pytest.mark.parametrize("family", ["ffnn", "elman", "narx"])
    def test_momentum_identical_to_list_based_reference(self, family, update_mode):
        # The flat in-place step does the same elementwise operations as the
        # list-based mu*v - lr*g, p + v, so parameters and losses match bit for bit.
        X, T = _toy_problem()
        config = TrainConfig(epochs=8 if update_mode == "per-sample" else 40,
                             momentum=0.9, update_mode=update_mode, seed=3)
        net = build_model(family, 3, 5, 1, seed=4)
        _, curve = train_loop(net, (X, T), config=config)

        reference = build_model(family, 3, 5, 1, seed=4)
        lr, mu = config.learning_rate, config.momentum
        velocity = [np.zeros_like(p) for p in reference.param_arrays()]
        rng = np.random.default_rng(config.seed)
        losses = []
        for _ in range(config.epochs):
            rows = ([slice(None)] if update_mode == "full-batch"
                    else [slice(i, i + 1) for i in rng.permutation(len(X))])
            epoch = []
            for row in rows:
                loss, grads = reference.batch_loss_and_grads(X[row], T[row])
                velocity = [mu * v - lr * g for v, g in zip(velocity, grads)]
                reference.set_param_arrays(
                    [p + v for p, v in zip(reference.param_arrays(), velocity)]
                )
                epoch.append(loss)
            losses.append(float(np.mean(epoch)))
        np.testing.assert_array_equal(curve.train, losses)
        for a, b in zip(net.param_arrays(), reference.param_arrays()):
            np.testing.assert_array_equal(a, b)

    def test_validation_curve_and_patience(self):
        X, T = _toy_problem(1, n=60)
        net = build_model("ffnn", 3, 6, 1, seed=4)
        _, curve = train_loop(
            net, (X[:40], T[:40]), validation=(X[40:], T[40:]),
            config=TrainConfig(epochs=500, patience=5, seed=1),
        )
        assert curve.validation is not None
        assert len(curve.validation) == len(curve.train)

    def test_patience_stops_early_when_validation_worsens(self):
        # Validation targets are the training targets inverted, so the
        # validation loss rises as training fits; patience must kick in.
        X, T = _toy_problem(2, n=40)
        net = build_model("ffnn", 3, 6, 1, seed=4)
        _, curve = train_loop(
            net, (X, T), validation=(X, 1.0 - T),
            config=TrainConfig(epochs=400, patience=3, seed=1),
        )
        assert len(curve) < 400

    def test_saturated_layers_stay_finite(self):
        # Pre-activations pinned at +/-700: forward and backward both finite.
        net = _net((np.array([[700.0], [-700.0]]), np.zeros(2)),
                   (np.array([[700.0, -700.0]]), np.zeros(1)))
        with np.errstate(all="raise"):
            act = net.predict_batch(np.array([[1.0]]))
            assert np.all(np.isfinite(act))
            loss, grads = net.batch_loss_and_grads(np.array([[1.0]]), np.array([[0.5]]))
            assert np.isfinite(loss)
            assert all(np.isfinite(g).all() for g in grads)

    def test_empty_training_data(self):
        net = build_model("ffnn", 3, 4, 1, seed=0)
        with pytest.raises(ValueError):
            train_loop(net, (np.zeros((0, 3)), np.zeros((0, 1))))

    def test_non_finite_loss_aborts_with_epoch(self):
        X, T = _toy_problem()
        net = build_model("ffnn", 3, 4, 1, seed=5)
        net.param_arrays()[0][0, 0] = np.nan  # live view into the weights
        with pytest.raises(TrainingDivergedError) as exc:
            train_loop(net, (X, T), config=TrainConfig(epochs=10))
        assert exc.value.epoch == 1
        assert "epoch 1" in str(exc.value)

    @pytest.mark.parametrize("update_mode", ["full-batch", "per-sample"])
    @pytest.mark.parametrize("family", ["ffnn", "elman", "narx"])
    def test_non_finite_parameters_abort(self, monkeypatch, family, update_mode):
        # A finite loss with an infinite gradient drives a parameter to -inf.
        def inf_grads(self, X, T, workspace):
            workspace.grad.fill(np.inf)
            return 0.25, workspace.grads

        net = build_model(family, 3, 4, 1, seed=1)
        monkeypatch.setattr(type(net), "batch_loss_and_grads", inf_grads)
        X, T = _toy_problem()
        config = TrainConfig(epochs=3, update_mode=update_mode)
        with pytest.raises(TrainingDivergedError) as exc:
            train_loop(net, (X, T), config=config)
        assert exc.value.epoch == 1
        assert "non-finite parameters at epoch 1" in str(exc.value)

    def test_non_finite_starting_parameters_name_the_loss(self):
        X, T = _toy_problem()
        net = build_model("ffnn", 3, 4, 1, seed=5)
        net.param_arrays()[0][0, 0] = np.nan
        for update_mode in ("full-batch", "per-sample"):
            with pytest.raises(TrainingDivergedError) as exc:
                train_loop(net, (X, T), config=TrainConfig(epochs=3, update_mode=update_mode))
            assert str(exc.value) == "non-finite training loss at epoch 1"

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("later", ["finite loss", "model loss"])
    @pytest.mark.parametrize("family", ["ffnn", "elman", "narx"])
    def test_parameters_going_non_finite_mid_epoch(self, monkeypatch, family, later):
        # Update 47 (epoch 2, update 7 of 40) steps with infinite gradients.  The
        # updates after it see a finite loss, or the model's own loss on the
        # broken parameters; either way the error names the epoch it broke in.
        net = build_model(family, 3, 4, 1, seed=1)
        model_loss = type(net).batch_loss_and_grads
        calls = []

        def breaking(self, X, T, workspace):
            calls.append(len(X))
            if len(calls) > 47 and later == "finite loss":
                return 0.25, workspace.grads
            loss, grads = model_loss(self, X, T, workspace)
            if len(calls) == 47:
                workspace.grad.fill(np.inf)
            return loss, grads

        monkeypatch.setattr(type(net), "batch_loss_and_grads", breaking)
        X, T = _toy_problem()
        config = TrainConfig(epochs=4, update_mode="per-sample")
        with pytest.raises(TrainingDivergedError) as exc:
            train_loop(net, (X, T), config=config)
        assert exc.value.epoch == 2
        assert str(exc.value) == "non-finite parameters at epoch 2"
        assert 47 <= len(calls) <= 80

    def test_curve_csv_format(self):
        X, T = _toy_problem()
        net = build_model("ffnn", 3, 4, 1, seed=6)
        _, curve = train_loop(net, (X, T), validation=(X, T), config=TrainConfig(epochs=3))
        lines = curve.to_csv().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss"
        assert len(lines) == 4
        assert lines[1].startswith("1,")


class TestWorkspace:
    #: spec -> (family, options); NARX with delays has tap weights the kernel never reads.
    SPECS = {"ffnn": ("ffnn", {}), "elman-single-step": ("elman", {}),
             "narx-delays": ("narx", {"d_u": 1, "d_y": 2}), "narx": ("narx", {})}

    @pytest.mark.parametrize("family,kwargs", list(SPECS.values()))
    def test_full_batch_epochs_allocate_no_batch_sized_block(self, family, kwargs):
        # Once the first epoch has run, an epoch's update and validation pass
        # write into the run's workspace: no block the size of one (rows x
        # hidden) float64 array is live above what was live when epoch 2 began.
        rows, hidden = 400, 50
        rng = np.random.default_rng(0)
        X, T = rng.normal(size=(rows + 100, 9)), rng.uniform(size=(rows + 100, 1))
        net = build_model(family, 9, hidden, 1, seed=0, **kwargs)
        train, validation = (X[:rows], T[:rows]), (X[rows:], T[rows:])
        inner, calls, base = net.batch_loss_and_grads, [], []

        def update(*args):
            calls.append(None)
            if len(calls) == 2:
                tracemalloc.reset_peak()
                base.append(tracemalloc.get_traced_memory()[0])
            return inner(*args)

        net.batch_loss_and_grads = update
        tracemalloc.start()
        try:
            train_loop(net, train, validation, TrainConfig(epochs=6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(calls) == 6
        assert peak - base[0] < rows * hidden * 8

    @staticmethod
    def _held_bytes(workspace):
        """Bytes of the arrays a workspace holds, each buffer counted once."""
        held = {}
        for value in vars(workspace).values():
            for a in value if isinstance(value, list) else [value]:
                if isinstance(a, np.ndarray):
                    while a.base is not None:
                        a = a.base
                    held[id(a)] = a.nbytes
        return sum(held.values())

    def test_elman_context_is_one_row(self):
        # Elman's buffers are FFNN's plus one context row and wh's gradient:
        # no (rows x hidden) block holds the context.
        rows, hidden = 300, 50
        ffnn = build_model("ffnn", 9, hidden, 3, seed=0).workspace(rows)
        elman = build_model("elman", 9, hidden, 3, seed=0, context_init=0.25).workspace(rows)
        context, *acts = elman.acts
        np.testing.assert_array_equal(context, np.full((1, hidden), 0.25))
        assert [a.shape for a in acts] == [a.shape for a in ffnn.acts]
        assert (self._held_bytes(elman)
                == self._held_bytes(ffnn) + (hidden + hidden * hidden) * 8)

    @pytest.mark.parametrize("family", ["ffnn", "elman", "narx"])
    def test_results_without_a_workspace_survive_later_calls(self, family):
        rng = np.random.default_rng(1)
        net = build_model(family, 9, 6, 3, seed=2)
        X, T = rng.normal(size=(5, 9)), rng.uniform(size=(5, 3))
        Y = net.predict_batch(X)
        _, grads = net.batch_loss_and_grads(X, T)
        kept = [Y.copy()] + [g.copy() for g in grads]
        net.predict_batch(-X)
        net.batch_loss_and_grads(-X, 1.0 - T)
        for now, before in zip([Y, *grads], kept):
            np.testing.assert_array_equal(now, before)

    @staticmethod
    def _bits(arrays):
        return [np.asarray(a, dtype=float).tobytes() for a in arrays]

    @pytest.mark.parametrize("spec", list(SPECS))
    def test_reused_workspace_matches_fresh_ones(self, spec):
        # One workspace serves 1, k and 1 rows again, and then parameters that
        # set_param_arrays rebound: every loss, gradient and output matches a
        # call on a fresh workspace bit for bit, and forward passes leave the
        # gradients of the call before them alone.
        rng = np.random.default_rng(3)
        k = 7
        X, T = rng.normal(size=(k, 9)), rng.uniform(size=(k, 3))
        family, kwargs = self.SPECS[spec]
        net = build_model(family, 9, 6, 3, seed=4, **kwargs)
        loss_and_grads, outputs = net.batch_loss_and_grads, net.predict_batch
        workspace = net.workspace(k)
        for n, scale in ((1, 1.0), (k, 1.0), (1, 1.0), (1, 1.5), (k, 1.0)):
            if scale != 1.0:
                net.set_param_arrays([a * scale for a in net.param_arrays()])
            loss, grads = loss_and_grads(X[:n], T[:n], workspace)
            kept = self._bits(grads)
            fresh_loss, fresh_grads = loss_and_grads(X[:n], T[:n])
            assert self._bits([loss]) == self._bits([fresh_loss])
            assert kept == self._bits(fresh_grads)
            assert self._bits([outputs(X[:n], workspace)]) == self._bits([outputs(X[:n])])
            assert self._bits(grads) == kept
