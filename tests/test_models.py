"""Model families: reductions to the plain feedforward net, recurrent
gradients, NARX delay-line composition, and output encodings."""
import re

import numpy as np
import pytest

from hemanet.models import (
    BAND_CENTERS,
    FAMILIES,
    Network,
    build_model,
    decode_subtype,
    encode_targets,
    output_width,
)
from hemanet.nncore import TrainConfig, gradient_check, train_loop
from hemanet.records import LABELS, AnemiaLabel


def encode_target(label, encoding):
    """The target vector of one label."""
    return encode_targets([LABELS.index(label)], encoding)[0]


class TestEncodings:
    def test_output_widths(self):
        assert output_width("binary1") == 1
        assert output_width("onehot3") == 3
        assert output_width("banded1") == 1
        with pytest.raises(ValueError):
            output_width("softmax4")

    def test_binary_targets(self):
        np.testing.assert_array_equal(encode_target(AnemiaLabel.NON_ANEMIC, "binary1"), [0.0])
        np.testing.assert_array_equal(encode_target(AnemiaLabel.MACROCYTIC, "binary1"), [1.0])

    def test_onehot_targets(self):
        np.testing.assert_array_equal(encode_target(AnemiaLabel.MICROCYTIC, "onehot3"), [1, 0, 0])
        np.testing.assert_array_equal(encode_target(AnemiaLabel.NORMOCYTIC, "onehot3"), [0, 1, 0])
        np.testing.assert_array_equal(encode_target(AnemiaLabel.MACROCYTIC, "onehot3"), [0, 0, 1])

    def test_banded_targets(self):
        np.testing.assert_allclose(
            encode_targets(
                [LABELS.index(AnemiaLabel.MICROCYTIC), LABELS.index(AnemiaLabel.NORMOCYTIC),
                 LABELS.index(AnemiaLabel.MACROCYTIC)],
                "banded1",
            ).ravel(),
            BAND_CENTERS,
        )

    def test_subtype_encodings_reject_non_anemic(self):
        for encoding in ("onehot3", "banded1"):
            with pytest.raises(ValueError):
                encode_target(AnemiaLabel.NON_ANEMIC, encoding)

    def test_onehot_decode_argmax(self):
        assert decode_subtype([0.9, 0.2, 0.1], "onehot3") is AnemiaLabel.MICROCYTIC
        assert decode_subtype([0.1, 0.2, 0.9], "onehot3") is AnemiaLabel.MACROCYTIC

    def test_onehot_tie_goes_to_lowest_index(self):
        assert decode_subtype([0.7, 0.7, 0.1], "onehot3") is AnemiaLabel.MICROCYTIC
        assert decode_subtype([0.1, 0.6, 0.6], "onehot3") is AnemiaLabel.NORMOCYTIC

    def test_banded_decode_nearest_center(self):
        assert decode_subtype([0.49], "banded1") is AnemiaLabel.NORMOCYTIC
        assert decode_subtype([0.12], "banded1") is AnemiaLabel.MICROCYTIC
        assert decode_subtype([0.95], "banded1") is AnemiaLabel.MACROCYTIC


def _ffnn(*arrays) -> Network:
    """The FFNN of (wx, b1, w2, b2)."""
    return Network("ffnn", arrays, len(arrays[0][0]))


class TestFfnn:
    def test_all_zero_params_give_half(self):
        net = _ffnn(np.zeros((4, 3)), np.zeros(4), np.zeros((1, 4)), np.zeros(1))
        np.testing.assert_array_equal(net.forward(np.array([1.0, -5.0, 2.0])), [0.5])

    def test_outputs_strictly_inside_unit_interval(self):
        net = build_model("ffnn", 6, 10, 3, seed=0)
        rng = np.random.default_rng(1)
        for _ in range(10):
            y = net.forward(rng.uniform(-1, 1, size=6))
            assert np.all((y > 0) & (y < 1))

    def test_deterministic_forward(self):
        net = build_model("ffnn", 4, 5, 2, seed=9)
        x = np.array([0.1, -0.3, 0.8, 0.0])
        np.testing.assert_array_equal(net.forward(x), net.forward(x))

    def test_rejects_inconsistent_layers(self):
        with pytest.raises(ValueError, match="must have shapes"):
            _ffnn(np.zeros((4, 3)), np.zeros(4), np.zeros((1, 5)), np.zeros(1))

    def test_predict_batch_matches_forward(self):
        net = build_model("ffnn", 3, 6, 2, seed=2)
        X = np.random.default_rng(3).uniform(-1, 1, size=(7, 3))
        batched = net.predict_batch(X)
        for i, x in enumerate(X):
            np.testing.assert_allclose(batched[i], net.forward(x), rtol=1e-12)

    def test_builder_seed_determinism(self):
        a = build_model("ffnn", 5, 8, 2, seed=42)
        b = build_model("ffnn", 5, 8, 2, seed=42)
        for pa, pb in zip(a.param_arrays(), b.param_arrays()):
            np.testing.assert_array_equal(pa, pb)


def _elman_as_ffnn(elman: Network) -> Network:
    """The dense net an Elman net is: its constant context folds into the
    hidden bias."""
    wx, wh, b1, w2, b2 = elman.param_arrays()
    bias = b1 + wh @ np.full(len(b1), elman.context_init)
    return _ffnn(wx.copy(), bias, w2.copy(), b2.copy())


def _one_row_grads(model, x, t):
    """Gradients of one sample: batch_loss_and_grads on a batch of one."""
    return model.batch_loss_and_grads(np.asarray(x, dtype=float)[None],
                                      np.asarray(t, dtype=float)[None])[1]


class TestElman:
    def test_reduces_to_ffnn_without_recurrence(self):
        elman = build_model("elman", 5, 7, 2, seed=1, context_init=0.0)
        elman.param_arrays()[1][:] = 0.0
        ffnn = _elman_as_ffnn(elman)
        rng = np.random.default_rng(2)
        for _ in range(100):
            x = rng.uniform(-1, 1, size=5)
            np.testing.assert_allclose(elman.forward(x), ffnn.forward(x), atol=1e-12)

    @pytest.mark.parametrize("rows", [1, 40])
    @pytest.mark.parametrize("out_dim", [1, 3])
    def test_ffnn_is_single_step_elman_with_zero_recurrent_weights(self, rows, out_dim):
        # Bit for bit: the kernel adds the recurrent term context @ wh.T,
        # exactly +0.0 here, only for the net that has wh.
        rng = np.random.default_rng(rows + out_dim)
        ffnn = build_model("ffnn", 9, 20, out_dim, seed=rows)
        ffnn.set_param_arrays([rng.normal(size=a.shape) for a in ffnn.param_arrays()])
        wx, b1, w2, b2 = (a.copy() for a in ffnn.param_arrays())
        elman = Network("elman", [wx, np.zeros((20, 20)), b1, w2, b2], 9, context_init=0.5)
        X, T = rng.normal(size=(rows, 9)), rng.uniform(size=(rows, out_dim))
        assert ffnn.predict_batch(X).tobytes() == elman.predict_batch(X).tobytes()
        assert ffnn.batch_loss(X, T) == elman.batch_loss(X, T)
        loss, grads = ffnn.batch_loss_and_grads(X, T)
        elman_loss, (g_wx, _, g_b1, g_w2, g_b2) = elman.batch_loss_and_grads(X, T)
        assert np.float64(loss).tobytes() == np.float64(elman_loss).tobytes()
        for got, want in zip(grads, (g_wx, g_b1, g_w2, g_b2)):
            assert got.tobytes() == want.tobytes()

    def test_default_single_step_equals_ffnn_with_context_in_bias(self):
        # With the default context of 0.5 and non-zero recurrent weights, an
        # Elman net is a dense net whose hidden bias is b1 + wh @ c0.
        elman = build_model("elman", 9, 50, 3, seed=4)
        assert elman.context_init == 0.5 and np.abs(elman.param_arrays()[1]).min() > 0.0
        X = np.random.default_rng(5).uniform(-1, 1, size=(200, 9))
        difference = np.abs(elman.predict_batch(X) - _elman_as_ffnn(elman).predict_batch(X))
        assert difference.max() <= 1e-12

    def test_zero_context_zeroes_recurrent_gradient(self):
        elman = build_model("elman", 4, 6, 1, seed=3, context_init=0.0)
        x = np.random.default_rng(4).uniform(-1, 1, size=4)
        grads = _one_row_grads(elman, x, [0.8])
        np.testing.assert_array_equal(grads[1], 0.0)  # d wh

    def test_default_context_makes_recurrent_weights_trainable(self):
        elman = build_model("elman", 4, 6, 1, seed=3)  # context_init=0.5
        x = np.random.default_rng(4).uniform(-1, 1, size=4)
        grads = _one_row_grads(elman, x, [0.8])
        assert np.abs(grads[1]).max() > 0.0

    def test_non_recurrent_gradients_match_ffnn_when_reduced(self):
        elman = build_model("elman", 4, 5, 2, seed=5, context_init=0.0)
        elman.param_arrays()[1][:] = 0.0
        ffnn = _elman_as_ffnn(elman)
        rng = np.random.default_rng(6)
        x = rng.uniform(-1, 1, size=4)
        t = rng.uniform(0.1, 0.9, size=2)
        eg = _one_row_grads(elman, x, t)
        fg = _one_row_grads(ffnn, x, t)
        np.testing.assert_allclose(eg[0], fg[0], atol=1e-12)  # wx vs hidden weights
        np.testing.assert_allclose(eg[2], fg[1], atol=1e-12)  # b1
        np.testing.assert_allclose(eg[3], fg[2], atol=1e-12)  # w2
        np.testing.assert_allclose(eg[4], fg[3], atol=1e-12)  # b2

    @pytest.mark.parametrize("context_init", [0.5, 0.0, -2.0])
    def test_gradient_check(self, context_init):
        rng = np.random.default_rng(8)
        for seed in range(5):
            elman = build_model("elman", 4, 5, 2, seed=seed, context_init=context_init)
            x = rng.uniform(0.1, 1.0, size=4) * rng.choice([-1, 1], size=4)
            t = rng.uniform(0.1, 0.9, size=2)
            assert gradient_check(elman, x, t) < 1e-4

    def test_prediction_invariant_under_batch_reordering(self):
        elman = build_model("elman", 5, 6, 1, seed=9)
        X = np.random.default_rng(10).uniform(-1, 1, size=(8, 5))
        forward = elman.predict_batch(X)
        backward = elman.predict_batch(X[::-1])
        np.testing.assert_array_equal(forward, backward[::-1])

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="elman has no option 'mode'"):
            build_model("elman", 4, 5, 1, mode="both")


#: (d_u, d_y): the default, and exogenous and output taps both.
DELAYS = [(0, 1), (2, 2)]


def _bits(*arrays):
    return [np.asarray(a, dtype=float).tobytes() for a in arrays]


class TestNarx:
    @pytest.mark.parametrize("d_y", [1, 2])
    def test_reduces_to_ffnn_with_zero_taps(self, d_y):
        narx = build_model("narx", 5, 6, 2, seed=11, d_u=0, d_y=d_y)
        ffnn = _ffnn(*(a.copy() for a in narx.param_arrays()))
        rng = np.random.default_rng(12)
        for _ in range(100):
            x = rng.uniform(-1, 1, size=5)
            np.testing.assert_array_equal(narx.forward(x), ffnn.forward(x))

    def test_composed_width(self):
        narx = build_model("narx", 5, 6, 2, d_u=3, d_y=2)
        assert narx.param_arrays()[0].shape == (6, 5)
        assert narx.tap_weights.shape == (6, 5 * 3 + 2 * 2)
        assert not narx.tap_weights.flags.writeable

    def test_gradient_check(self):
        rng = np.random.default_rng(17)
        for seed in range(5):
            narx = build_model("narx", 3, 5, 2, seed=seed, d_u=1, d_y=1)
            target = rng.uniform(0.1, 0.9, size=2)
            x = rng.uniform(0.1, 1.0, size=3) * rng.choice([-1, 1], size=3)
            assert gradient_check(narx, x, target) < 1e-4

    def test_per_record_predictions_order_invariant(self):
        narx = build_model("narx", 4, 5, 1, seed=18)
        X = np.random.default_rng(19).uniform(-1, 1, size=(7, 4))
        forward = narx.predict_batch(X)
        backward = narx.predict_batch(X[::-1])
        np.testing.assert_array_equal(forward, backward[::-1])

    def test_delay_order_validation(self):
        with pytest.raises(ValueError):
            build_model("narx", 3, 4, 1, d_u=-1)
        with pytest.raises(ValueError):
            build_model("narx", 3, 4, 1, d_y=0)
        with pytest.raises(ValueError, match="must have shapes"):
            Network("narx", build_model("ffnn", 5, 4, 1).param_arrays(), 3, d_u=0, d_y=1)
        ffnn = build_model("ffnn", 3, 4, 1).param_arrays()
        for taps in (None, np.zeros((4, 2)), np.zeros((3, 1))):
            with pytest.raises(ValueError, match=r"and tap weights \(4, 1\), got"):
                Network("narx", ffnn, 3, taps, d_u=0, d_y=1)
        with pytest.raises(ValueError, match="parameters must be finite"):
            Network("narx", ffnn, 3, np.full((4, 1), np.nan), d_u=0, d_y=1)

    @pytest.mark.parametrize("delays", DELAYS, ids=["du0-dy1", "du2-dy2"])
    def test_initial_draw_is_the_input_matrix_taps_included(self, delays):
        # One (hidden, F + taps) draw, fan-in counting the taps, then w2's.
        d_u, d_y = delays
        narx = build_model("narx", 9, 7, 3, seed=13, d_u=d_u, d_y=d_y)
        width = 9 * (1 + d_u) + 3 * d_y
        rng = np.random.default_rng(13)
        r = np.sqrt(6.0 / (7 + width))
        wx = rng.uniform(-r, r, size=(7, width))
        w2 = rng.uniform(-np.sqrt(6.0 / 10), np.sqrt(6.0 / 10), size=(3, 7))
        assert _bits(narx.params[0], narx.tap_weights) == _bits(wx[:, :9], wx[:, 9:])
        assert _bits(narx.params[2]) == _bits(w2)
        assert narx.params[0].flags.c_contiguous

    @pytest.mark.parametrize("delays", DELAYS, ids=["du0-dy1", "du2-dy2"])
    @pytest.mark.parametrize("out_dim", [1, 3])
    @pytest.mark.parametrize("rows", [1, 2, 7, 920])
    def test_is_exactly_the_ffnn_on_its_features(self, rows, out_dim, delays):
        d_u, d_y = delays
        narx = build_model("narx", 9, 8, out_dim, seed=rows, d_u=d_u, d_y=d_y)
        ffnn = _ffnn(*(a.copy() for a in narx.param_arrays()))
        rng = np.random.default_rng(rows + out_dim)
        X, T = rng.normal(size=(rows, 9)), rng.uniform(size=(rows, out_dim))
        loss, grads = narx.batch_loss_and_grads(X, T)
        ffnn_loss, ffnn_grads = ffnn.batch_loss_and_grads(X, T)
        assert _bits(loss, *grads) == _bits(ffnn_loss, *ffnn_grads)
        assert _bits(narx.predict_batch(X), narx.batch_loss(X, T)) == _bits(
            ffnn.predict_batch(X), ffnn.batch_loss(X, T))

    @pytest.mark.parametrize("update_mode", ["full-batch", "per-sample"])
    @pytest.mark.parametrize("delays", DELAYS, ids=["du0-dy1", "du2-dy2"])
    @pytest.mark.parametrize("out_dim", [1, 3])
    @pytest.mark.parametrize("rows", [1, 2, 7, 920])
    def test_training_keeps_the_tap_weights(self, rows, out_dim, delays, update_mode):
        # The tap weights end bit for bit as drawn; every parameter, loss and
        # output ends as the FFNN's trained from the same feature weights.
        d_u, d_y = delays
        narx = build_model("narx", 9, 8, out_dim, seed=rows, d_u=d_u, d_y=d_y)
        drawn = narx.tap_weights.copy()
        ffnn = _ffnn(*(a.copy() for a in narx.param_arrays()))
        rng = np.random.default_rng(rows + out_dim)
        X, T = rng.normal(size=(rows, 9)), rng.uniform(size=(rows, out_dim))
        config = TrainConfig(epochs=2 if update_mode == "per-sample" else 20,
                             update_mode=update_mode, seed=rows)
        got, want = (train_loop(net, (X, T), (X, T), config)[1] for net in (narx, ffnn))
        assert _bits(narx.tap_weights) == _bits(drawn)
        assert _bits(*narx.param_arrays()) == _bits(*ffnn.param_arrays())
        assert _bits(got.train, got.validation) == _bits(want.train, want.validation)
        tapped = np.asarray(narx.to_doc()["layers"][0]["weights"])
        assert _bits(tapped[:, 9:]) == _bits(drawn)


def test_build_model_dispatch():
    for family in FAMILIES:
        net = build_model(family, 4, 5, 1)
        assert net.family == family and net.options == FAMILIES[family].options
    with pytest.raises(ValueError, match="unknown model family 'lstm'"):
        build_model("lstm", 4, 5, 1)
    with pytest.raises(ValueError, match="ffnn has no option 'd_u'"):
        build_model("ffnn", 4, 5, 1, d_u=1)


@pytest.mark.parametrize("family", ["ffnn", "elman", "narx"])
def test_batch_loss_refuses_targets_of_another_shape(family):
    net = build_model(family, 4, 3, 1, seed=0)
    X = np.random.default_rng(0).normal(size=(5, 4))
    T = np.full((5, 1), 0.25)
    assert net.batch_loss(X, T) == net.batch_loss_and_grads(X, T)[0]
    message = r"targets of shape \(1, 5\) do not match outputs \(5, 1\)"
    with pytest.raises(ValueError, match=message):
        net.batch_loss(X, T[:, 0])
    with pytest.raises(ValueError, match="do not match"):
        net.batch_loss_and_grads(X, T[:, 0])


@pytest.mark.parametrize("family", ["ffnn", "elman", "narx"])
@pytest.mark.parametrize("out_dim", [1, 3])
@pytest.mark.parametrize("rows", [1, 2])
def test_one_row_and_batch_kernels_refuse_alike(family, out_dim, rows):
    # A batch of one is bound apart from larger ones, and a one-output net
    # computes its output neuron in floats: both keep the batch's refusals.
    net = build_model(family, 4, 3, out_dim, seed=0)
    X, T = np.zeros((rows, 4)), np.zeros((rows, out_dim))
    kernel = net.workspace(rows).kernel(rows)
    for bad in (np.zeros((rows, out_dim + 1)), T.ravel(), np.zeros(())):
        message = re.escape(f"targets of shape {bad.shape} do not match outputs {T.shape}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            kernel.backprop(net.params, X, bad)
    for width in (X.shape[1] - 1, X.shape[1] + 1):
        wrong = np.zeros((rows, width))
        message = f"^expected {X.shape[1]} features per sample, got {width}$"
        with pytest.raises(ValueError, match=message):
            kernel.forward(net.params, wrong)
        with pytest.raises(ValueError, match=message):
            kernel.backprop(net.params, wrong, T)


@pytest.mark.parametrize("family", ["ffnn", "elman", "narx"])
@pytest.mark.parametrize("width", [8, 10])
def test_predict_batch_names_the_feature_count_on_rows_of_another_width(family, width):
    net = build_model(family, 9, 5, 1, seed=0)
    with pytest.raises(ValueError, match=f"^expected 9 features per sample, got {width}$"):
        net.predict_batch(np.zeros((3, width)))
