"""Acceptance gate for the whole toolkit.

Each criterion is asserted at its stated tolerance and prints one PASS
line, so `pytest tests/test_acceptance.py -v -s` doubles as a checklist.
"""
import time
import zlib

import numpy as np
import pytest

from hemanet.cli import fit_stage, main
from hemanet.metrics import DIAGNOSIS_LABELS, ConfusionMatrix, accuracy, f1_score
from hemanet.models import Network, build_model
from hemanet.nncore import TrainConfig, gradient_check
from hemanet.pipeline import evaluate_diagnosis, evaluate_pipeline
from hemanet.preprocess import (
    FULL9,
    SPLIT_PRESETS,
    Normalizer,
    fit_normalizer,
    largest_remainder,
    split_dataset,
)
from hemanet.records import AnemiaLabel, rule_label
from hemanet.serialize import ModelBundle, load_model, save_model
from hemanet.synth import synth_generate

from helpers import invert, to_records

BASE_MIX = (26, 40, 39, 42)  # microcytic : normocytic : macrocytic : non-anemic
MIX_ORDER = (
    AnemiaLabel.MICROCYTIC,
    AnemiaLabel.NORMOCYTIC,
    AnemiaLabel.MACROCYTIC,
    AnemiaLabel.NON_ANEMIC,
)


def scaled_mix(total: int) -> dict:
    return dict(zip(MIX_ORDER, largest_remainder(BASE_MIX, total)))


def test_criterion_1_gradient_correctness():
    start = time.perf_counter()
    setups = [
        ("ffnn", {}),
        ("elman", {}),
        ("narx", {}),
    ]
    worst_overall = 0.0
    for family, kwargs in setups:
        for trial in range(20):
            # crc32, unlike hash(), is the same in every process.
            seed = 1000 * trial + zlib.crc32((family + str(kwargs)).encode()) % 997
            rng = np.random.default_rng(seed)
            features = int(rng.integers(2, 7))
            hidden = int(rng.integers(2, 9))
            out_dim = int(rng.integers(1, 4))
            extra = dict(kwargs)
            if family == "narx":
                extra.update(d_u=int(rng.integers(0, 3)), d_y=int(rng.integers(1, 3)))
            net = build_model(family, features, hidden, out_dim, seed=seed, **extra)

            signs = rng.choice([-1.0, 1.0], size=features)
            x = rng.uniform(0.1, 1.0, size=features) * signs
            target = rng.uniform(0.1, 0.9, size=out_dim)
            err = gradient_check(net, x, target, epsilon=1e-5)
            worst_overall = max(worst_overall, err)
            assert err < 1e-4, f"{family} {kwargs} seed {seed}: {err}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(
        f"\nACCEPTANCE 1 gradient-correctness: PASS "
        f"(worst {worst_overall:.2e}, {elapsed:.1f}s)"
    )


def test_criterion_2_metric_reproduction():
    def detection_cm(correct, total):
        return ConfusionMatrix(DIAGNOSIS_LABELS, [[0, 0], [total - correct, correct]])

    assert accuracy(detection_cm(201, 230)) == pytest.approx(0.8739, abs=5e-5)
    assert accuracy(detection_cm(209, 230)) == pytest.approx(0.9087, abs=5e-5)
    assert accuracy(detection_cm(215, 230)) == pytest.approx(0.9348, abs=5e-5)

    assert f1_score(1.0, 0.9087) == pytest.approx(0.9522, abs=5e-4)
    assert f1_score(1.0, 0.9348) == pytest.approx(0.9663, abs=5e-4)
    # The 0.9323 figure rounds the same arithmetic differently; the
    # computed value is 0.93272... and both agree within 5e-4.
    assert f1_score(1.0, 0.8739) == pytest.approx(0.9327, abs=5e-5)
    assert f1_score(1.0, 0.8739) == pytest.approx(0.9323, abs=5e-4)
    print("\nACCEPTANCE 2 metric-reproduction: PASS")


def test_criterion_3_end_to_end_learning():
    start = time.perf_counter()
    seed = 1234
    records = synth_generate(230, scaled_mix(230), seed=seed)
    split = split_dataset(records, (0.4, 0.4, 0.2), seed=seed, stratified=True)
    config = TrainConfig(epochs=2000, hidden_size=50, seed=seed)

    results = {}
    for family in ("ffnn", "narx", "elman"):
        diag, _ = fit_stage(split.train, family, "diagnosis", config,
                            val_records=split.validation)
        clf, _ = fit_stage(split.train, family, "classify", config,
                           val_records=split.validation)
        diag_cm = evaluate_diagnosis(diag, split.test)
        diag_acc = accuracy(diag_cm)
        four_acc = accuracy(evaluate_pipeline(diag, clf, split.test))
        results[family] = (diag_acc, four_acc)
        assert diag_acc >= 0.90, f"{family} diagnosis accuracy {diag_acc}"
        assert four_acc >= 0.80, f"{family} 4-way accuracy {four_acc}"
        # healthy patients must come back healthy almost always
        healthy_row = diag_cm.counts[0]
        assert healthy_row[0] / healthy_row.sum() >= 0.95, f"{family} healthy recall"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    summary = ", ".join(
        f"{fam}: diag {d:.3f} / 4-way {f:.3f}" for fam, (d, f) in results.items()
    )
    print(f"\nACCEPTANCE 3 end-to-end-learning: PASS ({summary}, {elapsed:.1f}s)")


def test_criterion_4_reduction_invariants():
    rng = np.random.default_rng(99)

    # Elman: the constant context folds into the hidden bias.
    elman = build_model("elman", 6, 8, 2, seed=5)
    wx, wh, b1, w2, b2 = (a.copy() for a in elman.param_arrays())
    as_ffnn = Network("ffnn", [wx, b1 + wh @ np.full(8, elman.context_init), w2, b2], 6)
    X = rng.uniform(-1, 1, size=(100, 6))
    assert np.max(np.abs(elman.predict_batch(X) - as_ffnn.predict_batch(X))) <= 1e-12

    # Per-record NARX: the core on its feature columns; its taps are zero, and
    # their weights are kept apart from the parameters.
    narx = build_model("narx", 6, 8, 2, seed=6, d_u=0, d_y=2)
    core_net = Network("ffnn", [a.copy() for a in narx.param_arrays()], 6)
    X, T = rng.uniform(-1, 1, size=(100, 6)), rng.uniform(size=(100, 2))
    assert narx.tap_weights.shape == (8, 4)
    assert np.array_equal(narx.predict_batch(X), core_net.predict_batch(X))
    _, grads = narx.batch_loss_and_grads(X, T)
    assert all(map(np.array_equal, grads, core_net.batch_loss_and_grads(X, T)[1]))
    print("\nACCEPTANCE 4 reduction-invariants: PASS")


def test_criterion_5_oracle_agreement():
    disagreements = 0
    for seed in range(10):
        batch = synth_generate(1000, scaled_mix(1000), seed=seed)
        disagreements += sum(
            1 for item in batch if rule_label(item.record) is not item.label
        )
    assert disagreements == 0
    print("\nACCEPTANCE 5 oracle-agreement: PASS (10000 records, 0 disagreements)")


def test_criterion_6_compare_determinism(tmp_path):
    data = tmp_path / "data.csv"
    assert main([
        "synth", "-n", "230", "--mix", "41,62,61,66", "--seed", "21",
        "-o", str(data),
    ]) == 0
    blobs = []
    for name in ("first", "second"):
        run_dir = tmp_path / name
        run_dir.mkdir()
        report = run_dir / "report.json"
        assert main([
            "compare", "--data", str(data), "--seed", "21",
            "--epochs", "100", "--format", "json",
            "--curves", str(run_dir / "curve"), "-o", str(report),
        ]) == 0
        blob = report.read_bytes()
        for family in ("ffnn", "narx", "elman"):
            blob += (run_dir / f"curve_{family}.csv").read_bytes()
        blobs.append(blob)
    assert blobs[0] == blobs[1]
    print("\nACCEPTANCE 6 compare-determinism: PASS (byte-identical reports and curves)")


def test_criterion_7_normalization():
    rng = np.random.default_rng(7)
    train = rng.uniform(-50, 150, size=(200, 6))
    norm = fit_normalizer(train)
    np.testing.assert_array_equal(norm.apply(train.min(axis=0)), -1.0)
    np.testing.assert_array_equal(norm.apply(train.max(axis=0)), 1.0)

    vectors = rng.uniform(-200, 300, size=(1000, 6))
    round_tripped = invert(norm, norm.apply(vectors))
    assert np.max(np.abs(round_tripped - vectors) / np.maximum(np.abs(vectors), 1.0)) <= 1e-12
    print("\nACCEPTANCE 7 normalization: PASS")


def test_criterion_8_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    normalizer = Normalizer(mins=np.full(9, -2.0), maxs=np.full(9, 2.0))
    nets = {
        "ffnn": build_model("ffnn", 9, 12, 1, seed=1),
        "elman": build_model("elman", 9, 12, 1, seed=2),
        "narx": build_model("narx", 9, 12, 1, seed=3, d_u=1, d_y=1),
    }
    for family, net in nets.items():
        bundle = ModelBundle(family, net, FULL9, "binary1", normalizer)
        path = tmp_path / f"{family}.json"
        save_model(bundle, path)
        loaded = load_model(path)
        X = rng.uniform(-1, 1, size=(100, net.feature_count))
        before, after = (n.predict_batch(X) for n in (net, loaded.net))
        assert np.array_equal(before, after), f"{family} predictions drifted"
        assert np.array_equal(net.tap_weights, loaded.net.tap_weights), f"{family} tap weights"
    print("\nACCEPTANCE 8 serialization-round-trip: PASS (bit-identical predictions)")


def test_criterion_9_split_arithmetic():
    records = synth_generate(230, scaled_mix(230), seed=9)

    plain = split_dataset(records, (0.4, 0.4, 0.2), seed=1, stratified=False)
    assert plain.sizes() == (92, 92, 46)

    stratified = split_dataset(records, (0.4, 0.4, 0.2), seed=1, stratified=True)
    for label in AnemiaLabel:
        class_total = sum(1 for r in records if r.label is label)
        for part, fraction in zip(
            (stratified.train, stratified.test, stratified.validation),
            stratified.fractions,
        ):
            in_part = sum(1 for r in to_records(part) if r.label is label)
            assert abs(in_part - fraction * class_total) <= 1.0 + 1e-9

    materials = split_dataset(
        records, SPLIT_PRESETS["paper-materials"], seed=1, stratified=False
    )
    assert materials.sizes() == (147, 83, 0)
    print("\nACCEPTANCE 9 split-arithmetic: PASS")
