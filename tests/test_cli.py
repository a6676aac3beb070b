"""CLI surface: subcommands, exit codes, and reproducibility."""
import csv
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import to_records
from hemanet import cli
from hemanet.cli import fit_stage
from hemanet.dataio import load_csv, save_unlabeled_csv
from hemanet.models import Network
from hemanet.nncore import TrainConfig, TrainingDivergedError
from hemanet.records import AnemiaLabel, CbcRecord, Gender, rule_label, validate_record
from hemanet.serialize import bundle_to_doc, load_model, save_model


def synth_file(tmp_path, name="data.csv", n=100, mix="18,26,26,30", seed=5):
    path = tmp_path / name
    code = cli.main([
        "synth", "-n", str(n), "--mix", mix, "--seed", str(seed), "-o", str(path),
    ])
    assert code == 0
    return path


class TestSynth:
    def test_writes_exact_class_counts(self, tmp_path, capsys):
        path = synth_file(tmp_path, n=147, mix="26,40,39,42", seed=7)
        records = to_records(load_csv(path))
        assert len(records) == 147
        counts = {label: 0 for label in AnemiaLabel}
        for item in records:
            counts[item.label] += 1
        assert counts[AnemiaLabel.MICROCYTIC] == 26
        assert counts[AnemiaLabel.NORMOCYTIC] == 40
        assert counts[AnemiaLabel.MACROCYTIC] == 39
        assert counts[AnemiaLabel.NON_ANEMIC] == 42
        assert "147" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, tmp_path):
        a = synth_file(tmp_path, "a.csv", seed=9)
        b = synth_file(tmp_path, "b.csv", seed=9)
        assert a.read_bytes() == b.read_bytes()

    def test_mix_must_sum_to_n(self, tmp_path, capsys):
        code = cli.main(["synth", "-n", "10", "--mix", "1,2,3,5",
                         "-o", str(tmp_path / "x.csv")])
        assert code == 2
        assert "sums to 11" in capsys.readouterr().err

    def test_malformed_mix(self, tmp_path):
        assert cli.main(["synth", "-n", "4", "--mix", "1,2,3",
                         "-o", str(tmp_path / "x.csv")]) == 2
        assert cli.main(["synth", "-n", "4", "--mix", "a,b,c,d",
                         "-o", str(tmp_path / "x.csv")]) == 2
        assert cli.main(["synth", "-n", "0", "--mix", "0,0,-1,1",
                         "-o", str(tmp_path / "x.csv")]) == 2

    def test_ranges_env_override(self, tmp_path, monkeypatch):
        ranges_path = tmp_path / "ranges.json"
        ranges_path.write_text('{"hgb_low_male": 14.5, "hgb_low_female": 13.5}')
        monkeypatch.setenv("HEMANET_RANGES", str(ranges_path))
        path = synth_file(tmp_path, "custom.csv", n=20, mix="0,10,0,10", seed=3)
        from hemanet.records import ReferenceRanges

        ranges = ReferenceRanges.from_json(ranges_path)
        for item in to_records(load_csv(path)):
            assert rule_label(item.record, ranges) is item.label

    def test_missing_output_flag(self):
        assert cli.main(["synth", "-n", "4", "--mix", "1,1,1,1"]) == 2

    @pytest.mark.parametrize("margin", ["0.6", "nan"])
    def test_margin_out_of_range_is_a_usage_error(self, tmp_path, capsys, margin):
        out = tmp_path / "x.csv"
        capsys.readouterr()
        assert cli.main(["synth", "-n", "4", "--mix", "1,1,1,1", "--margin", margin,
                         "-o", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: --margin must be in [0, 0.5), got {float(margin)!r}\n")
        assert not out.exists()

    def test_margin_leaving_no_window_is_a_data_error(self, tmp_path, capsys):
        # In range for the flag, but too wide for the default reference ranges.
        capsys.readouterr()
        assert cli.main(["synth", "-n", "4", "--mix", "1,1,1,1", "--margin", "0.4",
                         "-o", str(tmp_path / "x.csv")]) == 3
        assert "leaves no" in capsys.readouterr().err


class TestTrain:
    def test_trains_and_saves(self, tmp_path, capsys):
        data = synth_file(tmp_path)
        model_path = tmp_path / "diag.json"
        curve_path = tmp_path / "curve.csv"
        code = cli.main([
            "train", "--data", str(data), "--family", "ffnn", "--stage", "diagnosis",
            "--epochs", "150", "--hidden", "12", "--seed", "1",
            "--curve", str(curve_path), "-o", str(model_path),
        ])
        assert code == 0
        bundle = load_model(model_path)
        assert bundle.family == "ffnn"
        assert bundle.train_meta["stage"] == "diagnosis"
        lines = curve_path.read_text().splitlines()
        assert lines[0] == "epoch,train_loss"
        first = float(lines[1].split(",")[1])
        last = float(lines[-1].split(",")[1])
        assert last < first
        assert "loss" in capsys.readouterr().out

    def test_hidden_width_recorded_in_model_file(self, tmp_path):
        data = synth_file(tmp_path)
        model_path = tmp_path / "wide.json"
        code = cli.main([
            "train", "--data", str(data), "--family", "ffnn", "--stage", "diagnosis",
            "--epochs", "5", "--hidden", "100", "-o", str(model_path),
        ])
        assert code == 0
        doc = json.loads(model_path.read_text())
        assert doc["train_meta"]["hidden_size"] == 100
        assert len(doc["layers"][0]["biases"]) == 100

    def test_split_and_joint_scaling(self, tmp_path):
        data = synth_file(tmp_path)
        model_path = tmp_path / "m.json"
        code = cli.main([
            "train", "--data", str(data), "--family", "elman", "--stage", "classify",
            "--split", "40-40-20", "--joint-scaling",
            "--epochs", "40", "--hidden", "8", "-o", str(model_path),
        ])
        assert code == 0
        assert load_model(model_path).output_encoding == "onehot3"

    @pytest.mark.parametrize("command,split", [("train", "none"), ("train", "paper-materials"),
                                               ("compare", "paper-materials")])
    def test_patience_without_validation_rows_is_a_usage_error(self, tmp_path, capsys,
                                                               command, split):
        data, out = synth_file(tmp_path), tmp_path / "out"
        argv = (["train", "--family", "ffnn", "--stage", "diagnosis"] if command == "train"
                else ["compare"])
        capsys.readouterr()
        assert cli.main([*argv, "--data", str(data), "--split", split, "--epochs", "3",
                         "--patience", "1", "-o", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: patience needs validation rows, and the diagnosis stage has none\n")
        assert not out.exists()

    def test_patience_needs_anemic_validation_rows_for_the_classify_stage(self, tmp_path):
        records = load_csv(synth_file(tmp_path))
        non_anemic = records.take(np.flatnonzero(records.label == 0))
        config = TrainConfig(epochs=3, hidden_size=4, patience=1)
        fit_stage(records, "ffnn", "diagnosis", config, val_records=non_anemic)
        with pytest.raises(cli.UsageError, match="the classify stage has none"):
            fit_stage(records, "ffnn", "classify", config, val_records=non_anemic)

    def test_unknown_family_is_usage_error(self, tmp_path):
        data = synth_file(tmp_path)
        assert cli.main([
            "train", "--data", str(data), "--family", "gru", "--stage", "diagnosis",
            "-o", str(tmp_path / "m.json"),
        ]) == 2

    def test_missing_data_file(self, tmp_path, capsys):
        assert cli.main([
            "train", "--data", str(tmp_path / "absent.csv"), "--family", "ffnn",
            "--stage", "diagnosis", "-o", str(tmp_path / "m.json"),
        ]) == 3
        assert "data error" in capsys.readouterr().err

    def test_bad_hyperparameters_are_usage_errors(self, tmp_path):
        data = synth_file(tmp_path)
        assert cli.main([
            "train", "--data", str(data), "--family", "ffnn", "--stage", "diagnosis",
            "--epochs", "0", "-o", str(tmp_path / "m.json"),
        ]) == 2

    @pytest.mark.parametrize("family,flags,message", [
        ("narx", ["--du", "-1"], "exogenous delay order d_u must be >= 0"),
        ("narx", ["--dy", "0"], "output delay order d_y must be >= 1"),
        ("elman", ["--context-init", "nan"], "context_init must be finite, got nan"),
        # A flag of another family's option is refused, not ignored.
        ("ffnn", ["--du", "1"], "--family ffnn takes no narx option d_u"),
        ("narx", ["--elman-mode", "feature-sequence"], "--family narx takes no elman option mode"),
        ("narx", ["--context-init", "0.3"], "--family narx takes no elman option context_init"),
    ], ids=["narx-flags0", "narx-flags1", "elman-flags2", "ffnn-du", "narx-elman-mode",
            "narx-context-init"])
    def test_bad_family_options_are_usage_errors(self, tmp_path, capsys, family, flags, message):
        data = synth_file(tmp_path)
        out = tmp_path / "m.json"
        assert cli.main([
            "train", "--data", str(data), "--family", family, "--stage", "diagnosis",
            "--epochs", "3", *flags, "-o", str(out),
        ]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "compare"])
    @pytest.mark.parametrize("lr", ["inf", "nan", "0"])
    def test_learning_rate_must_be_finite_and_positive(self, tmp_path, capsys, command, lr):
        data = synth_file(tmp_path)
        out = tmp_path / "m.json"
        stage = ["--family", "ffnn", "--stage", "diagnosis", "-o", str(out)]
        assert cli.main([command, "--data", str(data), "--epochs", "3", "--lr", lr,
                         *(stage if command == "train" else [])]) == 2
        assert capsys.readouterr().err == (
            f"error: learning_rate must be finite and positive, got {float(lr)!r}\n")
        assert not out.exists()

    def test_narx_has_no_mode_flag(self, tmp_path, capsys):
        data = synth_file(tmp_path)
        out = tmp_path / "m.json"
        assert cli.main([
            "train", "--data", str(data), "--family", "narx", "--stage", "diagnosis",
            "--epochs", "3", "--narx-mode", "stream", "-o", str(out),
        ]) == 2
        assert "unrecognized arguments: --narx-mode stream" in capsys.readouterr().err
        assert not out.exists()

    def test_identical_seeds_write_identical_model_files(self, tmp_path):
        data = synth_file(tmp_path)
        blobs = []
        for name in ("one", "two"):
            model_path = tmp_path / f"{name}.json"
            curve_path = tmp_path / f"{name}.csv"
            assert cli.main([
                "train", "--data", str(data), "--family", "narx",
                "--stage", "diagnosis", "--epochs", "60", "--hidden", "8",
                "--seed", "5", "--curve", str(curve_path), "-o", str(model_path),
            ]) == 0
            blobs.append(model_path.read_bytes() + curve_path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_divergence_maps_to_numeric_exit(self, tmp_path, monkeypatch):
        data = synth_file(tmp_path)

        def explode(*args, **kwargs):
            raise TrainingDivergedError(3)

        monkeypatch.setattr(cli, "fit_stage", explode)
        code = cli.main([
            "train", "--data", str(data), "--family", "ffnn", "--stage", "diagnosis",
            "-o", str(tmp_path / "m.json"),
        ])
        assert code == 4


@pytest.fixture(scope="module")
def trained_models(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("models")
    data = synth_file(tmp_path, n=120, mix="22,30,30,38", seed=13)
    diag = tmp_path / "diag.json"
    clf = tmp_path / "clf.json"
    for stage, out in (("diagnosis", diag), ("classify", clf)):
        assert cli.main([
            "train", "--data", str(data), "--family", "ffnn", "--stage", stage,
            "--epochs", "400", "--hidden", "16", "--seed", "2", "-o", str(out),
        ]) == 0
    return data, diag, clf


class TestEval:
    def test_text_report(self, tmp_path, trained_models, capsys):
        data, diag, clf = trained_models
        assert cli.main(["eval", "-m", str(diag), "--data", str(data)]) == 0
        out = capsys.readouterr().out
        assert "diag" in out and "accuracy" in out

    def test_json_matches_text_at_display_precision(self, tmp_path, trained_models, capsys):
        data, diag, clf = trained_models
        capsys.readouterr()  # discard any fixture output
        assert cli.main(["eval", "-m", str(diag), "-m", str(clf),
                         "--data", str(data), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert cli.main(["eval", "-m", str(diag), "-m", str(clf), "--data", str(data)]) == 0
        text = capsys.readouterr().out
        assert len(doc["models"]) == 2
        for model in doc["models"]:
            assert f"{model['accuracy']:.4f}" in text

    def test_perfect_predictor_on_training_labels(self, tmp_path, trained_models, capsys):
        data, diag, _ = trained_models
        capsys.readouterr()  # discard any fixture output
        assert cli.main(["eval", "-m", str(diag), "--data", str(data),
                         "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["models"][0]["accuracy"] >= 0.95

    def test_corrupt_model_file(self, tmp_path, trained_models, capsys):
        data, _, _ = trained_models
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["eval", "-m", str(bad), "--data", str(data)]) == 3

    def test_output_file(self, tmp_path, trained_models):
        data, diag, _ = trained_models
        out = tmp_path / "report.txt"
        assert cli.main(["eval", "-m", str(diag), "--data", str(data),
                         "-o", str(out)]) == 0
        assert "accuracy" in out.read_text()


class TestPredict:
    def _unlabeled(self, tmp_path, data):
        # strip the label column by rewriting via the data API
        from hemanet.dataio import save_unlabeled_csv

        records = [item.record for item in to_records(load_csv(data))]
        path = tmp_path / "unlabeled.csv"
        save_unlabeled_csv(records, path)
        return path

    def test_text_output(self, tmp_path, trained_models, capsys):
        data, diag, clf = trained_models
        unlabeled = self._unlabeled(tmp_path, data)
        capsys.readouterr()
        assert cli.main([
            "predict", "--diagnosis", str(diag), "--classify", str(clf),
            "--data", str(unlabeled),
        ]) == 0
        out = capsys.readouterr().out
        assert out.count("#") >= 120
        assert "(p=" in out

    def test_deterministic_json_is_reproducible(self, tmp_path, trained_models):
        data, diag, clf = trained_models
        unlabeled = self._unlabeled(tmp_path, data)
        outputs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert cli.main([
                "predict", "--diagnosis", str(diag), "--classify", str(clf),
                "--data", str(unlabeled), "--format", "json",
                "--deterministic", "-o", str(out),
            ]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        doc = json.loads(outputs[0])
        assert "created" not in doc["meta"]
        assert len(doc["patients"]) == 120

    def test_csv_output(self, tmp_path, trained_models, capsys):
        data, diag, clf = trained_models
        unlabeled = self._unlabeled(tmp_path, data)
        capsys.readouterr()
        assert cli.main([
            "predict", "--diagnosis", str(diag), "--classify", str(clf),
            "--data", str(unlabeled), "--format", "csv",
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "id,verdict,subtype,raw_diagnosis,error"
        assert len(lines) == 121

    def test_timestamp_present_without_deterministic(self, tmp_path, trained_models, capsys):
        data, diag, clf = trained_models
        unlabeled = self._unlabeled(tmp_path, data)
        capsys.readouterr()
        assert cli.main([
            "predict", "--diagnosis", str(diag), "--classify", str(clf),
            "--data", str(unlabeled), "--format", "json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "created" in doc["meta"]

    def test_unknown_format(self, tmp_path, trained_models):
        data, diag, clf = trained_models
        assert cli.main([
            "predict", "--diagnosis", str(diag), "--classify", str(clf),
            "--data", str(data), "--format", "yaml",
        ]) == 2

    @pytest.mark.parametrize("deterministic", [False, True])
    @pytest.mark.parametrize("fmt", ["json", "text", "csv"])
    def test_header_only_input_keeps_the_created_stamp(self, tmp_path, trained_models, capsys,
                                                       fmt, deterministic):
        _, diag, clf = trained_models
        empty = tmp_path / "empty.csv"
        save_unlabeled_csv([], empty)
        capsys.readouterr()
        assert cli.main([
            "predict", "--diagnosis", str(diag), "--classify", str(clf),
            "--data", str(empty), "--format", fmt, *(["--deterministic"] * deterministic),
        ]) == 0
        out = capsys.readouterr().out
        if fmt == "json":
            doc = json.loads(out)
            assert doc["patients"] == []
            assert ("created" in doc["meta"]) is not deterministic
        elif fmt == "text":
            created = [line for line in out.splitlines() if line.startswith("# created: ")]
            assert len(created) == (0 if deterministic else 1)
        else:  # the CSV report never carries a stamp
            assert out.splitlines() == ["id,verdict,subtype,raw_diagnosis,error"]


class TestThresholdFlag:
    BAD = ["nan", "inf", "7", "-0.5"]

    @pytest.mark.parametrize("value", BAD)
    def test_predict_rejects(self, tmp_path, trained_models, capsys, value):
        data, diag, clf = trained_models
        assert cli.main([
            "predict", "--diagnosis", str(diag), "--classify", str(clf),
            "--data", str(data), "--threshold", value,
        ]) == 2
        assert "threshold" in capsys.readouterr().err

    @pytest.mark.parametrize("value", BAD)
    def test_eval_rejects(self, tmp_path, trained_models, value):
        data, diag, _ = trained_models
        assert cli.main(["eval", "-m", str(diag), "--data", str(data),
                         "--threshold", value]) == 2

    @pytest.mark.parametrize("value", BAD)
    def test_compare_rejects_before_training(self, tmp_path, trained_models, value):
        data, _, _ = trained_models
        assert cli.main(["compare", "--data", str(data), "--threshold", value]) == 2


def test_predict_with_non_finite_model_reports_errors(tmp_path, trained_models, capsys):
    # The loader refuses a model file holding NaN, so predict stops with a
    # data error before any verdict; in-memory non-finite outputs become
    # error entries (tests/test_pipeline.py::TestNonFiniteOutputs).
    data, _, clf = trained_models
    records = load_csv(data)
    config = TrainConfig(epochs=5, hidden_size=4)
    bundle, _ = fit_stage(records, "elman", "diagnosis", config)
    bundle.net.param_arrays()[1][0, 0] = np.nan
    diag = tmp_path / "nan_diag.json"
    diag.write_text(json.dumps(bundle_to_doc(bundle)))
    unlabeled = tmp_path / "unlabeled.csv"
    save_unlabeled_csv([item.record for item in to_records(records)], unlabeled)
    out = tmp_path / "report.json"
    capsys.readouterr()
    assert cli.main([
        "predict", "--diagnosis", str(diag), "--classify", str(clf),
        "--data", str(unlabeled), "--format", "json", "--deterministic", "-o", str(out),
    ]) == 3
    assert "non-finite number NaN" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["predict", "eval"])
def test_stream_mode_narx_model_file_is_a_data_error(tmp_path, trained_models, capsys,
                                                      command):
    data, _, clf = trained_models
    records = load_csv(data)
    unlabeled = tmp_path / "unlabeled.csv"
    save_unlabeled_csv([item.record for item in to_records(records)], unlabeled)
    bundle, _ = fit_stage(records, "narx", "diagnosis", TrainConfig(epochs=3, hidden_size=4),
                          d_u=1, d_y=2)
    doc = bundle_to_doc(bundle)
    diag, out = tmp_path / "narx.json", tmp_path / "out.txt"
    argv = (["predict", "--diagnosis", str(diag), "--classify", str(clf),
             "--data", str(unlabeled)] if command == "predict"
            else ["eval", "-m", str(diag), "--data", str(data)])
    for mode, code in (("per-record", 0), ("stream", 3)):
        doc["delays"]["mode"] = mode
        diag.write_text(json.dumps(doc))
        out.unlink(missing_ok=True)
        capsys.readouterr()
        assert cli.main([*argv, "-o", str(out)]) == code
        assert out.exists() is (code == 0)
    assert capsys.readouterr().err == (
        f"data error: {diag}: inconsistent model file: "
        "NARX delays.mode must be 'per-record', got 'stream'\n")


@pytest.mark.parametrize("command", ["predict", "eval"])
def test_model_file_relabeled_to_another_family_is_a_data_error(tmp_path, trained_models,
                                                                capsys, command):
    data, _, clf = trained_models
    records = load_csv(data)
    unlabeled = tmp_path / "unlabeled.csv"
    save_unlabeled_csv([item.record for item in to_records(records)], unlabeled)
    bundle, _ = fit_stage(records, "elman", "diagnosis", TrainConfig(epochs=3, hidden_size=4))
    diag, out = tmp_path / "elman.json", tmp_path / "out.txt"
    diag.write_text(json.dumps({**bundle_to_doc(bundle), "family": "ffnn"}))
    argv = (["predict", "--diagnosis", str(diag), "--classify", str(clf),
             "--data", str(unlabeled)] if command == "predict"
            else ["eval", "-m", str(diag), "--data", str(data)])
    capsys.readouterr()
    assert cli.main([*argv, "-o", str(out)]) == 3
    assert not out.exists()
    assert capsys.readouterr().err == (
        f"data error: {diag}: inconsistent model file: ffnn models store no recurrent.weights\n")


class TestHostileFiles:
    """Whatever bytes a model, ranges or data file holds, the CLI exits 3 with
    one "data error" line that names the file, never a traceback."""

    def _exits_3_naming(self, capsys, argv, path, what):
        capsys.readouterr()
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {path}: {what}") and err.count("\n") == 1

    @pytest.mark.parametrize("content", ["[" * 200_000, None], ids=["nesting", "digits"])
    def test_predict_model_file(self, tmp_path, trained_models, capsys, content):
        data, diag, clf = trained_models
        bad = tmp_path / "bad.json"
        if content is None:  # a 5 000-digit integer in train_meta
            doc = json.loads(diag.read_text())
            text = json.dumps({**doc, "train_meta": {"seed": "@"}})
            content = text.replace('"@"', "7" * 5000)
        bad.write_text(content)
        self._exits_3_naming(capsys, ["predict", "--diagnosis", str(bad), "--classify",
                                      str(clf), "--data", str(data)],
                             bad, "not a valid model file")

    @pytest.mark.parametrize("fault", ["stream", "nan"])
    def test_eval_names_the_bad_model_file(self, tmp_path, trained_models, capsys, fault):
        data, good, _ = trained_models
        bundle, _ = fit_stage(load_csv(data), "narx", "diagnosis",
                              TrainConfig(epochs=1, hidden_size=4), d_u=1, d_y=2)
        doc = bundle_to_doc(bundle)
        if fault == "stream":
            doc["delays"]["mode"] = "stream"
            text, what = json.dumps(doc), "inconsistent model file: NARX delays.mode"
        else:
            text = json.dumps({**doc, "train_meta": {"seed": "@"}}).replace('"@"', "NaN")
            what = "non-finite number NaN in model file"
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        self._exits_3_naming(capsys, ["eval", "-m", str(good), "-m", str(bad),
                                      "--data", str(data)], bad, what)

    @pytest.mark.parametrize("content", ["[" * 200_000, '{"mcv_high": ' + "9" * 5000 + "}"],
                             ids=["nesting", "digits"])
    def test_synth_ranges_file(self, tmp_path, monkeypatch, capsys, content):
        ranges = tmp_path / "ranges.json"
        ranges.write_text(content)
        monkeypatch.setenv("HEMANET_RANGES", str(ranges))
        out = tmp_path / "out.csv"
        self._exits_3_naming(capsys, ["synth", "-n", "4", "--mix", "1,1,1,1", "-o", str(out)],
                             ranges, "not a valid JSON file")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["predict", "eval", "train"])
    def test_non_utf8_data_file(self, tmp_path, trained_models, capsys, command):
        data, diag, clf = trained_models
        bad = tmp_path / "bad.csv"
        bad.write_bytes(data.read_bytes().replace(b"female", b"f\xe9male", 1))
        argv = {
            "predict": ["predict", "--diagnosis", str(diag), "--classify", str(clf)],
            "eval": ["eval", "-m", str(diag)],
            "train": ["train", "--family", "ffnn", "--stage", "diagnosis",
                      "-o", str(tmp_path / "m.json")],
        }[command]
        self._exits_3_naming(capsys, [*argv, "--data", str(bad)], bad, "not UTF-8 text")


def test_eval_with_non_finite_outputs_is_numeric_failure(tmp_path, trained_models,
                                                         monkeypatch, capsys):
    data, _, _ = trained_models
    records = load_csv(data)
    bundle, _ = fit_stage(records, "elman", "diagnosis", TrainConfig(epochs=5, hidden_size=4))
    path = tmp_path / "elman_diag.json"
    save_model(bundle, path)

    def load_with_nan(p):
        loaded = load_model(p)
        loaded.net.param_arrays()[1][0, 0] = np.nan
        return loaded

    monkeypatch.setattr(cli, "load_model", load_with_nan)
    capsys.readouterr()
    assert cli.main(["eval", "-m", str(path), "--data", str(data)]) == 4
    err = capsys.readouterr().err
    assert f"elman:{path}" in err and f"on {len(records)} of {len(records)} rows" in err


def test_predict_csv_names_the_error(tmp_path, trained_models, capsys):
    data, diag, clf = trained_models
    unlabeled = tmp_path / "unlabeled.csv"
    records = [item.record for item in to_records(load_csv(data))][:3]
    records[1] = CbcRecord(**{**records[1].__dict__, "hgb": float("nan"), "age": 300})
    save_unlabeled_csv(records, unlabeled)
    capsys.readouterr()
    assert cli.main(["predict", "--diagnosis", str(diag), "--classify", str(clf),
                     "--data", str(unlabeled), "--format", "csv"]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[0] == ["id", "verdict", "subtype", "raw_diagnosis", "error"]
    assert rows[2] == ["1", "", "", "", "age out of [0, 120]; hgb must be finite"]
    assert rows[1][4] == rows[3][4] == "" and rows[1][1] in ("0", "1")


def _paper_mix_file(tmp_path, edit=None):
    """synth -n 230 --seed 7 with the paper's class mix; ``edit`` = (row, column, cell)."""
    path = synth_file(tmp_path, "paper.csv", n=230, mix="41,62,61,66", seed=7)
    if edit is not None:
        rows = list(csv.reader(path.read_text().splitlines()))
        row, column, cell = edit
        rows[row][rows[0].index(column)] = cell
        path.write_text("\n".join(",".join(r) for r in rows) + "\n")
    return path


@pytest.mark.parametrize("column,cell,violation", [
    ("mcv", "1e9", "mcv out of [50, 150]"),
    ("hgb", "nan", "hgb must be finite"),
])
def test_implausible_labeled_row_is_a_data_error(tmp_path, trained_models, capsys,
                                                 column, cell, violation):
    # Before labeled rows were validated, mcv=1e9 trained and compared with
    # exit 0, and hgb=nan trained every epoch or exited 4.
    _, diag, _ = trained_models
    path = _paper_mix_file(tmp_path, (17, column, cell))
    commands = [
        ["train", "--data", str(path), "--family", "ffnn", "--stage", "diagnosis",
         "--epochs", "3", "-o", str(tmp_path / "m.json")],
        ["compare", "--data", str(path), "--epochs", "3"],
        ["eval", "-m", str(diag), "--data", str(path)],
    ]
    capsys.readouterr()
    for argv in commands:
        assert cli.main(argv) == 3, argv[0]
        assert f"1 invalid row(s): row 17 ({violation})" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


TOKENS = ["nan", "inf", "-inf", "1e308", "-5", "0", "", "4_2", "robot", "sideways",
          "male", "microcytic", "60", "13.5"]


def _expected_faults(row):
    """(record cells unparsable, record invalid, labeled row refused) for one CSV row."""
    try:
        record = CbcRecord(int(row[0]), Gender(row[1].strip().lower()),
                           *(float(cell) for cell in row[2:9]))
    except ValueError:
        return True, True, True
    invalid = bool(validate_record(record))
    label_fault = row[9].strip().lower() not in {label.value for label in AnemiaLabel}
    return False, invalid, invalid or label_fault


@pytest.fixture(scope="module")
def small_models(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("small")
    data = synth_file(tmp_path, n=24, mix="4,6,6,8", seed=21)
    models = []
    for stage in ("diagnosis", "classify"):
        models.append(tmp_path / f"{stage}.json")
        assert cli.main(["train", "--data", str(data), "--family", "elman", "--stage", stage,
                         "--epochs", "20", "--hidden", "4", "-o", str(models[-1])]) == 0
    return data, *models


@given(row=st.integers(0, 23), column=st.integers(0, 9), token=st.sampled_from(TOKENS))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_one_bad_cell_never_gives_a_verdict_or_a_traceback(tmp_path, small_models, capsys,
                                                           row, column, token):
    data, diag, clf = small_models
    rows = list(csv.reader(data.read_text().splitlines()))
    rows[row + 1][column] = token
    path = tmp_path / "mutated.csv"
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")
    unparsable, invalid, refused = _expected_faults(rows[row + 1])
    out = tmp_path / "out.json"

    code = cli.main(["predict", "--diagnosis", str(diag), "--classify", str(clf),
                     "--data", str(path), "--format", "json", "--deterministic",
                     "-o", str(out)])
    if unparsable:
        assert code == 3
    else:
        assert code == 0
        patients = json.loads(out.read_text())["patients"]
        assert len(patients) == 24
        for i, patient in enumerate(patients):
            if i == row and invalid:
                assert "verdict" not in patient and patient["error"]
            else:
                assert "error" not in patient
                raw = [patient["raw"]["diagnosis"], *patient["raw"].get("classify", [])]
                assert all(math.isfinite(v) for v in raw)

    for argv in (["eval", "-m", str(diag), "-m", str(clf), "--data", str(path),
                  "-o", str(tmp_path / "eval.txt")],
                 ["train", "--data", str(path), "--family", "narx", "--stage", "classify",
                  "--epochs", "3", "--hidden", "3", "-o", str(tmp_path / "m.json")]):
        assert cli.main(argv) == (3 if refused else 0), argv[0]
    capsys.readouterr()


@pytest.mark.parametrize("update_mode", ["full-batch", "per-sample"])
@pytest.mark.parametrize("family", ["ffnn", "elman", "narx"])
def test_train_parameter_divergence_is_numeric_failure(tmp_path, monkeypatch, capsys,
                                                       family, update_mode):
    # A finite loss with an infinite gradient: the parameters, not the loss,
    # go non-finite, and no model file is written.
    def inf_grads(self, X, T, workspace):
        workspace.grad.fill(np.inf)
        return 0.25, workspace.grads

    monkeypatch.setattr(Network, "batch_loss_and_grads", inf_grads)
    data = synth_file(tmp_path, n=20, mix="4,4,4,8", seed=3)
    out = tmp_path / "model.json"
    assert cli.main([
        "train", "--data", str(data), "--family", family, "--stage", "diagnosis",
        "--epochs", "3", "--hidden", "4", "--update-mode", update_mode, "-o", str(out),
    ]) == 4
    assert "non-finite parameters at epoch 1" in capsys.readouterr().err
    assert not out.exists()


class TestGradcheck:
    @pytest.mark.parametrize("family", ["ffnn", "elman", "narx"])
    def test_families_pass(self, family, capsys):
        assert cli.main(["gradcheck", "--family", family, "--trials", "3"]) == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "family,mode",
        [("elman", "feature-sequence")],
    )
    def test_alternate_modes_pass(self, family, mode, capsys):
        assert cli.main(["gradcheck", "--family", family, "--mode", mode,
                         "--trials", "3"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_coarse_epsilon_still_passes(self, capsys):
        assert cli.main(["gradcheck", "--family", "ffnn", "--epsilon", "1e-3",
                         "--trials", "3"]) == 0

    def test_invalid_mode_for_family(self, capsys):
        assert cli.main(["gradcheck", "--family", "ffnn", "--mode", "stream"]) == 2

    @pytest.mark.parametrize("mode", ["per-record", "stream"])
    def test_narx_takes_no_mode(self, capsys, mode):
        assert cli.main(["gradcheck", "--family", "narx", "--mode", mode]) == 2
        assert f"mode {mode!r} is not valid for family 'narx'" in capsys.readouterr().err

    def test_unknown_family(self):
        assert cli.main(["gradcheck", "--family", "lstm"]) == 2

    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_no_trials_is_usage_error(self, trials, capsys):
        assert cli.main(["gradcheck", "--family", "ffnn", "--trials", trials]) == 2
        assert "--trials must be at least 1" in capsys.readouterr().err


class TestCompare:
    def test_report_and_curves(self, tmp_path, capsys):
        data = synth_file(tmp_path, n=100, mix="18,26,26,30", seed=17)
        curves = tmp_path / "curves"
        report = tmp_path / "report.txt"
        code = cli.main([
            "compare", "--data", str(data), "--seed", "3",
            "--epochs", "80", "--hidden", "10",
            "--curves", str(curves), "-o", str(report),
        ])
        assert code == 0
        text = report.read_text()
        for family in ("ffnn", "narx", "elman"):
            assert family in text
            assert (tmp_path / f"curves_{family}.csv").exists()

    def test_identical_seeds_are_byte_identical(self, tmp_path):
        data = synth_file(tmp_path, n=100, mix="18,26,26,30", seed=17)
        artifacts = []
        for run in ("one", "two"):
            run_dir = tmp_path / run
            run_dir.mkdir()
            report = run_dir / "report.json"
            code = cli.main([
                "compare", "--data", str(data), "--seed", "8",
                "--epochs", "60", "--hidden", "8", "--format", "json",
                "--curves", str(run_dir / "c"), "-o", str(report),
            ])
            assert code == 0
            blob = report.read_bytes()
            for family in ("ffnn", "narx", "elman"):
                blob += (run_dir / f"c_{family}.csv").read_bytes()
            artifacts.append(blob)
        assert artifacts[0] == artifacts[1]

    def test_rows_in_input_order(self, tmp_path, capsys):
        data = synth_file(tmp_path, n=80, mix="14,20,22,24", seed=19)
        capsys.readouterr()
        assert cli.main([
            "compare", "--data", str(data), "--epochs", "40",
            "--hidden", "8", "--format", "json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [m["name"] for m in doc["models"]] == ["ffnn", "narx", "elman"]
        for model in doc["models"]:
            assert set(model) >= {"accuracy", "precision", "recall", "f1", "n"}

    def test_unreadable_data_is_data_error(self, tmp_path):
        assert cli.main(["compare", "--data", str(tmp_path / "nope.csv")]) == 3


def test_no_subcommand_is_usage_error():
    assert cli.main([]) == 2
