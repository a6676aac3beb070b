"""Two-stage gating, report emission, and evaluation helpers."""
import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_record, to_records
from hemanet.cli import fit_stage
from hemanet import pipeline
from hemanet.metrics import DIAGNOSIS_LABELS, ConfusionMatrix, accuracy
from hemanet.models import FAMILIES, Network, build_model
from hemanet.nncore import TrainConfig
from hemanet.pipeline import (
    NonFiniteOutputError,
    PatientReport,
    Screening,
    emit_reports,
    evaluate_classification,
    evaluate_diagnosis,
    evaluate_pipeline,
    run_pipeline,
)
from hemanet.preprocess import FULL9, Normalizer, encode, encode_batch, split_dataset
from hemanet.records import (SUBTYPES, AnemiaLabel, CbcColumns, LabeledRecord,
                             ValidationError, validate_record)
from hemanet.serialize import ModelBundle
from hemanet.synth import synth_generate


def _identity_normalizer(width=9):
    return Normalizer(mins=np.full(width, -1.0), maxs=np.full(width, 1.0))


def _constant_bundle(output_bias, out_dim=1, encoding="binary1"):
    """Zero-weight net whose output is sigmoid(bias): exact, input-independent."""
    net = Network("ffnn", [np.zeros((4, 9)), np.zeros(4), np.zeros((out_dim, 4)),
                           np.asarray(output_bias, dtype=float)], 9)
    return ModelBundle(
        family="ffnn", net=net, feature_spec=FULL9,
        output_encoding=encoding, normalizer=_identity_normalizer(),
    )


@pytest.fixture(scope="module")
def dataset():
    mix = {
        AnemiaLabel.MICROCYTIC: 22,
        AnemiaLabel.NORMOCYTIC: 30,
        AnemiaLabel.MACROCYTIC: 30,
        AnemiaLabel.NON_ANEMIC: 38,
    }
    return synth_generate(120, mix, seed=31)


@pytest.fixture(scope="module")
def trained(dataset):
    split = split_dataset(dataset, (0.6, 0.4, 0.0), seed=31)
    config = TrainConfig(epochs=500, hidden_size=20, seed=31)
    diag, _ = fit_stage(split.train, "ffnn", "diagnosis", config)
    clf, _ = fit_stage(split.train, "ffnn", "classify", config)
    return diag, clf, split


def _count_forward_rows(bundle):
    """Wrap the bundle's network forward; returns the list of row blocks it sees."""
    seen = []
    original = bundle.net.predict_batch

    def counting_forward(X, workspace=None):
        seen.append(np.array(X))
        return original(X, workspace)

    bundle.net.predict_batch = counting_forward
    return seen


def _hgb_gate_bundle(cutoff=12.5):
    """Diagnosis net whose output is >= 0.5 exactly when hgb <= cutoff."""
    hidden = np.zeros((1, 9))
    hidden[0, 3] = -1.0  # hgb; the identity normalizer leaves it unscaled
    net = Network("ffnn", [hidden, np.array([cutoff]), np.array([[20.0]]), np.array([-10.0])], 9)
    return ModelBundle(
        family="ffnn", net=net, feature_spec=FULL9,
        output_encoding="binary1", normalizer=_identity_normalizer(),
    )


def _onehot_bundle(outputs=(0.0, 0.0, 0.0)):
    return _constant_bundle(list(outputs), out_dim=3, encoding="onehot3")


def _empty_screening():
    return run_pipeline(_constant_bundle([0.0]), _onehot_bundle(), [])


class TestDiagnose:
    def test_boundary_raw_output_counts_positive(self):
        bundle = _constant_bundle([0.0])  # sigmoid(0) = 0.5 exactly
        [report] = run_pipeline(bundle, _onehot_bundle(), [make_record()], threshold=0.5)
        assert report.raw_diagnosis == 0.5
        assert report.verdict == 1

    def test_low_raw_output_is_healthy(self):
        bundle = _constant_bundle([-2.2])  # ~0.10
        [report] = run_pipeline(bundle, _onehot_bundle(), [make_record()])
        assert report.raw_diagnosis < 0.5
        assert report.verdict == 0

    def test_threshold_monotonicity(self):
        bundle = _constant_bundle([0.4])
        [low] = run_pipeline(bundle, _onehot_bundle(), [make_record()], threshold=0.3)
        [high] = run_pipeline(bundle, _onehot_bundle(), [make_record()], threshold=0.9)
        assert high.verdict <= low.verdict

    def test_invalid_record_raises(self):
        bundle = _constant_bundle([0.0])
        labeled = [LabeledRecord(make_record(hgb=-1.0), AnemiaLabel.NON_ANEMIC)]
        with pytest.raises(ValueError, match="hgb"):
            evaluate_diagnosis(bundle, labeled)

    @pytest.mark.parametrize("field, value, message", [
        ("age", None, "age must be an integer, got None"),
        ("gender", "female", "gender must be male or female, got 'female'"),
        ("rbc", True, "rbc must be a number, got True"),
        ("hgb", np.float32(12.5), "hgb must be a number, got np.float32(12.5)"),
        ("age", np.int64(40), "age must be an integer, got np.int64(40)"),
    ], ids=["none", "str", "bool", "float32", "int64-age"])
    def test_wrongly_typed_record_raises_type_error(self, field, value, message):
        records = [make_record(), make_record(**{field: value})]
        for call in (lambda: validate_record(records[1]), lambda: CbcColumns.of(records),
                     lambda: run_pipeline(_constant_bundle([0.0]), _onehot_bundle(), records)):
            with pytest.raises(TypeError) as info:
                call()
            assert str(info.value) == message

    def test_requires_binary_encoding(self):
        clf_bundle = _onehot_bundle()
        with pytest.raises(ValueError, match="binary1"):
            run_pipeline(clf_bundle, clf_bundle, [make_record()])

    def test_batch_verdicts_follow_each_row(self):
        reports = run_pipeline(_hgb_gate_bundle(), _onehot_bundle(),
                               [make_record(hgb=h) for h in (10.0, 14.0, 12.5)])
        assert [r.verdict for r in reports] == [1, 0, 1]


class TestClassify:
    def test_argmax_subtype(self):
        bundle = _onehot_bundle([2.0, -2.0, -2.0])
        [report] = run_pipeline(_constant_bundle([3.0]), bundle, [make_record()])
        assert report.subtype is AnemiaLabel.MICROCYTIC
        assert len(report.raw_classify) == 3

    def test_banded_decoding(self):
        bundle = _constant_bundle([np.log(0.49 / 0.51)], encoding="banded1")
        [report] = run_pipeline(_constant_bundle([3.0]), bundle, [make_record()])
        assert report.raw_classify[0] == pytest.approx(0.49)
        assert report.subtype is AnemiaLabel.NORMOCYTIC

    def test_requires_classification_encoding(self):
        bundle = _constant_bundle([0.0])
        with pytest.raises(ValueError, match="onehot3 or banded1"):
            run_pipeline(_constant_bundle([3.0]), bundle, [make_record()])


class TestRunPipeline:
    def test_classifier_never_runs_on_healthy_verdicts(self):
        diag = _constant_bundle([-3.0])  # everyone healthy
        clf = _constant_bundle([0.0, 0.0, 0.0], out_dim=3, encoding="onehot3")
        seen = _count_forward_rows(clf)
        reports = run_pipeline(diag, clf, [make_record() for _ in range(6)])
        assert all(r.verdict == 0 for r in reports)
        assert sum(len(block) for block in seen) == 0

    def test_classifier_runs_once_per_positive(self):
        diag = _constant_bundle([3.0])  # everyone anemic
        clf = _constant_bundle([0.0, 1.0, 0.0], out_dim=3, encoding="onehot3")
        seen = _count_forward_rows(clf)
        reports = run_pipeline(diag, clf, [make_record() for _ in range(5)])
        assert sum(len(block) for block in seen) == 5
        assert all(r.subtype is AnemiaLabel.NORMOCYTIC for r in reports)

    def test_classifier_sees_exactly_the_positive_rows(self):
        clf = _constant_bundle([0.0, 1.0, 0.0], out_dim=3, encoding="onehot3")
        seen = _count_forward_rows(clf)
        hgbs = [10.0, 14.0, -1.0, 11.0, 15.0, 12.0]  # -1 is invalid
        records = [make_record(hgb=h, mcv=80.0 + i) for i, h in enumerate(hgbs)]
        reports = run_pipeline(_hgb_gate_bundle(), clf, records)
        assert [r.verdict for r in reports] == [1, 0, None, 1, 0, 1]
        assert "hgb" in reports[2].error
        positives = [records[i] for i in (0, 3, 5)]
        np.testing.assert_array_equal(np.concatenate(seen), encode_batch(positives, FULL9))
        assert [r.subtype for r in reports] == [AnemiaLabel.NORMOCYTIC, None, None,
                                               AnemiaLabel.NORMOCYTIC, None,
                                               AnemiaLabel.NORMOCYTIC]

    def test_blocks_cover_every_row_in_order(self, monkeypatch):
        monkeypatch.setattr(pipeline, "FORWARD_BLOCK_ROWS", 2)
        clf = _constant_bundle([0.0, 1.0, 0.0], out_dim=3, encoding="onehot3")
        seen = _count_forward_rows(clf)
        hgbs = [10.0, 11.0, 14.0, 12.0, 9.0, 15.0, 8.0]
        records = [make_record(hgb=h) for h in hgbs]
        reports = run_pipeline(_hgb_gate_bundle(), clf, records)
        assert [r.verdict for r in reports] == [1, 1, 0, 1, 1, 0, 1]
        assert [len(block) for block in seen] == [2, 2, 1]
        positives = [r for r, h in zip(records, hgbs) if h <= 12.5]
        np.testing.assert_array_equal(np.concatenate(seen), encode_batch(positives, FULL9))

    def test_order_and_length_preserved(self, trained):
        diag, clf, split = trained
        records = [item.record for item in to_records(split.test)]
        reports = run_pipeline(diag, clf, records)
        assert [r.patient_id for r in reports] == list(range(len(records)))

    def test_bad_record_is_isolated(self):
        diag = _constant_bundle([3.0])
        clf = _constant_bundle([0.0, 0.0, 0.0], out_dim=3, encoding="onehot3")
        bad = make_record(hgb=-1.0)
        reports = run_pipeline(diag, clf, [make_record(), bad, make_record()])
        assert len(reports) == 3
        assert reports[0].error is None and reports[2].error is None
        assert "hgb" in reports[1].error
        assert reports[1].verdict is None

    def test_healthy_reports_carry_no_subtype(self):
        diag = _constant_bundle([-3.0])
        clf = _constant_bundle([0.0, 0.0, 0.0], out_dim=3, encoding="onehot3")
        for report in run_pipeline(diag, clf, [make_record()]):
            assert report.verdict == 0
            assert report.subtype is None
            assert report.raw_classify is None

    def test_columns_and_record_lists_screen_alike(self, trained):
        diag, clf, split = trained
        records = [item.record for item in to_records(split.test)]
        records[3] = make_record(hgb=float("nan"), age=300)
        from_list = run_pipeline(diag, clf, records)
        from_columns = run_pipeline(diag, clf, CbcColumns.of(records))
        assert list(from_columns) == list(from_list)
        assert from_list[3].error == "age out of [0, 120]; hgb must be finite"

    def test_only_bad_rows_are_listed_by_validate_records(self, monkeypatch):
        # One pass over the batch finds the bad rows and their messages, and
        # only a bad row's messages are built.
        import hemanet.records

        calls, reads, faults = [], [], hemanet.records._faults

        class Messages(list):
            def __iter__(self):
                reads.append(1)
                return super().__iter__()

        monkeypatch.setattr(hemanet.records, "_faults",
                            lambda batch: calls.append(len(batch)) or faults(batch))
        monkeypatch.setattr(hemanet.records, "_MESSAGES", Messages(hemanet.records._MESSAGES))
        reports = run_pipeline(_hgb_gate_bundle(), _onehot_bundle(),
                               [make_record(), make_record(hgb=9.0)])
        assert (calls, reads) == ([2], [])
        assert [r.error for r in reports] == [None, None]
        records = [make_record(), make_record(hgb=-1.0), make_record(), make_record(age=300)]
        reports = run_pipeline(_hgb_gate_bundle(), _onehot_bundle(), records)
        assert (calls, reads) == ([2, 4], [1, 1])
        assert [r.error for r in reports] == [None, "hgb must be positive", None,
                                             "age out of [0, 120]"]


class TestScreening:
    def _screening(self):
        records = [make_record(hgb=h) for h in (10.0, 14.0, -1.0, 12.0)]
        return run_pipeline(_hgb_gate_bundle(), _onehot_bundle([0.0, 1.0, 0.0]), records)

    def test_columns(self):
        screening = self._screening()
        np.testing.assert_array_equal(screening.verdict, [1, 0, pipeline.ERROR, 1])
        assert screening.verdict.dtype == np.int8
        assert screening.raw_classify.shape == (4, 3)
        assert np.isnan(screening.raw_classify[[1, 2]]).all()
        assert screening.error.tolist() == [None, None, "hgb must be positive", None]

    def test_rows_are_built_on_demand(self):
        screening = self._screening()
        assert len(screening) == 4
        assert screening[-1] == screening[3]
        assert screening[1:3] == [screening[1], screening[2]]
        assert list(screening) == [screening[i] for i in range(4)]
        assert screening[2] == PatientReport(2, error="hgb must be positive")
        assert screening[0].subtype is AnemiaLabel.NORMOCYTIC
        with pytest.raises(IndexError):
            screening[4]

    @pytest.mark.parametrize("fmt", ["json", "text", "csv"])
    def test_report_ids_are_row_numbers(self, fmt):
        records = [make_record(hgb=h) for h in (-1.0, -1.0, 10.0, 14.0, -1.0, 12.0)]
        screening = run_pipeline(_hgb_gate_bundle(), _onehot_bundle([0.0, 1.0, 0.0]), records)
        report = emit_reports(screening, fmt, ["d", "c"], 0.5, "2026-01-01T00:00:00+00:00")
        if fmt == "json":
            ids = [p["id"] for p in json.loads(report)["patients"]]
        elif fmt == "text":
            ids = [int(line[1:line.index(":")]) for line in report.splitlines()[4:]]
        else:
            ids = [int(row[0]) for row in list(csv.reader(io.StringIO(report)))[1:]]
        assert ids == list(range(len(records)))
        assert [r.patient_id for r in screening] == ids

    def test_non_finite_float_columns_render_as_json_dumps(self):
        screening = Screening(
            verdict=np.array([0, 1, 1], np.int8),
            raw_diagnosis=np.array([np.inf, 0.75, np.nan]), subtype=np.array([0, 1, 2]),
            raw_classify=np.array([[np.nan] * 3, [0.1, np.nan, -np.inf], [0.2, 0.3, 0.5]]),
            error=np.full(3, None, object))
        assert emit_reports(screening, "json") == reference_json(screening, (), 0.5, None)


class TestNonFiniteOutputs:
    def _nan_elman(self, encoding="binary1"):
        net = build_model("elman", 9, 4, 3 if encoding == "onehot3" else 1, seed=5)
        net.param_arrays()[1][0, 0] = np.nan
        return ModelBundle("elman", net, FULL9, encoding, _identity_normalizer())

    def test_diagnose_gives_no_verdict(self):
        [report] = run_pipeline(self._nan_elman(), _onehot_bundle(), [make_record()])
        assert report.verdict is None

    def test_nan_diagnosis_becomes_error_entries(self):
        clf = _constant_bundle([0.0, 1.0, 0.0], out_dim=3, encoding="onehot3")
        seen = _count_forward_rows(clf)
        records = [make_record(), make_record(hgb=9.0), make_record(hgb=-1.0)]
        reports = run_pipeline(self._nan_elman(), clf, records)
        for report in reports[:2]:
            assert report.error == "non-finite diagnosis output"
            assert report.verdict is None and report.raw_diagnosis is None
        assert "hgb" in reports[2].error
        assert sum(len(block) for block in seen) == 0

    def test_nan_classification_becomes_error_entry(self):
        clf = self._nan_elman("onehot3")
        reports = run_pipeline(_hgb_gate_bundle(), clf,
                               [make_record(hgb=10.0), make_record(hgb=14.0)])
        assert reports[0].error == "non-finite classification output"
        assert reports[0].verdict is None and reports[0].subtype is None
        assert reports[0].raw_diagnosis is None and reports[0].raw_classify is None
        assert reports[1].verdict == 0 and reports[1].error is None

    @pytest.mark.parametrize("fmt", ["json", "text", "csv"])
    def test_screening_renders_as_its_rows(self, fmt):
        # Both error kinds in one batch: invalid rows, and positives whose
        # classification output is NaN; a clean classifier too, with and
        # without a created stamp.
        records = [make_record(hgb=h) for h in (10.0, 14.0, -1.0, 11.0, 15.0, 9.0)]
        records.append(make_record(hgb=float("nan"), age=300))
        runs = [
            run_pipeline(_hgb_gate_bundle(), self._nan_elman("onehot3"), records),
            run_pipeline(self._nan_elman(), _onehot_bundle(), records),
            run_pipeline(_hgb_gate_bundle(), _onehot_bundle([1.0, -1.0, 3.0]), records),
        ]
        stamps = ["2026-01-01T00:00:00+00:00"] * 2 + [None]
        for screening, created in zip(runs, stamps):
            assert (emit_reports(screening, fmt, ["d", "c"], 0.5, created)
                    == REFERENCES[fmt](list(screening), ["d", "c"], 0.5, created))
        assert {r.error for r in runs[0]} >= {"non-finite classification output",
                                              "hgb must be positive"}

    def test_pipeline_evaluation_refuses_non_finite_outputs(self):
        labeled = synth_generate(12, {AnemiaLabel.MICROCYTIC: 5,
                                      AnemiaLabel.NON_ANEMIC: 7}, seed=42)
        clf = _constant_bundle([0.0, 1.0, 0.0], out_dim=3, encoding="onehot3")
        with pytest.raises(NonFiniteOutputError, match=r"elman:<memory>.* on 12 of 12 rows"):
            evaluate_pipeline(self._nan_elman(), clf, labeled)
        with pytest.raises(NonFiniteOutputError, match=r" on 5 of 12 rows"):
            evaluate_pipeline(_hgb_gate_bundle(), self._nan_elman("onehot3"), labeled)

    def test_evaluation_refuses_non_finite_outputs(self):
        # eval and compare must not score a NaN output as healthy.
        labeled = synth_generate(12, {AnemiaLabel.MICROCYTIC: 5,
                                      AnemiaLabel.NON_ANEMIC: 7}, seed=42)
        with pytest.raises(NonFiniteOutputError,
                           match=r"elman:<memory>.* on 12 of 12 rows"):
            evaluate_diagnosis(self._nan_elman(), labeled)
        with pytest.raises(NonFiniteOutputError,
                           match=r"elman:<memory>.* on 5 of 5 rows"):
            evaluate_classification(self._nan_elman("onehot3"), labeled)


class TestThreshold:
    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -0.1, 7.0])
    def test_out_of_range_threshold_rejected(self, threshold):
        diag = _constant_bundle([0.0])
        clf = _constant_bundle([0.0, 0.0, 0.0], out_dim=3, encoding="onehot3")
        labeled = synth_generate(4, {AnemiaLabel.NON_ANEMIC: 4}, seed=41)
        with pytest.raises(ValueError, match="threshold"):
            run_pipeline(diag, clf, [make_record()], threshold=threshold)
        with pytest.raises(ValueError, match="threshold"):
            run_pipeline(diag, clf, [], threshold=threshold)
        with pytest.raises(ValueError, match="threshold"):
            evaluate_diagnosis(diag, labeled, threshold)

    def test_interval_ends_accepted(self):
        diag = _constant_bundle([0.0])  # raw 0.5
        clf = _constant_bundle([0.0, 0.0, 0.0], out_dim=3, encoding="onehot3")
        assert run_pipeline(diag, clf, [make_record()], threshold=0.0)[0].verdict == 1
        assert run_pipeline(diag, clf, [make_record()], threshold=1.0)[0].verdict == 0


@pytest.fixture(scope="module")
def family_bundles(dataset):
    config = TrainConfig(epochs=150, hidden_size=10, seed=33)
    return {
        family: tuple(fit_stage(dataset, family, stage, config)[0]
                      for stage in ("diagnosis", "classify"))
        for family in FAMILIES
    }


class TestPredictEvalAgreement:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_pipeline_matches_evaluation_bit_for_bit(self, monkeypatch, dataset,
                                                     family_bundles, family):
        diag, clf = family_bundles[family]
        outputs, preds = [], []
        bundle_outputs = pipeline._bundle_outputs

        def recording_outputs(bundle, records):
            outputs.append(bundle_outputs(bundle, records))
            return outputs[-1]

        class RecordingMatrix(ConfusionMatrix):
            @classmethod
            def from_codes(cls, truths, predictions, labels):
                preds.extend(labels[code] for code in np.asarray(predictions, int).tolist())
                return super().from_codes(truths, predictions, labels)

        monkeypatch.setattr(pipeline, "_bundle_outputs", recording_outputs)
        monkeypatch.setattr(pipeline, "ConfusionMatrix", RecordingMatrix)
        evaluate_diagnosis(diag, dataset)
        [eval_outputs] = outputs
        reports = run_pipeline(diag, clf, [item.record for item in dataset])
        assert [r.raw_diagnosis for r in reports] == eval_outputs[:, 0].tolist()
        assert [DIAGNOSIS_LABELS[r.verdict] for r in reports] == preds
        assert set(preds) == set(DIAGNOSIS_LABELS)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_blocked_outputs_match_per_record_reference(self, monkeypatch, dataset,
                                                        family_bundles, family):
        monkeypatch.setattr(pipeline, "FORWARD_BLOCK_ROWS", 7)
        for bundle in family_bundles[family]:
            records = [item.record for item in dataset]
            blocked = pipeline._bundle_outputs(bundle, records)
            reference = np.array([
                bundle.net.forward(bundle.normalizer.apply(encode(r, bundle.feature_spec)))
                for r in records
            ])
            # Float64 rounding of dot products over at most 10 hidden units.
            np.testing.assert_allclose(blocked, reference, rtol=0, atol=1e-13)


class TestEmitReports:
    def _reports(self):
        clf = _constant_bundle([2.0, -1.0, -1.0], out_dim=3, encoding="onehot3")
        records = [make_record(hgb=12.95), make_record(hgb=12.05), make_record(hgb=-1.0)]
        return run_pipeline(_hgb_gate_bundle(), clf, records)

    def test_text_format(self):
        text = emit_reports(self._reports(), "text", model_files=["d.json", "c.json"])
        lines = text.splitlines()
        assert lines[0].startswith("#")
        assert "# models: d.json c.json" in lines
        assert "# threshold: 0.5" in lines
        assert "#0: NON-ANEMIC (p=0.10)" in lines
        assert "#1: MICROCYTIC (p=0.90)" in lines
        assert any(line.startswith("#2: ERROR (") for line in lines)

    def test_json_round_trip(self):
        reports = self._reports()
        doc = json.loads(emit_reports(reports, "json", model_files=["d.json"], threshold=0.5))
        assert doc["meta"]["model_files"] == ["d.json"]
        assert doc["meta"]["threshold"] == 0.5
        assert "created" not in doc["meta"]
        patients = doc["patients"]
        assert [p["id"] for p in patients] == [0, 1, 2]
        assert patients[0]["verdict"] == 0 and "subtype" not in patients[0]
        assert patients[1]["verdict"] == 1 and patients[1]["subtype"] == "microcytic"
        assert len(patients[1]["raw"]["classify"]) == 3
        assert "error" in patients[2] and "verdict" not in patients[2]
        assert patients[0]["raw"]["diagnosis"] == reports[0].raw_diagnosis

    def test_csv_format(self):
        lines = emit_reports(self._reports(), "csv").splitlines()
        assert lines[0] == "id,verdict,subtype,raw_diagnosis,error"
        assert lines[1].startswith("0,0,,") and lines[1].endswith(",")
        assert lines[2].startswith("1,1,microcytic,") and lines[2].endswith(",")
        assert lines[3] == "2,,,,hgb must be positive"

    def test_empty_reports_keep_header(self):
        text = emit_reports(_empty_screening(), "text", model_files=["m.json"], threshold=0.4)
        assert "# threshold: 0.4" in text
        doc = json.loads(emit_reports(_empty_screening(), "json"))
        assert doc["patients"] == []

    def test_created_included_when_given(self):
        doc = json.loads(emit_reports(_empty_screening(), "json",
                                      created="2026-01-01T00:00:00+00:00"))
        assert doc["meta"]["created"] == "2026-01-01T00:00:00+00:00"

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="format"):
            emit_reports(_empty_screening(), "xml")

    def test_identical_runs_render_identically(self):
        diag = _constant_bundle([1.0])
        clf = _constant_bundle([0.0, 2.0, 0.0], out_dim=3, encoding="onehot3")
        records = [make_record(), make_record(hgb=10.0)]
        a = emit_reports(run_pipeline(diag, clf, records), "json")
        b = emit_reports(run_pipeline(diag, clf, records), "json")
        assert a == b


def reference_json(reports, model_files, threshold, created):
    """The report as json.dumps writes it with indent=1."""
    def patient(r):
        if r.error is not None:
            return {"id": r.patient_id, "error": r.error}
        doc = {"id": r.patient_id, "verdict": r.verdict, "raw": {"diagnosis": r.raw_diagnosis}}
        if r.verdict == 1:
            doc["subtype"] = r.subtype.value
            doc["raw"]["classify"] = r.raw_classify
        return doc

    meta = {"model_files": [str(m) for m in model_files], "threshold": threshold,
            **({"created": created} if created else {})}
    return json.dumps({"meta": meta, "patients": [patient(r) for r in reports]}, indent=1) + "\n"


def reference_text(reports, model_files, threshold, created):
    """The text report, one line per row."""
    lines = ["# anemia screening report"]
    if model_files:
        lines.append(f"# models: {' '.join(str(m) for m in model_files)}")
    lines.append(f"# threshold: {threshold:g}")
    if created:
        lines.append(f"# created: {created}")
    for r in reports:
        if r.error is not None:
            lines.append(f"#{r.patient_id}: ERROR ({r.error})")
        else:
            label = "NON-ANEMIC" if r.verdict == 0 else r.subtype.value.upper()
            lines.append(f"#{r.patient_id}: {label} (p={r.raw_diagnosis:.2f})")
    return "\n".join(lines) + "\n"


def reference_csv(reports, model_files, threshold, created):
    """The CSV report, one csv.writer row per row; it carries no metadata."""
    writer = csv.writer(out := io.StringIO())
    writer.writerow(["id", "verdict", "subtype", "raw_diagnosis", "error"])
    for r in reports:
        writer.writerow([r.patient_id, r.verdict, None if r.subtype is None else r.subtype.value,
                         None if r.raw_diagnosis is None else repr(r.raw_diagnosis), r.error])
    return out.getvalue()


REFERENCES = {"json": reference_json, "text": reference_text, "csv": reference_csv}

messages = st.one_of(st.text(), st.just('q"uote\\ \x00\x1f\u00e9\u2028\U0001f600'))
outputs = st.one_of(st.floats(0.0, 1.0), st.floats())


@st.composite
def screenings(draw):
    """A Screening with error, healthy and positive rows in any order, and a
    classify width of 1 or 3."""
    extra = draw(st.lists(st.sampled_from([pipeline.ERROR, 0, 1]), max_size=6))
    verdict = np.array(draw(st.permutations([pipeline.ERROR, 0, 1, *extra])), np.int8)
    n, width = len(verdict), draw(st.sampled_from([1, 3]))

    def column(values, size=n):
        return draw(st.lists(values, min_size=size, max_size=size))

    return Screening(
        verdict=verdict,
        raw_diagnosis=np.array(column(outputs), float),
        subtype=np.array(column(st.integers(0, len(SUBTYPES) - 1)), np.intp),
        raw_classify=np.array(column(outputs, n * width), float).reshape(n, width),
        error=np.array([draw(messages) if v == pipeline.ERROR else None
                        for v in verdict.tolist()], object),
    )


class TestJsonWriter:
    @given(screenings(), st.floats(0.0, 1.0), st.one_of(st.none(), st.just(""), st.text()),
           st.lists(st.text(max_size=6), max_size=2))
    @settings(max_examples=60, deadline=None)
    def test_bytes_equal_json_dumps_indent_1(self, screening, threshold, created, files):
        expected = reference_json(screening, files, threshold, created)
        assert emit_reports(screening, "json", files, threshold, created) == expected

    def test_empty_report(self):
        for created in (None, "2026-01-01T00:00:00+00:00"):
            assert emit_reports(_empty_screening(), "json", ["d.json"], 0.5,
                                created) == reference_json([], ["d.json"], 0.5, created)

    def test_pipeline_reports(self, trained):
        diag, clf, split = trained
        records = [item.record for item in to_records(split.test)] + [make_record(hgb=-1.0)]
        reports = run_pipeline(diag, clf, records)
        assert emit_reports(reports, "json", ["d", "c"], 0.5) == reference_json(
            reports, ["d", "c"], 0.5, None)


class TestEvaluation:
    def test_trained_diagnosis_is_accurate(self, trained):
        diag, _, split = trained
        cm = evaluate_diagnosis(diag, split.test)
        assert cm.total == len(split.test)
        assert accuracy(cm) >= 0.9

    def test_trained_pipeline_four_way(self, trained):
        diag, clf, split = trained
        cm = evaluate_pipeline(diag, clf, split.test)
        assert cm.total == len(split.test)
        assert accuracy(cm) >= 0.8

    def test_classification_matrix_covers_anemic_only(self, trained):
        _, clf, split = trained
        cm = evaluate_classification(clf, split.test)
        assert cm.total == sum(1 for item in to_records(split.test) if item.label.is_anemic)

    def test_perfect_constant_predictor_on_uniform_data(self):
        records = synth_generate(10, {AnemiaLabel.NON_ANEMIC: 10}, seed=40)
        diag = _constant_bundle([-3.0])
        cm = evaluate_diagnosis(diag, records)
        assert accuracy(cm) == 1.0

    @pytest.mark.parametrize("outputs, subtype", [
        ([2.0, -2.0, -2.0], AnemiaLabel.MICROCYTIC),
        ([-2.0, 2.0, -2.0], AnemiaLabel.NORMOCYTIC),
        ([-2.0, -2.0, 2.0], AnemiaLabel.MACROCYTIC),
    ], ids=["microcytic", "normocytic", "macrocytic"])
    def test_pipeline_scores_positives_as_their_subtype(self, outputs, subtype):
        labeled = synth_generate(12, {AnemiaLabel.MICROCYTIC: 5,
                                      AnemiaLabel.NON_ANEMIC: 7}, seed=42)
        cm = evaluate_pipeline(_constant_bundle([3.0]), _onehot_bundle(outputs), labeled)
        column = list(AnemiaLabel).index(subtype)
        assert cm.counts[:, column].tolist() == [7, 5, 0, 0]
        assert cm.total == cm.counts[:, column].sum() == 12

    def test_pipeline_threshold_gates_the_classifier(self):
        labeled = synth_generate(12, {AnemiaLabel.NORMOCYTIC: 4,
                                      AnemiaLabel.NON_ANEMIC: 8}, seed=43)
        diag, clf = _constant_bundle([0.0]), _onehot_bundle([-2.0, 2.0, -2.0])  # raw 0.5
        healthy = evaluate_pipeline(diag, clf, labeled, threshold=1.0)
        assert healthy.counts[:, 0].tolist() == [8, 0, 4, 0]
        assert healthy.correct == 8
        positive = evaluate_pipeline(diag, clf, labeled, threshold=0.5)
        assert positive.counts[:, 2].tolist() == [8, 0, 4, 0]
        assert positive.correct == 4

    def test_pipeline_evaluation_refuses_invalid_records_before_any_network(self):
        diag, clf = _constant_bundle([3.0]), _onehot_bundle()
        seen = [_count_forward_rows(diag), _count_forward_rows(clf)]
        labeled = [LabeledRecord(make_record(), AnemiaLabel.NON_ANEMIC),
                   LabeledRecord(make_record(hgb=-1.0, age=300), AnemiaLabel.MICROCYTIC)]
        with pytest.raises(ValidationError, match=r"^age out of \[0, 120\]; hgb must be positive$"):
            evaluate_pipeline(diag, clf, labeled)
        assert seen == [[], []]

    @pytest.mark.parametrize("stage, match", [("diagnosis", "binary1"),
                                              ("classify", "onehot3 or banded1")],
                             ids=["diagnosis", "classify"])
    def test_pipeline_evaluation_checks_each_encoding(self, stage, match):
        labeled = synth_generate(4, {AnemiaLabel.MICROCYTIC: 4}, seed=44)
        diag, clf = _constant_bundle([3.0]), _onehot_bundle()
        if stage == "diagnosis":
            diag = clf
        else:
            clf = diag
        with pytest.raises(ValueError, match=match):
            evaluate_pipeline(diag, clf, labeled)

    def test_pipeline_matrix_matches_recount(self, trained):
        diag, clf, split = trained
        cm = evaluate_pipeline(diag, clf, split.test, threshold=0.5)
        reports = run_pipeline(diag, clf, [item.record for item in to_records(split.test)])
        correct = 0
        for item, report in zip(to_records(split.test), reports):
            predicted = (
                AnemiaLabel.NON_ANEMIC if report.verdict == 0 else report.subtype
            )
            correct += predicted is item.label
        assert accuracy(cm) == correct / len(split.test)
