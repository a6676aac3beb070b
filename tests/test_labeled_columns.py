"""Labeled columns against the per-row labeled paths they replaced.

The reference functions below are the list-based ``encode_targets``,
``split_dataset``, ``ConfusionMatrix.from_pairs`` and ``evaluate_*`` as they
were before labels became an int8 code column of CbcColumns.  The columnar
versions must count, split and encode exactly as they did.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_record, to_records
from hemanet import cli, pipeline
from hemanet.cli import fit_stage
from hemanet.dataio import load_csv, save_csv
from hemanet.metrics import (
    DIAGNOSIS_LABELS,
    FOURWAY_LABELS,
    SUBTYPE_LABELS,
    ConfusionMatrix,
)
from hemanet.models import BAND_CENTERS, Network, decode_subtype, encode_targets
from hemanet.nncore import TrainConfig
from hemanet.pipeline import (
    evaluate_classification,
    evaluate_diagnosis,
    evaluate_pipeline,
)
from hemanet.preprocess import (
    FULL9,
    SPLIT_PRESETS,
    Normalizer,
    encode_batch,
    largest_remainder,
    split_dataset,
)
from hemanet.records import (
    LABELS,
    SUBTYPES,
    AnemiaLabel,
    CbcColumns,
    LabeledRecord,
    ValidationError,
    validate_record,
)
from hemanet.serialize import ModelBundle, save_model
from hemanet.synth import synth_generate

# ---------------------------------------------------------------------------
# the per-row references


def reference_encode_target(label, encoding):
    if encoding == "binary1":
        return np.array([1.0 if label.is_anemic else 0.0])
    if not label.is_anemic:
        raise ValueError(f"{encoding} targets are defined for anemic labels only")
    index = SUBTYPES.index(label)
    if encoding == "onehot3":
        target = np.zeros(3)
        target[index] = 1.0
        return target
    return np.array([BAND_CENTERS[index]])


def reference_encode_targets(labels, encoding):
    return np.array([reference_encode_target(label, encoding) for label in labels])


def reference_from_pairs(truths, predictions, labels):
    index = {label: i for i, label in enumerate(labels)}
    counts = np.zeros((len(labels), len(labels)), dtype=int)
    for truth, pred in zip(truths, predictions, strict=True):
        counts[index[truth], index[pred]] += 1
    return counts


def reference_split(records, fractions, seed, stratified):
    rng = np.random.default_rng(seed)
    buckets = ([], [], [])

    def assign(indices):
        indices = [indices[i] for i in rng.permutation(len(indices))]
        sizes = largest_remainder(fractions, len(indices))
        cut1, cut2 = sizes[0], sizes[0] + sizes[1]
        buckets[0].extend(indices[:cut1])
        buckets[1].extend(indices[cut1:cut2])
        buckets[2].extend(indices[cut2:])

    if stratified:
        for label in AnemiaLabel:
            members = [i for i, r in enumerate(records) if r.label is label]
            if members:
                assign(members)
    else:
        assign(list(range(len(records))))
    parts = []
    for bucket in buckets:
        order = rng.permutation(len(bucket))
        parts.append([records[bucket[i]] for i in order])
    return parts


def reference_outputs(bundle, labeled):
    """The old pipeline._bundle_outputs."""
    X = bundle.normalizer.apply(encode_batch([item.record for item in labeled],
                                             bundle.feature_spec))
    return bundle.net.predict_batch(X)


def reference_evaluate_diagnosis(diag, labeled, threshold=0.5, outputs=reference_outputs):
    raw = outputs(diag, labeled)
    truths = [DIAGNOSIS_LABELS[int(item.label.is_anemic)] for item in labeled]
    preds = [DIAGNOSIS_LABELS[p] for p in (raw[:, 0] >= threshold).tolist()]
    return reference_from_pairs(truths, preds, DIAGNOSIS_LABELS)


def reference_evaluate_classification(clf, labeled, outputs=reference_outputs):
    anemic = [item for item in labeled if item.label.is_anemic]
    raw = outputs(clf, anemic)
    truths = [item.label.value for item in anemic]
    preds = [decode_subtype(row, clf.output_encoding).value for row in raw]
    return reference_from_pairs(truths, preds, SUBTYPE_LABELS)


def reference_evaluate_pipeline(diag, clf, labeled, threshold=0.5, outputs=reference_outputs):
    raw = outputs(diag, labeled)[:, 0]
    positives = [item for item, r in zip(labeled, raw.tolist()) if r >= threshold]
    subtypes = iter(decode_subtype(row, clf.output_encoding).value
                    for row in outputs(clf, positives))
    preds = [next(subtypes) if r >= threshold else AnemiaLabel.NON_ANEMIC.value
             for r in raw.tolist()]
    return reference_from_pairs([item.label.value for item in labeled], preds, FOURWAY_LABELS)


# ---------------------------------------------------------------------------
# random labeled batches with outputs that tie and sit on the threshold

#: Raw output values: 0.5 is the default threshold, and repeated values make
#: onehot3 argmax ties and banded1 points halfway between two band centers.
OUTPUT_VALUES = [0.0, 1 / 3, 0.5, 2 / 3, 0.9, 1.0]


@st.composite
def scored_batches(draw):
    """(labeled records, (rows, 3) output table); record i has age i."""
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=0, max_size=40))
    labeled = [LabeledRecord(make_record(age=i), label) for i, label in enumerate(labels)]
    table = np.array(draw(st.lists(st.lists(st.sampled_from(OUTPUT_VALUES), min_size=3,
                                            max_size=3),
                                   min_size=len(labels), max_size=len(labels))))
    return labeled, table.reshape(len(labels), 3)


def _bundle(encoding):
    width = 3 if encoding == "onehot3" else 1
    net = Network("ffnn", [np.zeros((2, 9)), np.zeros(2), np.zeros((width, 2)), np.zeros(width)],
                  9)
    return ModelBundle(family="ffnn", net=net, feature_spec=FULL9, output_encoding=encoding,
                       normalizer=Normalizer(np.zeros(9), np.ones(9)))


def _table_outputs(table):
    """Outputs looked up by record age, for the columnar and the reference path."""
    def width(bundle):
        return 3 if bundle.output_encoding == "onehot3" else 1

    def columnar(bundle, records):
        return table[CbcColumns.of(records).age][:, :width(bundle)]

    def reference(bundle, labeled):
        return table[[item.record.age for item in labeled]][:, :width(bundle)]

    return columnar, reference


class TestEvaluationMatchesPerRowReference:
    @given(scored_batches(), st.sampled_from([0.5, 1 / 3, 0.9]))
    @settings(max_examples=60, deadline=None)
    def test_counts_equal_on_random_batches(self, batch, threshold):
        labeled, table = batch
        columnar, reference = _table_outputs(table)
        diag, onehot, banded = _bundle("binary1"), _bundle("onehot3"), _bundle("banded1")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pipeline, "_bundle_outputs", columnar)
            got = [evaluate_diagnosis(diag, labeled, threshold),
                   evaluate_classification(onehot, labeled),
                   evaluate_classification(banded, labeled),
                   evaluate_pipeline(diag, onehot, labeled, threshold),
                   evaluate_pipeline(diag, banded, labeled, threshold)]
        expected = [reference_evaluate_diagnosis(diag, labeled, threshold, reference),
                    reference_evaluate_classification(onehot, labeled, reference),
                    reference_evaluate_classification(banded, labeled, reference),
                    reference_evaluate_pipeline(diag, onehot, labeled, threshold, reference),
                    reference_evaluate_pipeline(diag, banded, labeled, threshold, reference)]
        for cm, counts in zip(got, expected):
            np.testing.assert_array_equal(cm.counts, counts)

    def test_threshold_ties_and_band_midpoints_count_like_the_reference(self):
        # Raw 0.5 at threshold 0.5 is anemic; an onehot3 tie goes to the lowest
        # subtype; 1/3 sits halfway, up to rounding, between two band centers.
        labeled = [LabeledRecord(make_record(age=i), label)
                   for i, label in enumerate(SUBTYPES + (AnemiaLabel.NON_ANEMIC,))]
        table = np.array([[0.5, 0.5, 0.5], [1 / 3, 0.9, 0.9], [2 / 3, 0.1, 0.9],
                          [0.5, 0.5, 0.1]])
        columnar, reference = _table_outputs(table)
        diag, onehot, banded = _bundle("binary1"), _bundle("onehot3"), _bundle("banded1")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pipeline, "_bundle_outputs", columnar)
            assert evaluate_diagnosis(diag, labeled).counts.tolist() == [[0, 1], [1, 2]]
            assert evaluate_classification(onehot, labeled).counts.tolist() == [
                [1, 0, 0], [0, 1, 0], [0, 0, 1]]
            cm = evaluate_classification(banded, labeled)
        np.testing.assert_array_equal(
            cm.counts, reference_evaluate_classification(banded, labeled, reference))

    @pytest.mark.parametrize("family,kwargs", [
        ("ffnn", {}), ("elman", {}), ("narx", {}),
        ("elman", {"mode": "feature-sequence"}),
        ("narx", {"d_u": 1, "d_y": 2}),
    ])
    @pytest.mark.parametrize("encoding", ["onehot3", "banded1"])
    def test_trained_models_count_like_the_reference(self, dataset, family, kwargs, encoding):
        config = TrainConfig(epochs=40, hidden_size=6, seed=51)
        diag, _ = fit_stage(dataset, family, "diagnosis", config, **kwargs)
        clf, _ = fit_stage(dataset, family, "classify", config, encoding=encoding, **kwargs)
        for threshold in (0.5, 0.3):
            np.testing.assert_array_equal(evaluate_diagnosis(diag, dataset, threshold).counts,
                                          reference_evaluate_diagnosis(diag, dataset, threshold))
        np.testing.assert_array_equal(evaluate_classification(clf, dataset).counts,
                                      reference_evaluate_classification(clf, dataset))
        np.testing.assert_array_equal(evaluate_pipeline(diag, clf, dataset).counts,
                                      reference_evaluate_pipeline(diag, clf, dataset))

    def test_columns_and_record_lists_evaluate_alike(self, dataset, tmp_path):
        path = tmp_path / "data.csv"
        save_csv(dataset, path)
        diag, _ = fit_stage(dataset, "ffnn", "diagnosis", TrainConfig(epochs=30, seed=52))
        np.testing.assert_array_equal(evaluate_diagnosis(diag, load_csv(path)).counts,
                                      evaluate_diagnosis(diag, dataset).counts)


@pytest.fixture(scope="module")
def dataset():
    return synth_generate(90, {AnemiaLabel.MICROCYTIC: 20, AnemiaLabel.NORMOCYTIC: 22,
                               AnemiaLabel.MACROCYTIC: 20, AnemiaLabel.NON_ANEMIC: 28}, seed=50)


class TestFromCodes:
    @given(st.integers(1, 5).flatmap(lambda k: st.tuples(
        st.just(k), st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)),
                             max_size=60))))
    @settings(max_examples=60, deadline=None)
    def test_equals_pairwise_count(self, case):
        k, pairs = case
        labels = tuple("abcde"[:k])
        truths, preds = [t for t, _ in pairs], [p for _, p in pairs]
        expected = reference_from_pairs([labels[t] for t in truths],
                                        [labels[p] for p in preds], labels)
        np.testing.assert_array_equal(ConfusionMatrix.from_codes(truths, preds, labels).counts,
                                      expected)
        np.testing.assert_array_equal(
            ConfusionMatrix.from_pairs([labels[t] for t in truths], [labels[p] for p in preds],
                                       labels).counts, expected)

    def test_bad_input_still_raises(self):
        with pytest.raises(KeyError):
            ConfusionMatrix.from_pairs(["a", "zzz"], ["a", "b"], ("a", "b"))
        with pytest.raises(ValueError):
            ConfusionMatrix.from_pairs(["a", "b"], ["a"], ("a", "b"))
        with pytest.raises(ValueError):
            ConfusionMatrix.from_codes([0, 1], [0], ("a", "b"))
        for truths, preds in (([0, 2], [0, 1]), ([0, 1], [-1, 1]), ([3], [0])):
            with pytest.raises(ValueError, match="codes"):
                ConfusionMatrix.from_codes(truths, preds, ("a", "b"))
        assert ConfusionMatrix.from_codes([], [], ("a", "b")).total == 0


class TestEncodeTargets:
    @given(st.lists(st.sampled_from(LABELS), max_size=20),
           st.sampled_from(["binary1", "onehot3", "banded1"]))
    @settings(max_examples=60, deadline=None)
    def test_equals_per_row_reference(self, labels, encoding):
        codes = [LABELS.index(label) for label in labels]
        if encoding != "binary1" and AnemiaLabel.NON_ANEMIC in labels:
            with pytest.raises(ValueError, match="anemic labels only"):
                encode_targets(codes, encoding)
            return
        got = encode_targets(codes, encoding)
        if labels:
            np.testing.assert_array_equal(got, reference_encode_targets(labels, encoding))
        assert got.shape == (len(labels), 3 if encoding == "onehot3" else 1)
        assert got.dtype == np.float64

    def test_unknown_encoding(self):
        with pytest.raises(ValueError, match="unknown output encoding"):
            encode_targets([1], "softmax4")


class TestSplitMatchesPerRowReference:
    @pytest.mark.parametrize("preset", sorted(SPLIT_PRESETS))
    @pytest.mark.parametrize("stratified", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 7, 123])
    def test_same_membership_and_order(self, dataset, preset, stratified, seed):
        fractions = SPLIT_PRESETS[preset]
        split = split_dataset(dataset, fractions, seed=seed, stratified=stratified)
        expected = reference_split(dataset, fractions, seed, stratified)
        got = [to_records(split.train), to_records(split.test), to_records(split.validation)]
        assert got == expected

    @given(st.lists(st.sampled_from(LABELS), min_size=3, max_size=50), st.integers(0, 2**32 - 1),
           st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_random_batches(self, labels, seed, stratified):
        labeled = [LabeledRecord(make_record(age=i), label) for i, label in enumerate(labels)]
        split = split_dataset(CbcColumns.of(labeled), (0.4, 0.4, 0.2), seed, stratified)
        expected = reference_split(labeled, (0.4, 0.4, 0.2), seed, stratified)
        assert [to_records(split.train), to_records(split.test),
                to_records(split.validation)] == expected

    def test_unlabeled_records_split_only_unstratified(self):
        records = [make_record(age=i) for i in range(10)]
        split = split_dataset(records, stratified=False)
        assert split.sizes() == (4, 4, 2) and split.train.label is None
        with pytest.raises(ValueError, match="labeled"):
            split_dataset(records, stratified=True)


class TestLabelColumn:
    def test_codes_follow_labels(self):
        labeled = [LabeledRecord(make_record(age=i), label) for i, label in enumerate(LABELS)]
        batch = CbcColumns.of(labeled)
        assert batch.label.dtype == np.int8 and batch.label.tolist() == [0, 1, 2, 3]
        assert to_records(batch) == labeled
        assert to_records(batch.take([3, 0])) == [labeled[3], labeled[0]]
        assert to_records(batch.anemic()) == labeled[1:]
        assert LABELS[1:] == SUBTYPES

    def test_unlabeled_and_mixed_batches_carry_no_labels(self):
        record = make_record()
        assert CbcColumns.of([record]).label is None
        assert CbcColumns.of([record, LabeledRecord(record, AnemiaLabel.NON_ANEMIC)]).label is None
        assert CbcColumns.of([record]).take([0]).label is None

    def test_loaded_label_codes(self, dataset, tmp_path):
        path = tmp_path / "data.csv"
        save_csv(dataset, path)
        batch = load_csv(path)
        assert batch.label.dtype == np.int8
        assert batch.label.tolist() == [LABELS.index(item.label) for item in dataset]


class TestEvaluationValidates:
    def _labeled(self):
        return [LabeledRecord(make_record(), AnemiaLabel.NON_ANEMIC),
                LabeledRecord(make_record(hgb=10.0), AnemiaLabel.NORMOCYTIC),
                LabeledRecord(make_record(mcv=1e9, age=300), AnemiaLabel.MICROCYTIC),
                LabeledRecord(make_record(wbc=-1.0), AnemiaLabel.MICROCYTIC)]

    def test_first_invalid_row_raises_with_its_violations(self):
        labeled = self._labeled()
        expected = validate_record(labeled[2].record)
        assert expected == ["age out of [0, 120]", "mcv out of [50, 150]"]
        for evaluate, bundle in ((evaluate_diagnosis, _bundle("binary1")),
                                 (evaluate_classification, _bundle("onehot3"))):
            with pytest.raises(ValidationError) as exc:
                evaluate(bundle, labeled)
            assert exc.value.violations == expected
        with pytest.raises(ValidationError) as exc:
            evaluate_pipeline(_bundle("binary1"), _bundle("onehot3"), labeled)
        assert exc.value.violations == expected

    def test_valid_batches_build_no_per_row_violation_lists(self, monkeypatch):
        import hemanet.records

        def refuse(records):
            raise AssertionError("validate_records ran on a valid batch")

        monkeypatch.setattr(hemanet.records, "validate_records", refuse)
        labeled = self._labeled()[:2]
        assert evaluate_diagnosis(_bundle("binary1"), labeled).total == 2
        assert evaluate_classification(_bundle("onehot3"), labeled).total == 1
        assert evaluate_pipeline(_bundle("binary1"), _bundle("onehot3"), labeled).total == 2

    def test_loaded_batch_is_validated_once(self, monkeypatch, dataset, tmp_path):
        # eval scores six models on one loaded batch; only load_csv checks it.
        import hemanet.records

        calls = []
        faults = hemanet.records._faults
        monkeypatch.setattr(hemanet.records, "_faults",
                            lambda batch: calls.append(len(batch)) or faults(batch))
        path = tmp_path / "data.csv"
        save_csv(dataset, path)
        batch = load_csv(path)
        for _ in range(3):
            evaluate_diagnosis(_bundle("binary1"), batch)
            evaluate_classification(_bundle("onehot3"), batch)
        evaluate_pipeline(_bundle("binary1"), _bundle("onehot3"), batch)
        evaluate_diagnosis(_bundle("binary1"), split_dataset(batch, (0.5, 0.5, 0.0), seed=1).test)
        assert calls == [len(dataset)]

    def test_in_memory_columns_are_still_checked(self):
        # Columns built in memory carry no mark: the invalid row still raises,
        # and so does every part taken from them.
        columns = CbcColumns.of(self._labeled())
        for batch in (columns, columns.take([0, 2]), CbcColumns.of(self._labeled())):
            with pytest.raises(ValidationError):
                evaluate_diagnosis(_bundle("binary1"), batch)
        valid = CbcColumns.of(self._labeled()[:2])
        assert evaluate_diagnosis(_bundle("binary1"), valid).total == 2
        assert evaluate_diagnosis(_bundle("binary1"), valid.take([1])).total == 1


class TestEmptyConfusionMatrixExits:
    @pytest.fixture(scope="class")
    def models(self, tmp_path_factory, dataset):
        tmp_path = tmp_path_factory.mktemp("edge")
        paths = {}
        for family, kwargs in (("ffnn", {}), ("narx", {})):
            for stage in ("diagnosis", "classify"):
                bundle, _ = fit_stage(dataset, family, stage,
                                      TrainConfig(epochs=5, hidden_size=4), **kwargs)
                paths[family, stage] = tmp_path / f"{family}_{stage}.json"
                save_model(bundle, paths[family, stage])
        return paths

    def _eval(self, capsys, model, data):
        capsys.readouterr()
        code = cli.main(["eval", "-m", str(model), "--data", str(data)])
        return code, capsys.readouterr()

    def test_empty_labeled_file(self, tmp_path, models, capsys):
        data = tmp_path / "empty.csv"
        save_csv([], data)
        for model in models.values():
            code, out = self._eval(capsys, model, data)
            assert code == 3 and out.out == ""
            assert out.err == "data error: empty confusion matrix\n"

    def test_no_anemic_rows(self, tmp_path, models, capsys):
        data = tmp_path / "healthy.csv"
        save_csv(synth_generate(12, {AnemiaLabel.NON_ANEMIC: 12}, seed=53), data)
        for family in ("ffnn", "narx"):
            code, out = self._eval(capsys, models[family, "classify"], data)
            assert code == 3 and out.err == "data error: empty confusion matrix\n"
            code, out = self._eval(capsys, models[family, "diagnosis"], data)
            assert code == 0 and "no anemic truths" in out.out
