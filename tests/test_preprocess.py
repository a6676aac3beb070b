"""Feature encoding, normalization, and split arithmetic."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hemanet.preprocess import (
    FULL9,
    PAPER7,
    SPLIT_PRESETS,
    FeatureSpec,
    encode,
    encode_batch,
    feature_spec,
    fit_normalizer,
    largest_remainder,
    split_dataset,
)
from hemanet.records import AnemiaLabel, CbcColumns, Gender, LabeledRecord
from hemanet.synth import synth_generate

from helpers import invert, make_record, to_records


class TestFeatureSpec:
    def test_full9_order(self):
        assert FULL9.names == ("age", "gender", "rbc", "hgb", "hct", "mcv", "mch", "mchc", "wbc")

    def test_paper7_order(self):
        assert PAPER7.names == ("age", "gender", "hgb", "hct", "mcv", "mch", "mchc")

    def test_presets_by_token(self):
        assert feature_spec("full9") is FULL9
        assert feature_spec("paper7") is PAPER7
        with pytest.raises(ValueError):
            feature_spec("full10")

    def test_rejects_duplicates_and_unknowns(self):
        with pytest.raises(ValueError):
            FeatureSpec(("hgb", "hgb"))
        with pytest.raises(ValueError):
            FeatureSpec(("hgb", "platelets"))
        with pytest.raises(ValueError):
            FeatureSpec(())


class TestEncode:
    def test_full9_vector(self):
        vec = encode(make_record(), FULL9)
        assert vec.shape == (9,)
        np.testing.assert_allclose(vec, [40, 1.0, 4.5, 13.5, 40.0, 90.0, 30.0, 34.0, 7.0])

    def test_paper7_vector(self):
        assert encode(make_record(), PAPER7).shape == (7,)

    def test_gender_slot_only_difference(self):
        male = encode(make_record(gender=Gender.MALE), FULL9)
        female = encode(make_record(gender=Gender.FEMALE), FULL9)
        assert male[1] == 0.0 and female[1] == 1.0
        np.testing.assert_array_equal(np.delete(male, 1), np.delete(female, 1))


class TestNormalizer:
    def test_training_extremes_and_midpoint(self):
        norm = fit_normalizer([[2.0], [4.0], [6.0]])
        assert norm.apply([2.0])[0] == -1.0
        assert norm.apply([6.0])[0] == 1.0
        assert norm.apply([4.0])[0] == 0.0

    def test_unclamped_extrapolation(self):
        norm = fit_normalizer([[2.0], [4.0], [6.0]])
        assert norm.apply([8.0])[0] == 2.0

    def test_constant_feature_maps_to_zero(self):
        norm = fit_normalizer([[5.0, 1.0], [5.0, 3.0]])
        out = norm.apply([123.0, 2.0])
        assert out[0] == 0.0 and out[1] == 0.0
        # and inverts to the single training value
        assert invert(norm, norm.apply([99.0, 1.0]))[0] == 5.0

    def test_training_values_land_inside_interval(self):
        rng = np.random.default_rng(0)
        data = rng.uniform(-50, 50, size=(40, 5))
        norm = fit_normalizer(data)
        scaled = norm.apply(data)
        assert scaled.min() >= -1.0 and scaled.max() <= 1.0

    def test_monotonicity(self):
        norm = fit_normalizer([[0.0], [10.0]])
        values = np.linspace(-5, 15, 50)
        scaled = [norm.apply([v])[0] for v in values]
        assert all(a < b for a, b in zip(scaled, scaled[1:]))

    def test_empty_fit_rejected(self):
        with pytest.raises(ValueError):
            fit_normalizer([])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_fit_rejected_naming_the_column(self, bad):
        with pytest.raises(ValueError, match="column 2 has a non-finite value"):
            fit_normalizer([[1.0, 2.0, 3.0], [1.0, 2.0, bad]])

    def test_length_mismatch_rejected(self):
        norm = fit_normalizer([[1.0, 2.0]])
        with pytest.raises(ValueError):
            norm.apply([1.0])

    @given(
        hnp.arrays(
            float, (10, 4),
            elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
        )
    )
    @settings(max_examples=100)
    def test_invert_apply_identity(self, data):
        norm = fit_normalizer(data)
        x = data[0]
        np.testing.assert_allclose(invert(norm, norm.apply(x)), x, atol=1e-9, rtol=1e-12)


class TestLargestRemainder:
    def test_exact_multiples(self):
        assert largest_remainder((0.4, 0.4, 0.2), 230) == [92, 92, 46]

    def test_remainder_distribution(self):
        assert largest_remainder((0.4, 0.4, 0.2), 147) == [59, 59, 29]

    def test_total_preserved(self):
        for n in range(0, 50):
            assert sum(largest_remainder((0.17, 0.4, 0.43), n)) == n

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            largest_remainder((-0.1, 1.1), 10)
        with pytest.raises(ValueError):
            largest_remainder((0.0, 0.0), 10)


def _mix(total=230):
    # 26:40:39:42 scaled to the requested total by largest remainder.
    base = (26, 40, 39, 42)
    counts = largest_remainder(base, total)
    order = (AnemiaLabel.MICROCYTIC, AnemiaLabel.NORMOCYTIC,
             AnemiaLabel.MACROCYTIC, AnemiaLabel.NON_ANEMIC)
    return dict(zip(order, counts))


class TestSplitDataset:
    def test_unstratified_sizes(self):
        records = synth_generate(230, _mix(), seed=0)
        split = split_dataset(records, (0.4, 0.4, 0.2), seed=1, stratified=False)
        assert split.sizes() == (92, 92, 46)

    def test_paper_materials_preset_sizes(self):
        records = synth_generate(230, _mix(), seed=0)
        split = split_dataset(records, SPLIT_PRESETS["paper-materials"], seed=1, stratified=False)
        assert split.sizes() == (147, 83, 0)

    def test_paper_materials_stratified_training_composition(self):
        # On 230 records with the 26:40:39:42-proportional mix, the preset
        # lands exactly on a 147-record training set with that composition.
        records = synth_generate(230, _mix(), seed=0)
        split = split_dataset(records, SPLIT_PRESETS["paper-materials"], seed=3, stratified=True)
        assert split.sizes() == (147, 83, 0)
        train_counts = {
            label: sum(1 for r in to_records(split.train) if r.label is label)
            for label in AnemiaLabel
        }
        assert train_counts == {
            AnemiaLabel.MICROCYTIC: 26,
            AnemiaLabel.NORMOCYTIC: 40,
            AnemiaLabel.MACROCYTIC: 39,
            AnemiaLabel.NON_ANEMIC: 42,
        }

    def test_is_a_partition(self):
        records = synth_generate(101, _mix(101), seed=3)
        split = split_dataset(records, seed=5)
        combined = [r for part in (split.train, split.test, split.validation)
                    for r in to_records(part)]
        assert sorted(map(repr, combined)) == sorted(map(repr, records))

    def test_stratified_per_class_deviation_at_most_one(self):
        records = synth_generate(230, _mix(), seed=0)
        split = split_dataset(records, (0.4, 0.4, 0.2), seed=2, stratified=True)
        for label in AnemiaLabel:
            class_total = sum(1 for r in records if r.label is label)
            for part, fraction in zip((split.train, split.test, split.validation), split.fractions):
                got = sum(1 for r in to_records(part) if r.label is label)
                assert abs(got - fraction * class_total) < 1.0 + 1e-9

    def test_same_seed_same_membership(self):
        records = synth_generate(60, _mix(60), seed=9)
        a = split_dataset(records, seed=4)
        b = split_dataset(records, seed=4)
        for part in ("train", "test", "validation"):
            assert to_records(getattr(a, part)) == to_records(getattr(b, part))

    def test_different_seed_different_membership(self):
        records = synth_generate(60, _mix(60), seed=9)
        a = split_dataset(records, seed=4)
        b = split_dataset(records, seed=5)
        assert to_records(a.train) != to_records(b.train)

    def test_fraction_validation(self):
        records = synth_generate(10, {AnemiaLabel.NON_ANEMIC: 10}, seed=0)
        with pytest.raises(ValueError):
            split_dataset(records, (0.5, 0.4, 0.2))
        with pytest.raises(ValueError):
            split_dataset(records, (-0.2, 1.0, 0.2))

    def test_fewer_records_than_parts(self):
        records = synth_generate(2, {AnemiaLabel.NON_ANEMIC: 2}, seed=0)
        with pytest.raises(ValueError, match="parts"):
            split_dataset(records, (0.4, 0.4, 0.2))

    def test_zero_member_class_is_fine(self):
        records = synth_generate(40, {AnemiaLabel.NON_ANEMIC: 20, AnemiaLabel.MICROCYTIC: 20}, seed=0)
        split = split_dataset(records, seed=0, stratified=True)
        assert sum(split.sizes()) == 40

    def test_input_not_mutated(self):
        records = synth_generate(30, _mix(30), seed=8)
        snapshot = list(records)
        split_dataset(records, seed=1)
        assert records == snapshot


def test_encode_batch_shape():
    records = synth_generate(12, _mix(12), seed=2)
    assert encode_batch(records, FULL9).shape == (12, 9)
    assert encode_batch([r.record for r in records], PAPER7).shape == (12, 7)


def test_encode_batch_reads_columns_like_record_fields():
    records = [r.record for r in synth_generate(12, _mix(12), seed=3)]
    for spec in (FULL9, PAPER7):
        expected = [[float(r.gender is Gender.FEMALE) if name == "gender" else getattr(r, name)
                     for name in spec.names] for r in records]
        np.testing.assert_array_equal(encode_batch(CbcColumns.of(records), spec), expected)


def test_encode_batch_rows_follow_records():
    records = [
        make_record(gender=Gender.MALE, hgb=11.0),
        LabeledRecord(make_record(age=70), AnemiaLabel.NON_ANEMIC),
    ]
    X = encode_batch(records, FULL9)
    np.testing.assert_array_equal(X, [[40, 0.0, 4.5, 11.0, 40.0, 90.0, 30.0, 34.0, 7.0],
                                      [70, 1.0, 4.5, 13.5, 40.0, 90.0, 30.0, 34.0, 7.0]])
    assert X.dtype == np.float64 and X.flags.c_contiguous
    assert encode_batch([], PAPER7).shape == (0, 7)
