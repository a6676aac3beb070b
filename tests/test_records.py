"""Clinical rule, validation, and reference-range behavior."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_record, to_records
from hemanet.records import (
    ANALYTES,
    DEFAULT_BOUNDS,
    DEFAULT_RANGES,
    AnemiaLabel,
    CbcColumns,
    Gender,
    LabeledRecord,
    ReferenceRanges,
    UnclassifiableError,
    ValidationError,
    rule_label,
    validate_record,
    validate_records,
)


class TestRuleLabel:
    def test_healthy_female(self):
        rec = make_record(gender=Gender.FEMALE, hgb=13.5, mcv=90, mch=30, mchc=34)
        assert rule_label(rec) is AnemiaLabel.NON_ANEMIC

    def test_microcytic_all_low(self):
        rec = make_record(gender=Gender.MALE, hgb=9.0, mcv=70, mch=22, mchc=28)
        assert rule_label(rec) is AnemiaLabel.MICROCYTIC

    def test_macrocytic_all_high(self):
        rec = make_record(gender=Gender.FEMALE, hgb=10.0, mcv=110, mch=36, mchc=38)
        assert rule_label(rec) is AnemiaLabel.MACROCYTIC

    def test_normocytic_all_within(self):
        rec = make_record(gender=Gender.MALE, hgb=11.0, mcv=90, mch=30, mchc=34)
        assert rule_label(rec) is AnemiaLabel.NORMOCYTIC

    def test_hgb_threshold_is_inclusive_healthy(self):
        # At exactly the threshold the patient counts as non-anemic.
        assert rule_label(make_record(gender=Gender.FEMALE, hgb=12.0)) is AnemiaLabel.NON_ANEMIC
        assert rule_label(make_record(gender=Gender.MALE, hgb=13.0)) is AnemiaLabel.NON_ANEMIC
        assert rule_label(make_record(gender=Gender.MALE, hgb=12.99)) is not AnemiaLabel.NON_ANEMIC

    def test_gender_specific_threshold(self):
        # 12.5 g/dL is healthy for a woman, anemic for a man.
        assert rule_label(make_record(gender=Gender.FEMALE, hgb=12.5)) is AnemiaLabel.NON_ANEMIC
        assert rule_label(make_record(gender=Gender.MALE, hgb=12.5)) is AnemiaLabel.NORMOCYTIC

    @pytest.mark.parametrize(
        "mcv,mch,mchc,expected",
        [
            (70.0, 30.0, 34.0, AnemiaLabel.MICROCYTIC),   # only MCV low
            (110.0, 30.0, 34.0, AnemiaLabel.MACROCYTIC),  # only MCV high
            (90.0, 22.0, 38.0, AnemiaLabel.NORMOCYTIC),   # MCV normal, others mixed
            (70.0, 36.0, 34.0, AnemiaLabel.MICROCYTIC),   # conflicting directions
        ],
    )
    def test_mixed_indices_decided_by_mcv(self, mcv, mch, mchc, expected):
        rec = make_record(gender=Gender.MALE, hgb=10.0, mcv=mcv, mch=mch, mchc=mchc)
        assert rule_label(rec) is expected

    def test_strict_mode_rejects_mixed_indices(self):
        rec = make_record(gender=Gender.MALE, hgb=10.0, mcv=70, mch=30, mchc=34)
        with pytest.raises(UnclassifiableError):
            rule_label(rec, strict=True)
        # Unanimous cases still classify in strict mode.
        pure = make_record(gender=Gender.MALE, hgb=10.0, mcv=70, mch=22, mchc=28)
        assert rule_label(pure, strict=True) is AnemiaLabel.MICROCYTIC

    def test_invalid_record_raises_naming_field(self):
        with pytest.raises(ValidationError) as exc:
            rule_label(make_record(hgb=-1.0))
        assert "hgb" in str(exc.value)

    def test_custom_ranges_change_labels(self):
        ranges = ReferenceRanges(hgb_low_female=14.0)
        rec = make_record(gender=Gender.FEMALE, hgb=13.5)
        assert rule_label(rec) is AnemiaLabel.NON_ANEMIC
        assert rule_label(rec, ranges) is AnemiaLabel.NORMOCYTIC


class TestValidateRecord:
    def test_mid_range_record_is_ok(self):
        assert validate_record(make_record()) == []

    def test_hct_out_of_range(self):
        assert validate_record(make_record(hct=105.0)) == ["hct out of (0, 100)"]

    def test_negative_hgb(self):
        assert validate_record(make_record(hgb=-1.0)) == ["hgb must be positive"]

    def test_all_violations_reported(self):
        violations = validate_record(make_record(hgb=-1.0, hct=105.0, mcv=500.0, age=300))
        assert len(violations) == 4
        joined = " ".join(violations)
        for field in ("hgb", "hct", "mcv", "age"):
            assert field in joined

    def test_non_finite_values(self):
        assert validate_record(make_record(wbc=float("nan"))) == ["wbc must be finite"]
        assert validate_record(make_record(rbc=float("inf"))) == ["rbc must be finite"]

    def test_plausibility_bounds(self):
        assert validate_record(make_record(rbc=0.5)) == ["rbc out of [1, 8]"]
        assert validate_record(make_record(wbc=60.0)) == ["wbc out of [1, 50]"]


class TestReferenceRanges:
    def test_low_must_be_below_high(self):
        with pytest.raises(ValueError):
            ReferenceRanges(mcv_low=100.0, mcv_high=80.0)

    def test_values_must_be_positive(self):
        with pytest.raises(ValueError):
            ReferenceRanges(hgb_low_male=-1.0)

    def test_from_json_roundtrip(self, tmp_path):
        path = tmp_path / "ranges.json"
        path.write_text('{"hgb_low_female": 11.5, "mcv_high": 98}')
        ranges = ReferenceRanges.from_json(path)
        assert ranges.hgb_low_female == 11.5
        assert ranges.mcv_high == 98
        assert ranges.mcv_low == 80.0  # untouched default

    @pytest.mark.parametrize("content", [
        "[" * 200_000,                        # deeper than the parser's recursion limit
        '{"mcv_high": ' + "9" * 5000 + "}",   # beyond Python's int digit limit
        '{"mcv_high": 1' + "0" * 400 + "}",   # an int too large for a float
        b'{"mcv_high": 98\xff}',              # not UTF-8
    ], ids=["nesting", "digits", "overflow", "bytes"])
    def test_from_json_hostile_content_is_a_value_error_naming_the_path(self, tmp_path,
                                                                      content):
        path = tmp_path / "ranges.json"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        with pytest.raises(ValueError, match=f"^{path}: ") as info:
            ReferenceRanges.from_json(path)
        assert type(info.value) is ValueError

    def test_from_json_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "ranges.json"
        path.write_text('{"hgb_low": 11.5}')
        with pytest.raises(ValueError, match="hgb_low"):
            ReferenceRanges.from_json(path)


valid_records = st.builds(
    make_record,
    gender=st.sampled_from(list(Gender)),
    age=st.integers(0, 120),
    hgb=st.floats(3.0, 22.0),
    mcv=st.floats(50.0, 150.0),
    mch=st.floats(15.0, 45.0),
    mchc=st.floats(25.0, 42.0),
)


class TestRuleProperties:
    @given(valid_records)
    @settings(max_examples=200)
    def test_total_on_valid_records(self, rec):
        assert rule_label(rec) in AnemiaLabel

    @given(valid_records)
    @settings(max_examples=200)
    def test_non_anemic_iff_hgb_at_or_above_threshold(self, rec):
        threshold = DEFAULT_RANGES.hgb_low(rec.gender)
        assert (rule_label(rec) is AnemiaLabel.NON_ANEMIC) == (rec.hgb >= threshold)


# Values of every kind a CbcRecord can carry in memory.  Ints stay below
# 1e300: beyond float range both validators raise OverflowError alike.
odd_values = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.just(np.float32(4.5)),
    st.just(np.int64(40)), st.just(Gender.MALE),
)
any_age = st.one_of(
    st.integers(-5, 130), st.integers(-10**30, 10**30), st.floats(allow_nan=True),
    odd_values,
)
any_gender = st.one_of(st.sampled_from(list(Gender)), odd_values)
edges = sorted({0.0, 100.0} | {edge for pair in DEFAULT_BOUNDS.values() for edge in pair})
any_analyte = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True), st.floats(-5.0, 200.0),
    st.sampled_from(edges), st.sampled_from(edges).map(lambda x: np.nextafter(x, -1.0)),
    st.integers(-10**300, 10**300), st.builds(np.float64, st.floats(0.0, 200.0)),
    odd_values,
)
any_records = st.lists(
    st.builds(make_record, age=any_age, gender=any_gender,
              **{name: any_analyte for name in ANALYTES}),
    max_size=8,
)
# Well-typed values only, so validation reaches its bounds: Python int ages
# past int64, and int, float and np.float64 analytes at every bound edge, its
# neighbours, NaN and +-inf.
typed_age = st.one_of(st.integers(-5, 130), st.integers(-10**30, 10**30),
                      st.sampled_from([-(2**63) - 1, -(2**63), 2**63 - 1, 2**63]))
typed_analyte = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True), st.floats(-5.0, 200.0),
    st.sampled_from(edges).flatmap(lambda x: st.sampled_from(
        [np.nextafter(x, -1.0), x, np.nextafter(x, 1000.0)])),
    st.integers(-5, 200), st.integers(-10**300, 10**300),
    st.builds(np.float64, st.floats(allow_nan=True, allow_infinity=True)),
)
typed_records = st.lists(
    st.builds(make_record, age=typed_age, gender=st.sampled_from(list(Gender)),
              **{name: typed_analyte for name in ANALYTES}),
    max_size=8,
)


def violations_or_type_error(validate, records):
    """What ``validate`` gives for the records, or the text of its TypeError."""
    try:
        return validate(records)
    except TypeError as exc:
        return str(exc)


class TestValidateRecords:
    @given(st.one_of(any_records, typed_records))
    @settings(max_examples=40, deadline=None)
    def test_same_strings_as_validate_record(self, records):
        # Both refuse the first wrongly typed record with the same TypeError,
        # and give well-typed records the same violation lists.
        assert (violations_or_type_error(validate_records, records)
                == violations_or_type_error(lambda rs: [validate_record(r) for r in rs], records))

    def test_every_bound_edge_and_its_neighbours(self):
        # Expectations from the documented ranges, not from the checks: each
        # analyte's closed DEFAULT_BOUNDS range, hct's open (0, 100) and the
        # age's [0, 120]; a value at or below 0 fails the sign check instead.
        ranges = {name: (low, high, "[]") for name, (low, high) in DEFAULT_BOUNDS.items()}
        ranges["hct"] = (0.0, 100.0, "()")
        records, expected = [], []
        for name, (low, high, brackets) in ranges.items():
            for edge in (low, high):
                for value in (np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)):
                    inside = low <= value <= high if brackets == "[]" else low < value < high
                    records.append(make_record(**{name: float(value)}))
                    expected.append([] if inside else [f"{name} must be positive"] if value <= 0
                                    else [f"{name} out of {brackets[0]}{low:g}, {high:g}"
                                          f"{brackets[1]}"])
        for age in (-1, 0, 1, 119, 120, 121):
            records.append(make_record(age=age))
            expected.append([] if 0 <= age <= 120 else ["age out of [0, 120]"])
        assert [validate_record(r) for r in records] == expected
        assert validate_records(records) == expected

    def test_labeled_records_and_columns_validate_alike(self):
        records = [make_record(), make_record(hgb=-1.0, age=300)]
        labeled = [LabeledRecord(r, AnemiaLabel.NON_ANEMIC) for r in records]
        expected = [[], ["age out of [0, 120]", "hgb must be positive"]]
        assert validate_records(labeled) == expected
        assert validate_records(CbcColumns.of(records)) == expected

    def test_empty_batch(self):
        assert validate_records([]) == []
        assert len(CbcColumns.of([])) == 0


class TestCbcColumns:
    @given(st.lists(valid_records, max_size=8))
    @settings(max_examples=25, deadline=None)
    def test_records_round_trip(self, records):
        assert to_records(CbcColumns.of(records)) == records

    def test_ages_beyond_int64_are_held_at_its_ends(self):
        records = [make_record(age=10**30), make_record(age=-(2**63) - 1), make_record()]
        batch = CbcColumns.of(records)
        assert batch.age.dtype == np.int64
        assert batch.age.tolist() == [2**63 - 1, -(2**63), 40]
        expected = [["age out of [0, 120]"]] * 2 + [[]]
        assert validate_records(batch) == [validate_record(r) for r in records] == expected

    def test_take_selects_rows_in_order(self):
        records = [make_record(age=a) for a in (10, 20, 30)]
        assert to_records(CbcColumns.of(records).take([2, 0])) == [records[2], records[0]]
        assert len(CbcColumns.of(records).take([])) == 0
