"""Shared test fixtures and factories."""
import numpy as np

from hemanet.records import LABELS, CbcRecord, Gender, LabeledRecord


def make_record(**overrides) -> CbcRecord:
    base = dict(
        age=40, gender=Gender.FEMALE, rbc=4.5, hgb=13.5, hct=40.0,
        mcv=90.0, mch=30.0, mchc=34.0, wbc=7.0,
    )
    base.update(overrides)
    return CbcRecord(**base)


def invert(normalizer, normalized) -> np.ndarray:
    """The raw values that ``normalizer.apply`` maps to ``normalized``; a
    constant feature inverts to its single training value."""
    span = normalizer.maxs - normalizer.mins
    scaled = (np.asarray(normalized, dtype=float) + 1.0) / 2.0 * span + normalizer.mins
    return np.where(span > 0, scaled, normalizer.mins)


def to_records(batch) -> list:
    """One CbcRecord per row of a CbcColumns batch (a LabeledRecord if the
    batch is labeled); every gender code must be 0 or 1."""
    genders = {0: Gender.MALE, 1: Gender.FEMALE}
    records = [
        CbcRecord(age, genders[code], *values)
        for age, code, values in zip(
            batch.age.tolist(), batch.gender.tolist(), batch.analytes.tolist()
        )
    ]
    if batch.label is None:
        return records
    return [LabeledRecord(r, LABELS[code]) for r, code in zip(records, batch.label.tolist())]
