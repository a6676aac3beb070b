"""Patient CBC records, reference ranges, and the clinical labeling rule.

Labeling follows standard CBC interpretation: anemia is called when
hemoglobin falls below the gender-specific threshold, and anemic samples
are typed by the red-cell indices (MCV, MCH, MCHC) against their
reference ranges.  The numeric thresholds are configurable; defaults are
standard adult values.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from itertools import compress
from operator import attrgetter

import numpy as np


class Gender(Enum):
    MALE = "male"
    FEMALE = "female"


class AnemiaLabel(Enum):
    NON_ANEMIC = "non_anemic"
    MICROCYTIC = "microcytic"
    NORMOCYTIC = "normocytic"
    MACROCYTIC = "macrocytic"

    @property
    def is_anemic(self) -> bool:
        return self is not AnemiaLabel.NON_ANEMIC


#: Anemia subtypes in cell-size order; the position is also the class index
#: used by the classification output encodings.
SUBTYPES = (AnemiaLabel.MICROCYTIC, AnemiaLabel.NORMOCYTIC, AnemiaLabel.MACROCYTIC)

#: Label codes, as CbcColumns holds labels: code c stands for LABELS[c], so
#: 0 is non-anemic and SUBTYPES[i] is code i + 1.
LABELS = tuple(AnemiaLabel)

ANALYTES = ("rbc", "hgb", "hct", "mcv", "mch", "mchc", "wbc")
#: The nine fields of a panel, in CSV column and full9 feature order.
PANEL_FIELDS = ("age", "gender", *ANALYTES)

#: Plausibility gates: values outside these are data errors, not clinical findings.
DEFAULT_BOUNDS: dict[str, tuple[float, float]] = {
    "rbc": (1.0, 8.0),
    "hgb": (3.0, 22.0),
    "mcv": (50.0, 150.0),
    "mch": (15.0, 45.0),
    "mchc": (25.0, 42.0),
    "wbc": (1.0, 50.0),
}


@dataclass(frozen=True)
class CbcRecord:
    """One patient's nine-field CBC panel plus demographics.

    Analyte units: rbc 10^6 cells/uL, hgb g/dL, hct percent, mcv fL,
    mch pg, mchc g/dL, wbc 10^3 cells/uL.
    """

    age: int
    gender: Gender
    rbc: float
    hgb: float
    hct: float
    mcv: float
    mch: float
    mchc: float
    wbc: float


@dataclass(frozen=True)
class ReferenceRanges:
    """Clinical thresholds driving the labeling rule.

    Every low must sit strictly below its high and all values must be
    positive; violations raise at construction.
    """

    hgb_low_male: float = 13.0
    hgb_low_female: float = 12.0
    mcv_low: float = 80.0
    mcv_high: float = 100.0
    mch_low: float = 27.0
    mch_high: float = 33.0
    mchc_low: float = 32.0
    mchc_high: float = 36.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (isinstance(value, (int, float)) and not isinstance(value, bool)
                    and math.isfinite(value) and value > 0):
                raise ValueError(f"{f.name} must be a positive finite number, got {value!r}")
        for name in ("mcv", "mch", "mchc"):
            low, high = getattr(self, f"{name}_low"), getattr(self, f"{name}_high")
            if not low < high:
                raise ValueError(f"{name}_low must be strictly below {name}_high")

    def hgb_low(self, gender: Gender) -> float:
        return self.hgb_low_male if gender is Gender.MALE else self.hgb_low_female

    def index_range(self, analyte: str) -> tuple[float, float]:
        """(low, high) for one of the typing indices mcv/mch/mchc."""
        return getattr(self, f"{analyte}_low"), getattr(self, f"{analyte}_high")

    @classmethod
    def from_json(cls, path) -> "ReferenceRanges":
        """Load overrides from a JSON object keyed by field name; any content
        that cannot give valid ranges raises ValueError naming the path."""
        with open(path, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except (RecursionError, ValueError) as exc:  # deep nesting, huge ints, bad text
                raise ValueError(f"{path}: not a valid JSON file ({exc})") from None
        if not isinstance(data, dict):
            raise ValueError(f"{path}: expected a JSON object of range overrides")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"{path}: unknown range field(s): {', '.join(unknown)}")
        try:
            return replace(cls(), **data)
        except (OverflowError, ValueError) as exc:  # an integer too large for a float
            raise ValueError(f"{path}: {exc}") from None


DEFAULT_RANGES = ReferenceRanges()


@dataclass(frozen=True)
class LabeledRecord:
    record: CbcRecord
    label: AnemiaLabel


class ValidationError(ValueError):
    """Raised when a record fails validation; carries every violation."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class UnclassifiableError(ValueError):
    """Raised in strict mode when the three typing indices disagree."""


# Each field's plausible range in check order, age then ANALYTES: the closed
# bounds the checks test, and the brackets its message writes.  hct's open
# (0, 100) ends at the float below 100, and its low end is left to the sign
# check that every analyte has.
_RANGES = {"age": (0, 120, "[]"), **{name: (*ends, "[]") for name, ends in DEFAULT_BOUNDS.items()},
           "hct": (0.0, math.nextafter(100.0, 0.0), "()")}
_LOW, _HIGH, _BRACKETS = zip(*(_RANGES[name] for name in ("age", *ANALYTES)))
_OUT_OF = [f"{name} out of {left}{low:g}, {high:g}{right}"
           for name, low, high, (left, right) in zip(("age", *ANALYTES), _LOW, _HIGH, _BRACKETS)]
#: The message of each of _checks' flags, in its order.
_MESSAGES = _OUT_OF[:1] + [message for name, out_of in zip(ANALYTES, _OUT_OF[1:]) for message in
                           (f"{name} must be finite", f"{name} must be positive", out_of)]


def _checks(age, values) -> list:
    """The 22 fault flags of an age and the seven ANALYTES values in _MESSAGES
    order: the age out of range, then each analyte's non-finite, non-positive
    and out-of-range flags.  Comparisons, & and | alone build them, so the same
    code checks one record's Python numbers and a batch's numpy columns."""
    flags = [(age < _LOW[0]) | (age > _HIGH[0])]
    for value, low, high in zip(values, _LOW[1:], _HIGH[1:]):
        finite = (value < math.inf) & (value > -math.inf)
        flags += [(value != value) | (value == math.inf) | (value == -math.inf),
                  finite & (value <= 0),
                  finite & (value > 0) & ((value < low) | (value > high))]
    return flags


def validate_record(record: CbcRecord) -> list[str]:
    """The record's violation strings in _MESSAGES order (empty means valid), after check_types."""
    check_types(record)
    return list(compress(_MESSAGES, _checks(record.age,
                                            [float(getattr(record, n)) for n in ANALYTES])))


def check_record(record: CbcRecord) -> None:
    """Raise ValidationError listing all violations if the record is invalid."""
    violations = validate_record(record)
    if violations:
        raise ValidationError(violations)


def int64_ages(ages: list[int]) -> np.ndarray:
    """The ages as an int64 array, one past int64 held at its nearest end:
    out of [0, 120] either way."""
    low, high = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    return np.array(ages, dtype=object).clip(low, high).astype(np.int64)


def check_types(record: CbcRecord) -> None:
    """Raise TypeError unless the record holds what a CSV row can: an int age,
    a Gender and int or float analytes, none of them a bool."""
    if not isinstance(record.age, int) or isinstance(record.age, bool):
        raise TypeError(f"age must be an integer, got {record.age!r}")
    if not isinstance(record.gender, Gender):
        raise TypeError(f"gender must be male or female, got {record.gender!r}")
    for name in ANALYTES:
        value = getattr(record, name)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise TypeError(f"{name} must be a number, got {value!r}")


@dataclass(frozen=True, eq=False)
class CbcColumns:
    """A batch of CBC panels held as columns, the form screening works on.

    ``age`` is an int64 array, an age past int64 held at its nearest end.
    ``gender`` is int8, 0 for male and 1 for female.  ``analytes`` is an
    (N, 7) float matrix in ANALYTES order.  ``label`` holds int8 LABELS
    codes, or is None for an unlabeled batch.
    """

    age: np.ndarray
    gender: np.ndarray
    analytes: np.ndarray
    label: np.ndarray | None = None
    # Set once every row has passed invalid_rows (in load_csv or
    # check_records), so invalid_rows does not run the checks again; take()
    # passes it on.  The arrays are not changed after that.
    _checked: bool = field(default=False, init=False, repr=False)

    def __len__(self) -> int:
        return len(self.gender)

    @classmethod
    def of(cls, records) -> "CbcColumns":
        """The columns themselves, or those of a sequence of (labeled) records,
        each checked by check_types; labeled when every item is a LabeledRecord."""
        if isinstance(records, cls):
            return records
        records = list(records)
        labeled = all(isinstance(r, LabeledRecord) for r in records)
        labels = np.array([LABELS.index(r.label) for r in records], np.int8) if labeled else None
        records = [r.record if isinstance(r, LabeledRecord) else r for r in records]
        for record in records:
            check_types(record)
        n = len(records)
        analytes = np.fromiter(map(attrgetter(*ANALYTES), records), (float, len(ANALYTES)), n)
        genders = np.fromiter((r.gender is Gender.FEMALE for r in records), np.int8, n)
        return cls(int64_ages([r.age for r in records]), genders, analytes, labels)

    def take(self, rows) -> "CbcColumns":
        """The batch of the given row indices, in that order."""
        rows = np.asarray(rows, dtype=np.intp)
        label = None if self.label is None else self.label[rows]
        part = CbcColumns(self.age[rows], self.gender[rows], self.analytes[rows], label)
        return part._mark_checked() if self._checked else part

    def _mark_checked(self) -> "CbcColumns":
        object.__setattr__(self, "_checked", True)
        return self

    def anemic(self) -> "CbcColumns":
        """The rows of a labeled batch whose label is an anemia subtype, in order."""
        return self.take(np.flatnonzero(self.label > 0))


def validate_records(records) -> list[list[str]]:
    """validate_record for every row of a batch, computed column by column.

    Accepts CbcColumns or a sequence of (labeled) records and returns, per
    row, its violation strings in validate_record's order.
    """
    batch = CbcColumns.of(records)
    out = [[] for _ in range(len(batch))]
    rows, violations = invalid_rows(batch)
    for row, row_violations in zip(rows.tolist(), violations):
        out[row] = row_violations
    return out


def invalid_rows(records) -> tuple[np.ndarray, list[list[str]]]:
    """The indices of the rows that fail validation, in order, and each one's
    violation strings, from one pass over the batch; none for columns that
    load_csv or check_records validated."""
    batch = CbcColumns.of(records)
    if batch._checked:
        return np.empty(0, np.intp), []
    faults = _faults(batch)
    rows = np.flatnonzero(faults.any(axis=1))
    return rows, [list(compress(_MESSAGES, row)) for row in faults[rows].tolist()]


def check_records(records) -> CbcColumns:
    """The records as columns; raises ValidationError for the first invalid row."""
    batch = CbcColumns.of(records)
    violations = invalid_rows(batch)[1]
    if violations:
        raise ValidationError(violations[0])
    return batch._mark_checked()


def _faults(batch: CbcColumns) -> np.ndarray:
    """(N, 22) bool matrix: row r fails check c, in _MESSAGES order."""
    return np.stack(_checks(batch.age, batch.analytes.T), axis=1)


def rule_label(
    record: CbcRecord, ranges: ReferenceRanges = DEFAULT_RANGES, strict: bool = False
) -> AnemiaLabel:
    """Label a record with the clinical rule.

    Hemoglobin at or above the gender threshold means non-anemic.  Anemic
    samples are typed by MCV, MCH and MCHC: all three below their lows is
    microcytic, all three above their highs is macrocytic, all three
    within range is normocytic.  When the indices disagree, MCV (the
    cell-size index) decides alone; with ``strict=True`` the mixed case
    raises UnclassifiableError instead.
    """
    check_record(record)
    if record.hgb >= ranges.hgb_low(record.gender):
        return AnemiaLabel.NON_ANEMIC

    values = {name: getattr(record, name) for name in ("mcv", "mch", "mchc")}
    lows = {name: v < ranges.index_range(name)[0] for name, v in values.items()}
    highs = {name: v > ranges.index_range(name)[1] for name, v in values.items()}
    if all(lows.values()):
        return AnemiaLabel.MICROCYTIC
    if all(highs.values()):
        return AnemiaLabel.MACROCYTIC
    if not any(lows.values()) and not any(highs.values()):
        return AnemiaLabel.NORMOCYTIC
    if strict:
        raise UnclassifiableError(
            "typing indices disagree: "
            + ", ".join(f"{n}={v:g}" for n, v in values.items())
        )
    if lows["mcv"]:
        return AnemiaLabel.MICROCYTIC
    if highs["mcv"]:
        return AnemiaLabel.MACROCYTIC
    return AnemiaLabel.NORMOCYTIC
