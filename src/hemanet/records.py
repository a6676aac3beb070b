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
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
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


def validate_record(record: CbcRecord) -> list[str]:
    """Return every violated DEFAULT_BOUNDS bound (empty list means the record is valid)."""
    violations = []
    if not isinstance(record.age, int) or isinstance(record.age, bool):
        violations.append("age must be an integer")
    elif not 0 <= record.age <= 120:
        violations.append("age out of [0, 120]")
    if not isinstance(record.gender, Gender):
        violations.append("gender must be male or female")
    for name in ANALYTES:
        value = getattr(record, name)
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            violations.append(f"{name} must be finite")
            continue
        if value <= 0:
            violations.append(f"{name} must be positive")
            continue
        if name == "hct":
            if not 0 < value < 100:
                violations.append("hct out of (0, 100)")
        elif name in DEFAULT_BOUNDS:
            low, high = DEFAULT_BOUNDS[name]
            if not low <= value <= high:
                violations.append(f"{name} out of [{low:g}, {high:g}]")
    return violations


def check_record(record: CbcRecord) -> None:
    """Raise ValidationError listing all violations if the record is invalid."""
    violations = validate_record(record)
    if violations:
        raise ValidationError(violations)


@dataclass(frozen=True, eq=False)
class CbcColumns:
    """A batch of CBC panels held as columns, the form screening works on.

    ``age`` is an int64 array; it holds Python objects instead when an age
    does not fit int64 or is not an int.  ``gender`` is 0 for male, 1 for
    female and -1 for a value that is not a Gender.  ``analytes`` is an
    (N, 7) float matrix in ANALYTES order, NaN where a value is neither
    an int nor a float.  Only in-memory records carry these odd cases.
    ``label`` holds int8 LABELS codes, or is None for an unlabeled batch.
    """

    age: np.ndarray
    gender: np.ndarray
    analytes: np.ndarray
    label: np.ndarray | None = None
    # Set once every row has passed validate_records (in load_csv or
    # check_records), so check_records does not run the checks again; take()
    # passes it on.  The arrays are not changed after that.
    _checked: bool = field(default=False, init=False, repr=False)

    def __len__(self) -> int:
        return len(self.gender)

    @classmethod
    def of(cls, records) -> "CbcColumns":
        """The columns themselves, or those of a sequence of (labeled) records;
        labeled when every item is a LabeledRecord."""
        if isinstance(records, cls):
            return records
        records = list(records)
        labeled = all(isinstance(r, LabeledRecord) for r in records)
        labels = np.array([LABELS.index(r.label) for r in records], np.int8) if labeled else None
        records = [r.record if isinstance(r, LabeledRecord) else r for r in records]
        n = len(records)
        genders = [0 if g is Gender.MALE else 1 if g is Gender.FEMALE else -1
                   for g in map(attrgetter("gender"), records)]
        analytes = np.empty((n, len(ANALYTES)))
        for column, name in enumerate(ANALYTES):
            values = list(map(attrgetter(name), records))
            if not set(map(type, values)) <= {float, int}:
                values = [v if isinstance(v, (int, float)) else math.nan for v in values]
            analytes[:, column] = np.fromiter(values, float, n)
        ages = age_column([r.age for r in records])
        return cls(ages, np.array(genders, dtype=np.int8), analytes, labels)

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


def age_column(ages) -> np.ndarray:
    """Ages as int64, or as Python objects when one is not an int or exceeds int64."""
    if set(map(type, ages)) <= {int}:
        try:
            return np.array(ages, dtype=np.int64)
        except OverflowError:
            pass
    return np.fromiter(ages, dtype=object, count=len(ages))


# validate_record's checks as columns: each analyte's DEFAULT_BOUNDS range
# (hct's is the open (0, 100)) and the message of each check, in its order.
_LOW = np.array([DEFAULT_BOUNDS.get(n, (-np.inf, np.inf))[0] for n in ANALYTES])
_HIGH = np.array([DEFAULT_BOUNDS.get(n, (-np.inf, np.inf))[1] for n in ANALYTES])
_HCT = ANALYTES.index("hct")
_MESSAGES = ["age must be an integer", "age out of [0, 120]", "gender must be male or female"]
_MESSAGES += [
    message
    for name, low, high in zip(ANALYTES, _LOW, _HIGH)
    for message in (
        f"{name} must be finite",
        f"{name} must be positive",
        "hct out of (0, 100)" if name == "hct" else f"{name} out of [{low:g}, {high:g}]",
    )
]


def validate_records(records) -> list[list[str]]:
    """validate_record for every row of a batch, computed column by column.

    Accepts CbcColumns or a sequence of (labeled) records and returns, per
    row, its violation strings under DEFAULT_BOUNDS in a fixed order: age,
    gender, then each analyte's finiteness, sign and range.
    """
    batch = CbcColumns.of(records)
    out = [[] for _ in range(len(batch))]
    rows, checks = np.nonzero(_faults(batch))
    for row, check in zip(rows.tolist(), checks.tolist()):
        out[row].append(_MESSAGES[check])
    return out


def invalid_rows(records) -> np.ndarray:
    """Indices of the rows validate_records finds violations in, without its lists."""
    return np.flatnonzero(_faults(CbcColumns.of(records)).any(axis=1))


def check_records(records) -> CbcColumns:
    """The records as columns; raises ValidationError for the first invalid row.

    Columns that load_csv or an earlier check_records call validated are
    returned without checking them again.
    """
    batch = CbcColumns.of(records)
    if batch._checked:
        return batch
    bad = invalid_rows(batch)
    if bad.size:
        raise ValidationError(validate_records(batch.take(bad[:1]))[0])
    return batch._mark_checked()


def _faults(batch: CbcColumns) -> np.ndarray:
    """(N, 24) bool matrix: row r fails check c, in _MESSAGES order."""
    age, values = batch.age, batch.analytes
    if age.dtype == object:
        is_int = np.array([isinstance(a, int) and not isinstance(a, bool) for a in age], bool)
        in_range = np.array([ok and 0 <= a <= 120 for a, ok in zip(age, is_int)], bool)
    else:
        is_int = np.ones(len(age), bool)
        in_range = (age >= 0) & (age <= 120)
    inside = (_LOW <= values) & (values <= _HIGH)
    inside[:, _HCT] = values[:, _HCT] < 100
    finite = np.isfinite(values)
    positive = finite & (values > 0)
    analyte_faults = np.stack([~finite, finite & ~positive, positive & ~inside], axis=2)
    return np.concatenate([
        np.stack([~is_int, is_int & ~in_range, batch.gender < 0], axis=1),
        analyte_faults.reshape(len(batch), 3 * len(ANALYTES)),
    ], axis=1)


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
