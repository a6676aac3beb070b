"""Feature encoding, [-1, 1] min-max scaling, and deterministic splits."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .records import ANALYTES, LABELS, PANEL_FIELDS, CbcColumns, CbcRecord


@dataclass(frozen=True)
class FeatureSpec:
    """Ordered selection of record fields fed to a network."""

    names: tuple[str, ...]
    preset: str | None = None

    def __post_init__(self):
        if not self.names:
            raise ValueError("feature spec must name at least one feature")
        unknown = [n for n in self.names if n not in PANEL_FIELDS]
        if unknown:
            raise ValueError(f"unknown feature(s): {', '.join(unknown)}")
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate feature names")

    def __len__(self) -> int:
        return len(self.names)


FULL9 = FeatureSpec(PANEL_FIELDS, preset="full9")
PAPER7 = FeatureSpec(("age", "gender", "hgb", "hct", "mcv", "mch", "mchc"), preset="paper7")

FEATURE_PRESETS = {"full9": FULL9, "paper7": PAPER7}


def feature_spec(token: str) -> FeatureSpec:
    try:
        return FEATURE_PRESETS[token]
    except KeyError:
        raise ValueError(f"unknown feature preset {token!r}") from None


def encode(record: CbcRecord, spec: FeatureSpec = FULL9) -> np.ndarray:
    """Raw (unnormalized) feature vector; gender encoded male=0, female=1."""
    return encode_batch([record], spec)[0]


def encode_batch(records, spec: FeatureSpec = FULL9) -> np.ndarray:
    """(N, F) raw feature matrix of CbcColumns or of (labeled) records.

    Gender is encoded male=0, female=1.
    """
    batch = CbcColumns.of(records)
    matrix = np.empty((len(batch), len(spec)))
    for column, name in enumerate(spec.names):
        if name == "age":
            matrix[:, column] = batch.age
        elif name == "gender":
            matrix[:, column] = batch.gender
        else:
            matrix[:, column] = batch.analytes[:, ANALYTES.index(name)]
    return matrix


@dataclass(frozen=True, eq=False)
class Normalizer:
    """Per-feature min-max affine map onto [-1, +1], fitted on training data.

    apply is x -> 2(x - min)/(max - min) - 1, unclamped, so values outside
    the training range extrapolate linearly.  A constant feature maps to 0
    everywhere.
    """

    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        if self.mins.shape != self.maxs.shape or self.mins.ndim != 1:
            raise ValueError("mins/maxs must be matching 1-d arrays")
        if np.any(self.maxs < self.mins):
            raise ValueError("fitted max below min")

    def __len__(self) -> int:
        return len(self.mins)

    def apply(self, values) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if values.shape[-1] != len(self.mins):
            raise ValueError(
                f"vector length {values.shape[-1]} does not match fitted length {len(self.mins)}"
            )
        span = self.maxs - self.mins
        varies = span > 0
        out = values - self.mins  # the one temporary, updated in place
        out *= 2.0
        out /= np.where(varies, span, 1.0)
        out -= 1.0
        out[..., ~varies] = 0.0
        return out


def fit_normalizer(train_vectors) -> Normalizer:
    matrix = np.asarray(train_vectors, dtype=float)
    if matrix.size == 0:
        raise ValueError("cannot fit a normalizer on empty training data")
    bad = np.flatnonzero(~np.isfinite(matrix).all(axis=0))
    if bad.size:
        raise ValueError(f"cannot fit a normalizer: column {bad[0]} has a non-finite value")
    return Normalizer(mins=matrix.min(axis=0), maxs=matrix.max(axis=0))


def largest_remainder(weights, total: int) -> list[int]:
    """Allocate ``total`` integer units proportionally to ``weights``.

    Floors the exact quotas, then hands the leftover units to the largest
    fractional remainders (ties broken by position).  Deterministic and
    order-independent, which keeps split sizes reproducible.
    """
    weights = np.asarray(weights, dtype=float)
    if np.any(weights < 0):
        raise ValueError("weights must be non-negative")
    if weights.sum() == 0:
        raise ValueError("at least one weight must be positive")
    quotas = weights / weights.sum() * total
    base = np.floor(quotas).astype(int)
    leftover = total - int(base.sum())
    remainders = quotas - base
    for idx in sorted(range(len(weights)), key=lambda i: (-remainders[i], i))[:leftover]:
        base[idx] += 1
    return base.tolist()


SPLIT_PRESETS = {
    "40-40-20": (0.4, 0.4, 0.2),
    "paper-materials": (147 / 230, 83 / 230, 0.0),
}


@dataclass
class DatasetSplit:
    train: CbcColumns
    test: CbcColumns
    validation: CbcColumns
    fractions: tuple[float, float, float]
    seed: int
    stratified: bool = True

    def sizes(self) -> tuple[int, int, int]:
        return len(self.train), len(self.test), len(self.validation)


def split_dataset(
    records,
    fractions: tuple[float, float, float] = (0.4, 0.4, 0.2),
    seed: int = 0,
    stratified: bool = True,
) -> DatasetSplit:
    """Deterministic (train, test, validation) partition of labeled records.

    Takes CbcColumns or a sequence of LabeledRecord and returns the parts
    as CbcColumns.  Sizes come from largest-remainder rounding of the
    fractions; stratified mode applies the rounding class by class so
    per-class counts stay within one record of exact proportionality.
    """
    fractions = tuple(float(f) for f in fractions)
    if len(fractions) != 3:
        raise ValueError("expected exactly three fractions")
    if any(f < 0 for f in fractions):
        raise ValueError("fractions must be non-negative")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {sum(fractions)!r}")
    parts_in_use = sum(1 for f in fractions if f > 0)
    if parts_in_use == 0:
        raise ValueError("at least one fraction must be positive")
    batch = CbcColumns.of(records)
    if len(batch) < parts_in_use:
        raise ValueError(
            f"cannot split {len(batch)} record(s) into {parts_in_use} non-empty parts"
        )

    rng = np.random.default_rng(seed)
    buckets = ([], [], [])

    def assign(indices):
        indices = indices[rng.permutation(len(indices))]
        sizes = largest_remainder(fractions, len(indices))
        cut1, cut2 = sizes[0], sizes[0] + sizes[1]
        buckets[0].append(indices[:cut1])
        buckets[1].append(indices[cut1:cut2])
        buckets[2].append(indices[cut2:])

    if stratified:
        if batch.label is None:
            raise ValueError("a stratified split needs labeled records")
        for code in range(len(LABELS)):
            members = np.flatnonzero(batch.label == code)
            if members.size:
                assign(members)
    else:
        assign(np.arange(len(batch)))

    parts = []
    for bucket in buckets:
        rows = np.concatenate(bucket)
        # Re-shuffle so stratified parts are not grouped by class.
        parts.append(batch.take(rows[rng.permutation(len(rows))]))
    return DatasetSplit(
        train=parts[0],
        test=parts[1],
        validation=parts[2],
        fractions=fractions,
        seed=seed,
        stratified=stratified,
    )
