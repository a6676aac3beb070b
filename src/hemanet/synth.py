"""Seeded synthetic CBC generator.

Every emitted record is guaranteed to agree with the clinical rule: a
candidate is sampled inside the target class's analyte windows (kept a
margin away from every decision threshold), rounded to the CSV precision,
re-labeled with the rule, and rejected on any mismatch.  A fixed seed
reproduces the output list exactly.
"""
from __future__ import annotations

import numpy as np

from .records import (
    DEFAULT_BOUNDS,
    DEFAULT_RANGES,
    AnemiaLabel,
    CbcRecord,
    Gender,
    LabeledRecord,
    ReferenceRanges,
    rule_label,
)

# Sampling ranges for analytes the rule never consults.
_RBC_HEALTHY = (3.9, 6.1)
_RBC_ANEMIC = (2.2, 4.8)
_WBC = (4.0, 11.0)
_HCT_PER_HGB = (2.7, 3.1)
_AGE = (16, 90)

_MAX_TRIES = 1000


def _round6(value: float) -> float:
    """Round to the 6-significant-digit precision the CSV layer persists."""
    return float(format(value, ".6g"))


def _index_windows(ranges: ReferenceRanges, margin: float) -> dict:
    """Per-analyte sampling windows for the low/within/high regions."""
    windows = {}
    for name in ("mcv", "mch", "mchc"):
        plo, phi = DEFAULT_BOUNDS[name]
        low, high = ranges.index_range(name)
        m = margin * (phi - plo)
        windows[name] = {
            "low": (plo, low - m),
            "within": (low + m, high - m),
            "high": (high + m, phi),
        }
        for region, (a, b) in windows[name].items():
            if a >= b:
                raise ValueError(
                    f"margin {margin:g} leaves no {region} sampling window for {name}"
                )
    return windows


def _hgb_window(ranges, margin, gender, healthy):
    plo, phi = DEFAULT_BOUNDS["hgb"]
    threshold = ranges.hgb_low(gender)
    m = margin * (phi - plo)
    window = (threshold + m, phi) if healthy else (plo, threshold - m)
    if window[0] >= window[1]:
        side = "healthy" if healthy else "anemic"
        raise ValueError(f"margin {margin:g} leaves no {side} hgb window for {gender.value}")
    return window


#: Index region to draw from, per class.  Non-anemic patients get normal
#: indices for realism even though the rule never reads them.
_REGION = {
    AnemiaLabel.NON_ANEMIC: "within",
    AnemiaLabel.MICROCYTIC: "low",
    AnemiaLabel.NORMOCYTIC: "within",
    AnemiaLabel.MACROCYTIC: "high",
}


def synth_generate(
    n: int,
    class_counts: dict[AnemiaLabel, int],
    ranges: ReferenceRanges = DEFAULT_RANGES,
    seed: int = 0,
    margin: float = 0.05,
) -> list[LabeledRecord]:
    """Generate exactly ``class_counts[label]`` records per class, shuffled.

    ``margin`` is the threshold clearance as a fraction of each analyte's
    plausibility width; 0 disables the clearance (labels stay correct via
    rejection, but become sensitive to later perturbation).
    """
    counts = {label: int(class_counts.get(label, 0)) for label in AnemiaLabel}
    negative = [label.value for label, c in counts.items() if c < 0]
    if negative:
        raise ValueError(f"negative class count for: {', '.join(negative)}")
    total = sum(counts.values())
    if total != n:
        raise ValueError(f"class counts sum to {total}, expected n={n}")
    if not 0 <= margin < 0.5:
        raise ValueError("margin must be in [0, 0.5)")

    rng = np.random.default_rng(seed)
    windows = _index_windows(ranges, margin)

    out = []
    for label in AnemiaLabel:
        for _ in range(counts[label]):
            out.append(_one_record(rng, label, ranges, margin, windows))
    order = rng.permutation(len(out))
    return [out[i] for i in order]


def _one_record(rng, label, ranges, margin, windows) -> LabeledRecord:
    healthy = label is AnemiaLabel.NON_ANEMIC
    region = _REGION[label]
    for _ in range(_MAX_TRIES):
        gender = Gender.MALE if rng.integers(2) == 0 else Gender.FEMALE
        age = int(rng.integers(_AGE[0], _AGE[1] + 1))
        hgb = rng.uniform(*_hgb_window(ranges, margin, gender, healthy))
        mcv = rng.uniform(*windows["mcv"][region])
        mch = rng.uniform(*windows["mch"][region])
        mchc = rng.uniform(*windows["mchc"][region])
        rbc = rng.uniform(*(_RBC_HEALTHY if healthy else _RBC_ANEMIC))
        hct = hgb * rng.uniform(*_HCT_PER_HGB)
        wbc = rng.uniform(*_WBC)
        record = CbcRecord(
            age=age,
            gender=gender,
            rbc=_round6(rbc),
            hgb=_round6(hgb),
            hct=_round6(hct),
            mcv=_round6(mcv),
            mch=_round6(mch),
            mchc=_round6(mchc),
            wbc=_round6(wbc),
        )
        if rule_label(record, ranges) is label:
            return LabeledRecord(record, label)
    raise RuntimeError(f"could not sample a {label.value} record in {_MAX_TRIES} tries")
