"""Confusion matrices and accuracy/precision/recall/F1 reporting."""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .records import SUBTYPES, AnemiaLabel

DIAGNOSIS_LABELS = ("non_anemic", "anemic")
SUBTYPE_LABELS = tuple(label.value for label in SUBTYPES)
FOURWAY_LABELS = tuple(label.value for label in AnemiaLabel)


@dataclass
class ConfusionMatrix:
    """K x K counts; rows are truth, columns are prediction."""

    labels: tuple[str, ...]
    counts: np.ndarray

    def __post_init__(self):
        self.labels = tuple(self.labels)
        self.counts = np.asarray(self.counts, dtype=int)
        k = len(self.labels)
        if self.counts.shape != (k, k):
            raise ValueError(f"counts must be {k}x{k}, got {self.counts.shape}")
        if np.any(self.counts < 0):
            raise ValueError("counts must be non-negative")

    @classmethod
    def from_pairs(cls, truths, predictions, labels) -> "ConfusionMatrix":
        """Counts of (truth, prediction) label pairs; KeyError for an unknown label."""
        labels = tuple(labels)
        index = {label: i for i, label in enumerate(labels)}
        return cls.from_codes([index[t] for t in truths], [index[p] for p in predictions], labels)

    @classmethod
    def from_codes(cls, truths, predictions, labels) -> "ConfusionMatrix":
        """Counts of (truth, prediction) pairs given as indices into ``labels``."""
        k = len(labels)
        truths, predictions = (np.asarray(a, dtype=np.intp).ravel() for a in (truths, predictions))
        if len(truths) != len(predictions):
            raise ValueError(f"{len(truths)} truths but {len(predictions)} predictions")
        if ((truths < 0) | (truths >= k) | (predictions < 0) | (predictions >= k)).any():
            raise ValueError(f"label codes must lie in [0, {k})")
        return cls(labels, np.bincount(truths * k + predictions, minlength=k * k).reshape(k, k))

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def correct(self) -> int:
        return int(np.trace(self.counts))

    def index_of(self, label) -> int:
        if isinstance(label, int):
            return label
        return self.labels.index(label)


def accuracy(cm: ConfusionMatrix) -> float:
    if cm.total == 0:
        raise ValueError("empty confusion matrix")
    return cm.correct / cm.total


def precision_recall_f1(cm: ConfusionMatrix, positive) -> tuple[float, float, float]:
    """One-vs-rest metrics for the given class (name or index).

    Zero denominators yield 0 so the functions stay total; reports flag
    the degenerate cases.
    """
    if cm.total == 0:
        raise ValueError("empty confusion matrix")
    p = cm.index_of(positive)
    tp = int(cm.counts[p, p])
    fp = int(cm.counts[:, p].sum()) - tp
    fn = int(cm.counts[p, :].sum()) - tp
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return precision, recall, f1_score(precision, recall)


def f1_score(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def macro_metrics(cm: ConfusionMatrix) -> tuple[float, float, float]:
    """Unweighted mean of per-class precision/recall/F1."""
    per_class = [precision_recall_f1(cm, i) for i in range(len(cm.labels))]
    arr = np.array(per_class)
    return tuple(arr.mean(axis=0))


@dataclass
class EvalRow:
    name: str
    accuracy: float
    precision: float
    recall: float
    f1: float
    n: int
    per_class: dict[str, tuple[float, float, float]] = field(default_factory=dict)
    flags: list[str] = field(default_factory=list)


@dataclass
class EvalReport:
    rows: list[EvalRow]

    def render_text(self) -> str:
        header = f"{'model':<12} {'accuracy':>9} {'precision':>9} {'recall':>9} {'f1':>9} {'n':>6}"
        lines = [header, "-" * len(header)]
        for row in self.rows:
            lines.append(
                f"{row.name:<12} {row.accuracy:>9.4f} {row.precision:>9.4f} "
                f"{row.recall:>9.4f} {row.f1:>9.4f} {row.n:>6d}"
                + (f"   [{'; '.join(row.flags)}]" if row.flags else "")
            )
        return "\n".join(lines) + "\n"

    def render_json(self) -> str:
        doc = {
            "models": [
                {
                    "name": row.name,
                    "accuracy": row.accuracy,
                    "precision": row.precision,
                    "recall": row.recall,
                    "f1": row.f1,
                    "n": row.n,
                    **(
                        {"per_class": {k: list(v) for k, v in row.per_class.items()}}
                        if row.per_class
                        else {}
                    ),
                    **({"flags": row.flags} if row.flags else {}),
                }
                for row in self.rows
            ]
        }
        return json.dumps(doc, indent=1) + "\n"


def compare_report(named_matrices, positive=None) -> EvalReport:
    """One metrics row per (name, confusion matrix), in input order.

    With ``positive`` set, precision/recall/F1 are one-vs-rest for that
    class; otherwise they are macro averages, with the per-class values
    kept in the breakdown.
    """
    if not named_matrices:
        raise ValueError("no models to report on")
    rows = []
    for name, cm in named_matrices:
        per_class = {
            label: precision_recall_f1(cm, i) for i, label in enumerate(cm.labels)
        }
        if positive is not None:
            precision, recall, f1 = precision_recall_f1(cm, positive)
        else:
            precision, recall, f1 = macro_metrics(cm)
        flags = []
        if positive is not None:
            p = cm.index_of(positive)
            if cm.counts[:, p].sum() == 0:
                flags.append(f"no {cm.labels[p]} predictions (precision forced to 0)")
            if cm.counts[p, :].sum() == 0:
                flags.append(f"no {cm.labels[p]} truths (recall forced to 0)")
        rows.append(
            EvalRow(
                name=name,
                accuracy=accuracy(cm),
                precision=precision,
                recall=recall,
                f1=f1,
                n=cm.total,
                per_class=per_class,
                flags=flags,
            )
        )
    return EvalReport(rows)
