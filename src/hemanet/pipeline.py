"""Two-stage clinical flow: binary diagnosis, subtype classification on
positives only, and report emission.

Per-record failures are isolated into error entries so one bad row never
kills a batch.  The classification network is never evaluated for a
record diagnosed healthy.  Screening and evaluation run the networks
through one batched helper, so they compute bit-identical raw outputs for
the same rows.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .metrics import (
    DIAGNOSIS_LABELS,
    FOURWAY_LABELS,
    SUBTYPE_LABELS,
    ConfusionMatrix,
)
from .models import NarxModel, decode_subtypes, encode_targets
from .nncore import NumericError
from .preprocess import encode_batch
from .records import AnemiaLabel, check_record
from .serialize import ModelBundle

REPORT_FORMATS = ("text", "json", "csv")

#: Rows per network call.  A whole-batch forward holds the (rows, hidden)
#: activations and sigmoid's temporaries of every row at once; blocks of
#: this size bound that memory while the per-call overhead stays negligible.
FORWARD_BLOCK_ROWS = 1024


class NonFiniteOutputError(NumericError):
    """A network produced a non-finite output where a verdict was due."""


@dataclass
class DiagnosisResult:
    """One record's diagnosis; verdict is None when the raw output is not finite."""

    verdict: int | None
    raw: float
    threshold: float


@dataclass
class PatientReport:
    patient_id: object
    verdict: int | None = None
    subtype: AnemiaLabel | None = None
    raw_diagnosis: float | None = None
    raw_classify: list[float] | None = None
    models: str = ""
    timestamp: str | None = None
    error: str | None = None


def check_threshold(threshold: float) -> None:
    """Raise ValueError unless the decision threshold is finite and in [0, 1]."""
    if not 0.0 <= threshold <= 1.0:  # NaN fails both comparisons
        raise ValueError(f"threshold must be a finite number in [0, 1], got {threshold!r}")


def diagnose(diag: ModelBundle, records, threshold: float = 0.5) -> list[DiagnosisResult]:
    """Binary anemic/healthy calls for a batch of records, in input order.

    Every record is validated first.  A raw output at or above threshold is
    positive; a non-finite raw output gets no verdict.
    """
    records = list(records)
    for record in records:
        check_record(record)
    raw, positive, finite = _diagnose(diag, records, threshold)
    return [
        DiagnosisResult(verdict=int(p) if f else None, raw=r, threshold=threshold)
        for r, p, f in zip(raw, positive, finite)
    ]


def _diagnose(diag: ModelBundle, records, threshold: float):
    """(raw, positive, finite) lists for already-validated records."""
    if diag.output_encoding != "binary1":
        raise ValueError("diagnosis requires a binary1 model")
    check_threshold(threshold)
    raw = _bundle_outputs(diag, records)[:, 0]
    return raw.tolist(), (raw >= threshold).tolist(), np.isfinite(raw).tolist()


def classify(clf: ModelBundle, records, diagnoses):
    """Subtype calls for diagnosed-positive records; returns (labels, raw outputs).

    ``diagnoses`` aligns with ``records``.  A row whose raw outputs are not
    all finite gets the label None.
    """
    diagnoses = list(diagnoses)
    if any(result.verdict != 1 for result in diagnoses):
        raise ValueError("classify called on a healthy verdict (pipeline contract violation)")
    records = list(records)
    if len(records) != len(diagnoses):
        raise ValueError("diagnoses must align with records")
    return _classify(clf, records)


def _classify(clf: ModelBundle, records):
    if clf.output_encoding not in ("onehot3", "banded1"):
        raise ValueError("classification requires an onehot3 or banded1 model")
    raw = _bundle_outputs(clf, records)
    labels = decode_subtypes(raw, clf.output_encoding)
    finite = np.isfinite(raw).all(axis=1).tolist()
    return [label if ok else None for label, ok in zip(labels, finite)], raw


def run_pipeline(
    diag: ModelBundle,
    clf: ModelBundle,
    records,
    threshold: float = 0.5,
    ids=None,
    deterministic: bool = False,
) -> list[PatientReport]:
    """Diagnose every record, classify positives, and report in input order.

    Each record is validated on its own; an invalid one becomes an error
    entry.  The valid records go through one diagnosis pass and the
    positives through one classification pass.  A row whose raw output is
    not finite becomes an error entry, never a verdict.
    """
    _reject_stream_bundles(diag, clf)
    check_threshold(threshold)
    ids = list(ids) if ids is not None else list(range(len(records)))
    if len(ids) != len(records):
        raise ValueError("ids must align with records")
    stamp = None if deterministic else _now()
    models = f"{diag.identity}|{clf.identity}"
    reports = [PatientReport(patient_id=pid, models=models, timestamp=stamp) for pid in ids]
    valid_reports, valid_records = [], []
    for report, record in zip(reports, records):
        try:
            check_record(record)
        except ValueError as exc:
            report.error = str(exc)
        else:
            valid_reports.append(report)
            valid_records.append(record)

    raw, positive, finite = _diagnose(diag, valid_records, threshold)
    positive_reports, positive_records = [], []
    for report, record, r, p, f in zip(valid_reports, valid_records, raw, positive, finite):
        if not f:
            report.error = "non-finite diagnosis output"
            continue
        report.verdict = int(p)
        report.raw_diagnosis = r
        if p:
            positive_reports.append(report)
            positive_records.append(record)

    labels, raw = _classify(clf, positive_records)
    for report, label, outputs in zip(positive_reports, labels, raw.tolist()):
        if label is None:
            report.verdict = report.raw_diagnosis = None
            report.error = "non-finite classification output"
        else:
            report.subtype = label
            report.raw_classify = outputs
    return reports


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _reject_stream_bundles(*bundles: ModelBundle) -> None:
    for bundle in bundles:
        if isinstance(bundle.net, NarxModel) and bundle.net.mode == "stream":
            raise ValueError(
                "stream-mode NARX models need a labeled history and cannot "
                "serve per-record predictions"
            )


def emit_reports(
    reports: list[PatientReport],
    fmt: str = "text",
    model_files=(),
    threshold: float = 0.5,
    created: str | None = None,
) -> str:
    """Render patient reports as text, JSON, or CSV."""
    if fmt not in REPORT_FORMATS:
        raise ValueError(f"unknown report format {fmt!r}")
    if fmt == "text":
        lines = ["# anemia screening report"]
        if model_files:
            lines.append(f"# models: {' '.join(str(m) for m in model_files)}")
        lines.append(f"# threshold: {threshold:g}")
        if created:
            lines.append(f"# created: {created}")
        for r in reports:
            lines.append(_text_line(r))
        return "\n".join(lines) + "\n"
    if fmt == "json":
        doc = {
            "meta": {
                "model_files": [str(m) for m in model_files],
                "threshold": threshold,
                **({"created": created} if created else {}),
            },
            "patients": [_patient_doc(r) for r in reports],
        }
        return json.dumps(doc, indent=1) + "\n"
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["id", "verdict", "subtype", "raw_diagnosis"])
    for r in reports:
        writer.writerow([
            r.patient_id,
            "" if r.verdict is None else r.verdict,
            r.subtype.value if r.subtype is not None else "",
            "" if r.raw_diagnosis is None else repr(r.raw_diagnosis),
        ])
    return out.getvalue()


def _text_line(r: PatientReport) -> str:
    if r.error is not None:
        return f"#{r.patient_id}: ERROR ({r.error})"
    if r.verdict == 0:
        return f"#{r.patient_id}: NON-ANEMIC (p={r.raw_diagnosis:.2f})"
    return f"#{r.patient_id}: {r.subtype.value.upper()} (p={r.raw_diagnosis:.2f})"


def _patient_doc(r: PatientReport) -> dict:
    if r.error is not None:
        return {"id": r.patient_id, "error": r.error}
    doc = {"id": r.patient_id, "verdict": r.verdict, "raw": {"diagnosis": r.raw_diagnosis}}
    if r.verdict == 1:
        doc["subtype"] = r.subtype.value
        doc["raw"]["classify"] = r.raw_classify
    return doc


def _bundle_outputs(bundle: ModelBundle, records, targets=None) -> np.ndarray:
    """Raw network outputs for already-validated records, honoring NARX modes.

    Rows go through the network FORWARD_BLOCK_ROWS at a time, except for a
    stream-mode NARX, whose teacher-forced taps run along the whole stream.
    """
    X = bundle.normalizer.apply(encode_batch(records, bundle.feature_spec))
    net = bundle.net
    if isinstance(net, NarxModel):
        if net.mode == "stream":
            if targets is None:
                raise ValueError("stream-mode NARX evaluation needs labeled data")
            outputs, _ = net.predict_stream(X, targets)
            return outputs
        forward = net.predict_record_batch
    else:
        forward = net.predict_batch
    outputs = np.empty((len(X), net.out_dim))
    for start in range(0, len(X), FORWARD_BLOCK_ROWS):
        outputs[start:start + FORWARD_BLOCK_ROWS] = forward(X[start:start + FORWARD_BLOCK_ROWS])
    return outputs


def _finite_outputs(bundle: ModelBundle, records, targets) -> np.ndarray:
    """_bundle_outputs, raising NonFiniteOutputError if any row is not finite."""
    outputs = _bundle_outputs(bundle, records, targets)
    bad = int(np.count_nonzero(~np.isfinite(outputs).all(axis=1)))
    if bad:
        raise NonFiniteOutputError(
            f"model {bundle.identity} gave non-finite outputs on {bad} of {len(outputs)} rows"
        )
    return outputs


def evaluate_diagnosis(diag: ModelBundle, labeled, threshold: float = 0.5) -> ConfusionMatrix:
    """2x2 confusion matrix of the binary stage over labeled records.

    Raises NonFiniteOutputError if any raw output is not finite.
    """
    if diag.output_encoding != "binary1":
        raise ValueError("diagnosis evaluation requires a binary1 model")
    check_threshold(threshold)
    targets = encode_targets([item.label for item in labeled], "binary1")
    outputs = _finite_outputs(diag, labeled, targets)
    truths = [DIAGNOSIS_LABELS[int(item.label.is_anemic)] for item in labeled]
    preds = [DIAGNOSIS_LABELS[p] for p in (outputs[:, 0] >= threshold).tolist()]
    return ConfusionMatrix.from_pairs(truths, preds, DIAGNOSIS_LABELS)


def evaluate_classification(clf: ModelBundle, labeled) -> ConfusionMatrix:
    """3x3 confusion matrix of the subtype stage over the anemic records.

    Raises NonFiniteOutputError if any raw output is not finite.
    """
    if clf.output_encoding not in ("onehot3", "banded1"):
        raise ValueError("classification evaluation requires an onehot3 or banded1 model")
    anemic = [item for item in labeled if item.label.is_anemic]
    targets = encode_targets([item.label for item in anemic], clf.output_encoding)
    outputs = _finite_outputs(clf, anemic, targets)
    truths = [item.label.value for item in anemic]
    preds = [label.value for label in decode_subtypes(outputs, clf.output_encoding)]
    return ConfusionMatrix.from_pairs(truths, preds, SUBTYPE_LABELS)


def evaluate_pipeline(
    diag: ModelBundle,
    clf: ModelBundle,
    labeled,
    threshold: float = 0.5,
) -> ConfusionMatrix:
    """4x4 confusion matrix of the gated two-stage flow."""
    _reject_stream_bundles(diag, clf)
    reports = run_pipeline(
        diag, clf, [item.record for item in labeled], threshold, deterministic=True
    )
    truths, preds = [], []
    for item, report in zip(labeled, reports):
        if report.error is not None:
            raise ValueError(f"record {report.patient_id} failed validation: {report.error}")
        truths.append(item.label.value)
        if report.verdict == 0:
            preds.append(AnemiaLabel.NON_ANEMIC.value)
        else:
            preds.append(report.subtype.value)
    return ConfusionMatrix.from_pairs(truths, preds, FOURWAY_LABELS)
