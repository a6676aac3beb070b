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
import math
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .metrics import (
    DIAGNOSIS_LABELS,
    FOURWAY_LABELS,
    SUBTYPE_LABELS,
    ConfusionMatrix,
)
from .models import NarxModel, encode_targets, subtype_indices
from .nncore import NumericError
from .preprocess import encode_batch
from .records import SUBTYPES, AnemiaLabel, CbcColumns, check_records, validate_records
from .serialize import ModelBundle

REPORT_FORMATS = ("text", "json", "csv")

#: Rows per network call.  A whole-batch forward holds the (rows, hidden)
#: activations and the in-place sigmoid's numerators of every row at once;
#: blocks of this size bound that memory while per-call overhead stays small.
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

    Every record is validated first; the first invalid one raises
    ValidationError.  A raw output at or above threshold is positive; a
    non-finite raw output gets no verdict.
    """
    records = check_records(records)
    raw, positive, finite = _diagnose(diag, records, threshold)
    return [
        DiagnosisResult(verdict=int(p) if f else None, raw=r, threshold=threshold)
        for r, p, f in zip(raw.tolist(), positive.tolist(), finite.tolist())
    ]


def _diagnose(diag: ModelBundle, records, threshold: float):
    """(raw, positive, finite) arrays for already-validated records."""
    if diag.output_encoding != "binary1":
        raise ValueError("diagnosis requires a binary1 model")
    check_threshold(threshold)
    raw = _bundle_outputs(diag, records)[:, 0]
    return raw, raw >= threshold, np.isfinite(raw)


def classify(clf: ModelBundle, records, diagnoses):
    """Subtype calls for diagnosed-positive records; returns (labels, raw outputs).

    ``diagnoses`` aligns with ``records``.  A row whose raw outputs are not
    all finite gets the label None.
    """
    diagnoses = list(diagnoses)
    if any(result.verdict != 1 for result in diagnoses):
        raise ValueError("classify called on a healthy verdict (pipeline contract violation)")
    records = CbcColumns.of(records)
    if len(records) != len(diagnoses):
        raise ValueError("diagnoses must align with records")
    index, finite, raw = _classify(clf, records)
    return [SUBTYPES[i] if ok else None for i, ok in zip(index.tolist(), finite.tolist())], raw


def _classify(clf: ModelBundle, records):
    """(SUBTYPES index, finite, raw outputs) arrays for already-validated records."""
    if clf.output_encoding not in ("onehot3", "banded1"):
        raise ValueError("classification requires an onehot3 or banded1 model")
    raw = _bundle_outputs(clf, records)
    return subtype_indices(raw, clf.output_encoding), np.isfinite(raw).all(axis=1), raw


def run_pipeline(
    diag: ModelBundle,
    clf: ModelBundle,
    records,
    threshold: float = 0.5,
    ids=None,
    deterministic: bool = False,
) -> list[PatientReport]:
    """Diagnose every record, classify positives, and report in input order.

    Records come as CbcColumns or as a sequence of CbcRecord.  They are
    validated together; an invalid one becomes an error entry naming its
    violations.  The valid records go through one diagnosis pass and the
    positives through one classification pass.  A row whose raw output is
    not finite becomes an error entry, never a verdict.
    """
    _reject_stream_bundles(diag, clf)
    check_threshold(threshold)
    batch = CbcColumns.of(records)
    ids = list(ids) if ids is not None else list(range(len(batch)))
    if len(ids) != len(batch):
        raise ValueError("ids must align with records")
    stamp = None if deterministic else _now()
    models = f"{diag.identity}|{clf.identity}"
    reports = [PatientReport(patient_id=pid, models=models, timestamp=stamp) for pid in ids]
    valid = []
    for row, violations in enumerate(validate_records(batch)):
        if violations:
            reports[row].error = "; ".join(violations)
        else:
            valid.append(row)
    raw, positive, finite = _diagnose(diag, batch.take(valid), threshold)
    positives = []
    for row, r, p, f in zip(valid, raw.tolist(), positive.tolist(), finite.tolist()):
        report = reports[row]
        if not f:
            report.error = "non-finite diagnosis output"
            continue
        report.verdict = int(p)
        report.raw_diagnosis = r
        if p:
            positives.append(row)

    index, finite, raw = _classify(clf, batch.take(positives))
    for row, i, ok, outputs in zip(positives, index.tolist(), finite.tolist(), raw.tolist()):
        report = reports[row]
        if not ok:
            report.verdict = report.raw_diagnosis = None
            report.error = "non-finite classification output"
        else:
            report.subtype = SUBTYPES[i]
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
        meta = {
            "model_files": [str(m) for m in model_files],
            "threshold": threshold,
            **({"created": created} if created else {}),
        }
        return _render_json(meta, reports)
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["id", "verdict", "subtype", "raw_diagnosis", "error"])
    for r in reports:
        writer.writerow([
            r.patient_id,
            "" if r.verdict is None else r.verdict,
            r.subtype.value if r.subtype is not None else "",
            "" if r.raw_diagnosis is None else repr(r.raw_diagnosis),
            "" if r.error is None else r.error,
        ])
    return out.getvalue()


def _text_line(r: PatientReport) -> str:
    if r.error is not None:
        return f"#{r.patient_id}: ERROR ({r.error})"
    if r.verdict == 0:
        return f"#{r.patient_id}: NON-ANEMIC (p={r.raw_diagnosis:.2f})"
    return f"#{r.patient_id}: {r.subtype.value.upper()} (p={r.raw_diagnosis:.2f})"


def _render_json(meta: dict, reports) -> str:
    """json.dumps({"meta": meta, "patients": [...]}, indent=1) + "\n", byte for byte.

    With indent set, json.dumps runs its pure-Python encoder.  Here each
    patient is written from a fixed template, with the scalars encoded as
    json encodes them; json.dumps writes only the meta block and any
    patient holding a value of another type.
    """
    head = '{\n "meta": ' + json.dumps(meta, indent=1).replace("\n", "\n ")
    if not reports:
        return head + ',\n "patients": []\n}\n'
    patients = ",\n".join([_patient_json(r) for r in reports])
    return head + ',\n "patients": [\n' + patients + '\n ]\n}\n'


_json_str = json.encoder.encode_basestring_ascii  # json.dumps' string encoder
_JSON_IDS = {int: int.__repr__, str: _json_str}
_JSON_LABELS = {label: _json_str(label.value) for label in AnemiaLabel}


def _json_float(value) -> str | None:
    """The text json writes for a finite float, else None."""
    return float.__repr__(value) if type(value) is float and math.isfinite(value) else None


def _patient_json(r: PatientReport) -> str:
    """_patient_doc(r) as json.dumps(..., indent=1) writes it two levels deep."""
    encode_id = _JSON_IDS.get(type(r.patient_id))
    if encode_id is not None and (r.error is None or type(r.error) is str):
        pid = encode_id(r.patient_id)
        if r.error is not None:
            return f'  {{\n   "id": {pid},\n   "error": {_json_str(r.error)}\n  }}'
        diagnosis = _json_float(r.raw_diagnosis)
        if diagnosis is not None and type(r.verdict) is int and r.verdict in (0, 1):
            head = (f'  {{\n   "id": {pid},\n   "verdict": {r.verdict},\n   "raw": {{\n'
                    f'    "diagnosis": {diagnosis}')
            if r.verdict == 0:
                return head + "\n   }\n  }"
            raw = r.raw_classify
            outputs = list(map(_json_float, raw)) if type(raw) is list else []
            if type(r.subtype) is AnemiaLabel and outputs and None not in outputs:
                return (head + ',\n    "classify": [\n     ' + ",\n     ".join(outputs)
                        + '\n    ]\n   },\n   "subtype": ' + _JSON_LABELS[r.subtype] + "\n  }")
    return "  " + json.dumps(_patient_doc(r), indent=1).replace("\n", "\n  ")


def _patient_doc(r: PatientReport) -> dict:
    if r.error is not None:
        return {"id": r.patient_id, "error": r.error}
    doc = {"id": r.patient_id, "verdict": r.verdict, "raw": {"diagnosis": r.raw_diagnosis}}
    if r.verdict == 1:
        doc["subtype"] = r.subtype.value
        doc["raw"]["classify"] = r.raw_classify
    return doc


def _bundle_outputs(bundle: ModelBundle, records) -> np.ndarray:
    """Raw network outputs for already-validated records, honoring NARX modes.

    Rows go through the network FORWARD_BLOCK_ROWS at a time, except for a
    stream-mode NARX, whose taps run along the whole stream, teacher-forced
    with the targets of the records' labels.
    """
    X = bundle.normalizer.apply(encode_batch(records, bundle.feature_spec))
    net = bundle.net
    if isinstance(net, NarxModel):
        if net.mode == "stream":
            labels = CbcColumns.of(records).label
            if labels is None:
                raise ValueError("stream-mode NARX evaluation needs labeled data")
            outputs, _ = net.predict_stream(X, encode_targets(labels, bundle.output_encoding))
            return outputs
        forward = net.predict_record_batch
    else:
        forward = net.predict_batch
    outputs = np.empty((len(X), net.out_dim))
    for start in range(0, len(X), FORWARD_BLOCK_ROWS):
        outputs[start:start + FORWARD_BLOCK_ROWS] = forward(X[start:start + FORWARD_BLOCK_ROWS])
    return outputs


def _require_finite(models: str, finite: np.ndarray) -> None:
    """Raise NonFiniteOutputError naming ``models`` unless every row is finite."""
    bad = int(np.count_nonzero(~finite))
    if bad:
        raise NonFiniteOutputError(
            f"{models} gave non-finite outputs on {bad} of {len(finite)} rows"
        )


def evaluate_diagnosis(diag: ModelBundle, labeled, threshold: float = 0.5) -> ConfusionMatrix:
    """2x2 confusion matrix of the binary stage over labeled records.

    An invalid record raises ValidationError; a non-finite raw output
    raises NonFiniteOutputError.
    """
    batch = check_records(labeled)
    _, positive, finite = _diagnose(diag, batch, threshold)
    _require_finite(f"model {diag.identity}", finite)
    return ConfusionMatrix.from_codes(batch.label > 0, positive, DIAGNOSIS_LABELS)


def evaluate_classification(clf: ModelBundle, labeled) -> ConfusionMatrix:
    """3x3 confusion matrix of the subtype stage over the anemic records.

    An invalid record raises ValidationError; a non-finite raw output
    raises NonFiniteOutputError.
    """
    anemic = check_records(labeled).anemic()
    index, finite, _ = _classify(clf, anemic)
    _require_finite(f"model {clf.identity}", finite)
    return ConfusionMatrix.from_codes(anemic.label - 1, index, SUBTYPE_LABELS)


def evaluate_pipeline(
    diag: ModelBundle,
    clf: ModelBundle,
    labeled,
    threshold: float = 0.5,
) -> ConfusionMatrix:
    """4x4 confusion matrix of the gated two-stage flow.

    An invalid record raises ValidationError; a non-finite network output
    raises NonFiniteOutputError.
    """
    _reject_stream_bundles(diag, clf)
    batch = check_records(labeled)
    _, positive, finite = _diagnose(diag, batch, threshold)
    positives = np.flatnonzero(positive & finite)
    index, classified, _ = _classify(clf, batch.take(positives))
    finite[positives] = classified
    _require_finite(f"models {diag.identity}|{clf.identity}", finite)
    predictions = np.zeros(len(batch), dtype=np.intp)
    predictions[positives] = index + 1
    return ConfusionMatrix.from_codes(batch.label, predictions, FOURWAY_LABELS)
