"""Two-stage clinical flow: binary diagnosis, subtype classification on
positives only, and report emission.

Per-record failures are isolated into error entries so one bad row never
kills a batch.  The classification network is never evaluated for a
record diagnosed healthy.  The two-stage evaluation scores the Screening
that run_pipeline returns, and every stage runs the networks through one
batched helper, so screening and evaluation compute bit-identical raw
outputs for the same rows.
"""
from __future__ import annotations

import csv
import io
import json
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .metrics import DIAGNOSIS_LABELS, FOURWAY_LABELS, SUBTYPE_LABELS, ConfusionMatrix
from .models import SUBTYPE_ENCODINGS, subtype_indices
from .nncore import NumericError
from .preprocess import encode_batch
from .records import SUBTYPES, AnemiaLabel, CbcColumns, check_records, invalid_rows
from .serialize import ModelBundle

REPORT_FORMATS = ("text", "json", "csv")

#: The diagnosis threshold a screen and an evaluation use unless given one.
DEFAULT_THRESHOLD = 0.5

#: Rows per network call.  A whole-batch forward holds the (rows, hidden)
#: activations and the in-place sigmoid's numerators of every row at once;
#: blocks of this size bound that memory while per-call overhead stays small.
FORWARD_BLOCK_ROWS = 1024


class NonFiniteOutputError(NumericError):
    """A network produced a non-finite output where a verdict was due."""


#: The verdict code of a failed row: invalid, or a non-finite network output.
ERROR = -1


@dataclass
class PatientReport:
    patient_id: int
    verdict: int | None = None
    subtype: AnemiaLabel | None = None
    raw_diagnosis: float | None = None
    raw_classify: list[float] | None = None
    error: str | None = None


@dataclass(eq=False)
class Screening(Sequence):
    """A screening run as columns, row i for input row i, whose id is i.

    ``verdict`` holds int8 codes 0 (healthy), 1 (anemic) and ERROR; ``error``
    the message of each failed row, None elsewhere.  ``raw_diagnosis`` and the
    (n, width) ``raw_classify`` hold NaN where a row has no output; ``subtype``
    holds SUBTYPES indices, read on rows neither failed nor healthy.  Its rows,
    as PatientReports built on demand, serve only the benchmark's positives
    counter and the tests; they go when that counter reads ``verdict``
    (ROADMAP item A).
    """

    verdict: np.ndarray
    raw_diagnosis: np.ndarray
    subtype: np.ndarray
    raw_classify: np.ndarray
    error: np.ndarray

    def __len__(self) -> int:
        return len(self.verdict)

    def __getitem__(self, row):
        if isinstance(row, slice):
            return [self[i] for i in range(len(self))[row]]
        row = range(len(self))[row]
        report = PatientReport(row, error=self.error.item(row))
        if report.error is None:
            report.verdict = self.verdict.item(row)
            report.raw_diagnosis = self.raw_diagnosis.item(row)
            if report.verdict != 0:
                report.subtype = SUBTYPES[self.subtype.item(row)]
                report.raw_classify = self.raw_classify[row].tolist()
        return report


def check_threshold(threshold: float) -> None:
    """Raise ValueError unless the decision threshold is finite and in [0, 1]."""
    if not 0.0 <= threshold <= 1.0:  # NaN fails both comparisons
        raise ValueError(f"threshold must be a finite number in [0, 1], got {threshold!r}")


def _diagnose(diag: ModelBundle, records, threshold: float):
    """(raw, positive, finite) arrays for already-validated records."""
    if diag.output_encoding != "binary1":
        raise ValueError("diagnosis requires a binary1 model")
    check_threshold(threshold)
    raw = _bundle_outputs(diag, records)[:, 0]
    return raw, raw >= threshold, np.isfinite(raw)


def _classify(clf: ModelBundle, records):
    """(SUBTYPES index, finite, raw outputs) arrays for already-validated records."""
    if clf.output_encoding not in SUBTYPE_ENCODINGS:
        raise ValueError(f"classification requires an {' or '.join(SUBTYPE_ENCODINGS)} model")
    raw = _bundle_outputs(clf, records)
    return subtype_indices(raw, clf.output_encoding), np.isfinite(raw).all(axis=1), raw


def run_pipeline(
    diag: ModelBundle, clf: ModelBundle, records, threshold: float = DEFAULT_THRESHOLD
) -> Screening:
    """Diagnose every record, classify positives, and report in input order.

    Records come as CbcColumns or as a sequence of CbcRecord.  The valid
    records go through one diagnosis pass and the positives through one
    classification pass.  An invalid record, or a non-finite raw output,
    makes an error row.
    """
    batch = CbcColumns.of(records)
    n = len(batch)
    bad, violations = invalid_rows(batch)
    error = np.full(n, None, object)
    error[bad] = list(map("; ".join, violations))
    valid = np.delete(np.arange(n), bad)
    verdict, raw_diagnosis = np.full(n, ERROR, np.int8), np.full(n, np.nan)

    raw, positive, finite = _diagnose(diag, batch.take(valid), threshold)
    error[valid[~finite]] = "non-finite diagnosis output"
    verdict[valid[finite]], raw_diagnosis[valid[finite]] = positive[finite], raw[finite]

    positives = valid[positive & finite]
    subtype = np.zeros(n, np.intp)
    subtype[positives], finite, raw = _classify(clf, batch.take(positives))
    lost = positives[~finite]
    error[lost] = "non-finite classification output"
    verdict[lost], raw_diagnosis[lost] = ERROR, np.nan
    raw_classify = np.full((n, raw.shape[1]), np.nan)
    raw_classify[positives[finite]] = raw[finite]
    return Screening(verdict, raw_diagnosis, subtype, raw_classify, error)


def emit_reports(s: Screening, fmt: str = "text", model_files=(),
                 threshold: float = DEFAULT_THRESHOLD, created: str | None = None) -> str:
    """Render the Screening s as text, JSON, or CSV: each field formatted a
    column at a time, one template per kind of row, the rows joined once."""
    if fmt not in REPORT_FORMATS:
        raise ValueError(f"unknown report format {fmt!r}")
    if fmt == "json":
        meta = {"model_files": [str(m) for m in model_files], "threshold": threshold,
                **({"created": created} if created else {})}
        return _render_json(meta, s)
    if fmt == "csv":  # csv writes a float as its repr; here a column at a time
        kind, (failed, _, _) = _kinds(s, s.verdict != 0)
        raw = np.fromiter(map(float.__repr__, s.raw_diagnosis.tolist()), object, len(s))
        verdict = s.verdict.astype(object)
        verdict[failed] = raw[failed] = None  # written blank
        subtype = _CSV_LABELS[np.where(kind == 2, s.subtype, len(SUBTYPES))]
        writer = csv.writer(out := io.StringIO())
        writer.writerow(["id", "verdict", "subtype", "raw_diagnosis", "error"])
        rows = zip(range(len(s)), *(c.tolist() for c in (verdict, subtype, raw, s.error)))
        writer.writerows(rows)
        return out.getvalue()
    lines = ["# anemia screening report"]
    if model_files:
        lines.append(f"# models: {' '.join(str(m) for m in model_files)}")
    lines.append(f"# threshold: {threshold:g}")
    if created:
        lines.append(f"# created: {created}")
    kind, (failed, healthy, typed) = _kinds(s, s.verdict != 0)
    lines += _interleave(
        kind,
        _fill("#%s: ERROR (%s)", map(str, failed.tolist()), s.error[failed].tolist()),
        _fill("#%s: NON-ANEMIC (p=%s)", map(str, healthy.tolist()),
              map("%.2f".__mod__, s.raw_diagnosis[healthy].tolist())),
        _fill("#%s: %s (p=%s)", map(str, typed.tolist()),
              map(_TEXT_LABELS.__getitem__, s.subtype[typed].tolist()),
              map("%.2f".__mod__, s.raw_diagnosis[typed].tolist())),
    )
    return "\n".join(lines) + "\n"


def _kinds(s: Screening, flag: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """(kind of each row, rows of each kind): 0 failed, 1 flag false, 2 flag true."""
    kind = np.where(np.equal(s.error, None), 1 + flag.astype(np.int8), 0)
    return kind, [np.flatnonzero(kind == k) for k in range(3)]


def _fill(template: str, *columns) -> list[str]:
    """Each row of the aligned string columns put in the %s slots of template."""
    *parts, last = map(repeat, template.split("%s"))
    pieces = [x for part, column in zip(parts, columns) for x in (part, column)]
    return list(map("".join, zip(*pieces, last)))


def _interleave(kind: np.ndarray, *fragments: list[str]) -> list[str]:
    """Row i's fragment, taken in order from fragments[kind[i]]."""
    streams = [iter(f) for f in fragments]
    return list(map(next, map(streams.__getitem__, kind.tolist())))


_TEXT_LABELS = tuple(label.value.upper() for label in SUBTYPES)
_CSV_LABELS = np.array([*(label.value for label in SUBTYPES), ""], dtype=object)
_json_str = json.encoder.encode_basestring_ascii  # json.dumps' string encoder
_JSON_LABELS = tuple(_json_str(label.value) for label in SUBTYPES)
_JSON_ERROR = '  {\n   "id": %s,\n   "error": %s\n  }'
_JSON_HEALTHY = '  {\n   "id": %s,\n   "verdict": %s,\n   "raw": {\n    "diagnosis": %s\n   }\n  }'
_JSON_POSITIVE = ('  {\n   "id": %s,\n   "verdict": %s,\n   "raw": {\n    "diagnosis": %s,\n'
                  '    "classify": %s\n   },\n   "subtype": %s\n  }')


def _render_json(meta: dict, s: Screening) -> str:
    """json.dumps({"meta": meta, "patients": [...]}, indent=1) + "\n", byte for byte,
    without json's pure-Python indent encoder: a template per kind of entry."""
    head = '{\n "meta": ' + json.dumps(meta, indent=1).replace("\n", "\n ")
    if not len(s):
        return head + ',\n "patients": []\n}\n'
    kind, (failed, other, positive) = _kinds(s, s.verdict == 1)
    scored = [s.verdict, s.raw_diagnosis]
    patients = _interleave(
        kind,
        _fill(_JSON_ERROR, _json_texts(failed), map(_json_str, s.error[failed].tolist())),
        _fill(_JSON_HEALTHY, _json_texts(other), *(_json_texts(c[other]) for c in scored)),
        _fill(_JSON_POSITIVE, _json_texts(positive), *(_json_texts(c[positive]) for c in scored),
              _json_classify(s.raw_classify, positive),
              map(_JSON_LABELS.__getitem__, s.subtype[positive].tolist())),
    )
    return head + ',\n "patients": [\n' + ",\n".join(patients) + '\n ]\n}\n'


def _json_texts(column: np.ndarray) -> list[str]:
    """json's text for each value of an int or float column: by its type's
    encoder, or value by value where a float is not finite."""
    values, kind = column.tolist(), column.dtype.kind
    if kind == "f" and not np.isfinite(column).all():
        return list(map(json.dumps, values))
    return list(map({"i": int.__repr__, "f": float.__repr__}[kind], values))


def _json_classify(raw: np.ndarray, rows: np.ndarray) -> list[str]:
    """Each row's "classify" list as json.dumps writes it four levels deep."""
    template = "[\n     " + ",\n     ".join(["%s"] * raw.shape[1]) + "\n    ]"
    return _fill(template, *map(_json_texts, raw[rows].T))


def _bundle_outputs(bundle: ModelBundle, records) -> np.ndarray:
    """Raw network outputs for already-validated records, through the
    network's predict_batch FORWARD_BLOCK_ROWS rows at a time, every block
    under one workspace, which binds the kernel once per block size."""
    X = bundle.normalizer.apply(encode_batch(records, bundle.feature_spec))
    net = bundle.net
    outputs = np.empty((len(X), net.out_dim))
    workspace = net.workspace(min(len(X), FORWARD_BLOCK_ROWS))
    for start in range(0, len(X), FORWARD_BLOCK_ROWS):
        outputs[start:start + FORWARD_BLOCK_ROWS] = net.predict_batch(
            X[start:start + FORWARD_BLOCK_ROWS], workspace)
    return outputs


def _require_finite(models: str, finite: np.ndarray) -> None:
    """Raise NonFiniteOutputError naming ``models`` unless every row is finite."""
    bad = int(np.count_nonzero(~finite))
    if bad:
        raise NonFiniteOutputError(
            f"{models} gave non-finite outputs on {bad} of {len(finite)} rows")


def evaluate_diagnosis(diag: ModelBundle, labeled,
                       threshold: float = DEFAULT_THRESHOLD) -> ConfusionMatrix:
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
    diag: ModelBundle, clf: ModelBundle, labeled, threshold: float = DEFAULT_THRESHOLD
) -> ConfusionMatrix:
    """4x4 confusion matrix of the gated two-stage flow: run_pipeline's
    Screening of the records, scored against their labels.

    An invalid record raises ValidationError; a non-finite network output
    raises NonFiniteOutputError.
    """
    batch = check_records(labeled)
    s = run_pipeline(diag, clf, batch, threshold)
    _require_finite(f"models {diag.identity}|{clf.identity}", s.verdict != ERROR)
    predictions = np.where(s.verdict == 1, s.subtype + 1, 0)
    return ConfusionMatrix.from_codes(batch.label, predictions, FOURWAY_LABELS)
