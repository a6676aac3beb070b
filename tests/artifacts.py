"""Fixed-seed CLI artifacts and their SHA-256 manifest.

    PYTHONPATH=src python tests/artifacts.py     # rewrite tests/data/artifacts.sha256

``build`` runs a fixed matrix of hemanet commands in one directory and
returns the digest of every file they write:

- ``synth`` of 230 and 1 000 rows;
- ``train`` of 3 families x 2 stages x 2 update modes (30 epochs,
  ``--split 40-40-20``, patience and a loss curve), plus Elman
  ``feature-sequence``, NARX ``stream --du 1 --dy 2``, ``banded1`` and
  ``paper7`` with ``--joint-scaling``;
- one ``eval`` JSON of every model;
- ``predict --deterministic`` in json, text and csv for each family, on
  ``synth1000.csv`` and on a copy with implausible cells injected
  (``IMPLAUSIBLE``), so the error entries' bytes are pinned too;
- ``compare`` (50 epochs) JSON and curves.

``tests/test_artifacts.py`` rebuilds the matrix and compares digests.  A
change that alters artifact bytes on purpose regenerates the manifest and
names each changed artifact, and why, in CHANGES.md.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import os
import platform
import sys
from pathlib import Path

import numpy as np

from hemanet import cli

MANIFEST = Path(__file__).parent / "data" / "artifacts.sha256"

_TRAIN = ["--epochs", "30", "--split", "40-40-20", "--patience", "10"]

#: (row, column, cell) overwritten in synth1000.csv to make implausible1000.csv.
IMPLAUSIBLE = ((3, "hgb", "1.5"), (150, "mcv", "180"), (402, "age", "130"),
               (655, "hgb", "nan"), (998, "wbc", "0.4"))


def write_implausible(src="synth1000.csv", dst="implausible1000.csv") -> None:
    """Copy ``src`` with the IMPLAUSIBLE cells; rows count from 0 after the header."""
    with open(src, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    for row, column, cell in IMPLAUSIBLE:
        rows[row][header.index(column)] = cell
    with open(dst, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *rows])


def _train(name, family, stage, *extra):
    return ["train", "--data", "synth230.csv", "--family", family, "--stage", stage,
            *_TRAIN, *extra, "--curve", f"{name}.curve.csv", "-o", f"{name}.model.json"]


def commands() -> list:
    """The matrix, in build order: CLI argv lists, and callables that write an
    input file.  Every path is relative to the output directory."""
    cmds = [
        ["synth", "-n", "230", "--mix", "41,62,61,66", "--seed", "3", "-o", "synth230.csv"],
        ["synth", "-n", "1000", "--mix", "178,270,265,287", "--seed", "4",
         "-o", "synth1000.csv"],
        write_implausible,
    ]
    models = []
    for family in ("ffnn", "elman", "narx"):
        for stage in ("diagnosis", "classify"):
            for mode in ("full-batch", "per-sample"):
                name = f"{family}_{stage}_{mode}"
                cmds.append(_train(name, family, stage, "--update-mode", mode))
                models.append(name)
    for name, family, stage, *extra in (
        ("elman_sequence", "elman", "diagnosis", "--elman-mode", "feature-sequence"),
        ("narx_stream", "narx", "diagnosis", "--narx-mode", "stream", "--du", "1", "--dy", "2"),
        ("ffnn_banded1", "ffnn", "classify", "--encoding", "banded1"),
        ("ffnn_paper7", "ffnn", "diagnosis", "--features", "paper7", "--joint-scaling"),
    ):
        cmds.append(_train(name, family, stage, *extra))
        models.append(name)
    cmds.append(["eval", *(arg for name in models for arg in ("-m", f"{name}.model.json")),
                 "--data", "synth1000.csv", "--format", "json", "-o", "eval.json"])
    for data, suffix in (("synth1000.csv", ""), ("implausible1000.csv", "_implausible")):
        for family in ("ffnn", "elman", "narx"):
            for fmt in ("json", "text", "csv"):
                cmds.append(["predict",
                             "--diagnosis", f"{family}_diagnosis_full-batch.model.json",
                             "--classify", f"{family}_classify_full-batch.model.json",
                             "--data", data, "--deterministic", "--format", fmt,
                             "-o", f"predict_{family}{suffix}.{fmt}"])
    cmds.append(["compare", "--data", "synth1000.csv", "--epochs", "50", "--format", "json",
                 "--curves", "compare", "-o", "compare.json"])
    return cmds


def build(out_dir) -> dict[str, str]:
    """Run the matrix in ``out_dir``; return {file name: sha256} of what it wrote."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(out_dir)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for step in commands():
                if callable(step):
                    step()
                elif (code := cli.main(step)) != 0:
                    raise RuntimeError(f"hemanet {' '.join(step)} exited {code}")
    finally:
        os.chdir(cwd)
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out_dir.iterdir())}


def versions() -> str:
    return f"python {platform.python_version()}, numpy {np.__version__}"


def read_manifest(path=MANIFEST) -> tuple[str, dict[str, str]]:
    """(recorded versions, {file name: sha256}) of a manifest file."""
    recorded, digests = "unknown versions", {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("# built with "):
            recorded = line[len("# built with "):]
        elif line and not line.startswith("#"):
            digest, name = line.split("  ", 1)
            digests[name] = digest
    return recorded, digests


def write_manifest(digests: dict[str, str], path=MANIFEST) -> None:
    lines = ["# hemanet fixed-seed CLI artifacts (tests/artifacts.py)",
             f"# built with {versions()}"]
    lines += [f"{digest}  {name}" for name, digest in sorted(digests.items())]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = build(tmp)
    write_manifest(digests)
    print(f"wrote {len(digests)} digests to {MANIFEST}", file=sys.stderr)
