"""Fixed-seed CLI artifacts stay byte-identical to the checked-in manifest,
and their decisions hold on another BLAS core."""
import fnmatch
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hemanet
from artifacts import (BYTE_TIER, MANIFEST, build, floats_apart, manifest_changes,
                       read_manifest, versions)

#: The other OpenBLAS core the decision tier is checked on: the AVX2 kernels.
OTHER_CORE = "Haswell"
#: Off the byte tier, each number may move by this much times the largest
#: magnitude in its file, or 1 (raw outputs are at most 1).
ROUNDING = 1e-14


@pytest.fixture(scope="module")
def native(tmp_path_factory):
    out = tmp_path_factory.mktemp("native")
    return out, build(out)


def test_fixed_seed_artifacts_match_manifest(native):
    recorded, expected = read_manifest()
    differ = manifest_changes(expected, native[1])
    assert not differ, (
        f"{len(differ)} artifact(s) differ from {MANIFEST.name} "
        f"(built with {recorded}; this run: {versions()}): {', '.join(differ)}"
    )


def test_decisions_hold_on_another_blas_core(native, tmp_path):
    # The child alone runs on the other core; it builds only when its
    # library reports that core.
    here, out = native[0], tmp_path / OTHER_CORE
    paths = [str(Path(hemanet.__file__).parents[1]), str(Path(__file__).parent),
             os.environ.get("PYTHONPATH", "")]
    child = subprocess.run(
        [sys.executable, "-c", "import sys, artifacts\n"
         "print(artifacts.blas_core(), flush=True)\n"
         "if artifacts.blas_core() == sys.argv[2]:\n    artifacts.build(sys.argv[1])",
         str(out), OTHER_CORE],
        env={**os.environ, "OPENBLAS_CORETYPE": OTHER_CORE, "PYTHONPATH": os.pathsep.join(paths)},
        capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    core = child.stdout.split()[0]
    if core != OTHER_CORE:
        pytest.skip(f"the bundled BLAS ran {core!r} kernels when asked for {OTHER_CORE!r}")
    assert sorted(p.name for p in out.iterdir()) == sorted(native[1])
    for name in sorted(native[1]):
        mine, theirs = here / name, out / name
        if any(fnmatch.fnmatch(name, pattern) for pattern in BYTE_TIER):
            assert mine.read_bytes() == theirs.read_bytes(), f"{name} differs on {OTHER_CORE}"
            continue
        (skeleton, numbers), (other, moved) = floats_apart(mine), floats_apart(theirs)
        assert skeleton == other, f"{name}: more than numbers differ on {OTHER_CORE}"
        numbers, moved = np.array(numbers), np.array(moved)
        bound = ROUNDING * max(1.0, np.abs(numbers).max(initial=0.0))
        assert np.abs(numbers - moved).max(initial=0.0) <= bound, name


def test_manifest_changes_name_each_file_added_removed_or_changed():
    old = {"a.json": "1", "b.csv": "2", "gone.json": "3"}
    new = {"a.json": "1", "b.csv": "9", "new.txt": "4"}
    assert manifest_changes(old, new) == [
        "changed  b.csv", "removed  gone.json", "added  new.txt"]
    assert manifest_changes(new, new) == []
