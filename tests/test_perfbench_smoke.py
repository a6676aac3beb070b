"""The benchmark harness still drives the CLI: tiny screen and audit runs check their outputs.

For screen the harness checks one report entry per input row, exactly the
injected implausible rows as errors, and byte-identical reruns; for audit,
one eval row per model file over the whole labeled set, which the CLI reads
through load_csv.  Untraced and traced, the result must carry every metric
BENCHMARK.json declares for that mode: a hook whose target is gone still lets
the run exit 0, without its metrics.  The traced screen run must count
positives and report bytes: a counter that reads 0 on working code shows a
hook that no longer understands what it wraps.  No timing is asserted.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("trace,declared", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", ["screen", "audit"])
def test_tiny_run_is_correct(workload, trace, declared):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--tiny", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0, done.stdout
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    missing = [m["name"] for m in spec[declared] if m["name"] not in result["metrics"]]
    assert missing == [], done.stderr
    if workload == "screen" and trace:
        # The hooks read the screening as rows with a .verdict and the report as a str.
        for counter in ("pipeline.positives", "pipeline.report_bytes"):
            assert result["metrics"][counter]["value"] > 0, counter
