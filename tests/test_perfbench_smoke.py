"""The benchmark harness still drives the CLI: a tiny screen run checks its outputs.

The harness checks one report entry per input row, exactly the injected
implausible rows as errors, and byte-identical reruns.  Untraced and traced,
the result must carry every metric BENCHMARK.json declares for that mode: a
hook whose target is gone still lets the run exit 0, without its metrics.
No timing is asserted.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("trace,declared", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_screen_run_is_correct(trace, declared):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--tiny", "--workload", "screen",
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
