"""The benchmark harness still drives the CLI: a tiny screen run checks its outputs.

The harness checks one report entry per input row, exactly the injected
implausible rows as errors, and byte-identical reruns.  No timing is asserted.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tiny_screen_run_is_correct():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--tiny", "--workload", "screen",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0, done.stdout
