"""Smoke test of the benchmark at tiny sizes; asserts no timing.

    python3 perfbench/selftest.py

For every workload, with tracing off and on, runs perfbench/run.py on tiny
inputs and checks that the result line has exactly the expected keys, that
every metric BENCHMARK.json names is present with its unit, and that no
invocation failed (fail_frac = failed / attempted = 0).  It also checks
BENCHMARK.json's shape, and that the benchmark exits non-zero without a
result when the hemanet sources are missing.
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")


def check_spec(spec: dict) -> list[str]:
    problems = []
    if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        problems.append(f"BENCHMARK.json keys: {sorted(spec)}")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    problems += [f"bad or repeated name {n!r}" for n in names
                 if not NAME.match(n) or names.count(n) > 1]
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("lower", "higher"):
            problems.append(f"metric {m['name']}: unit {m['unit']!r}, better {m['better']!r}")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if any(not 0 < b <= 0.25 for b in bounds.values()):
        problems.append(f"bounds out of (0, 0.25]: {bounds}")
    if bounds.get("setup_s") != max(bounds.values()):
        problems.append("setup_s must exist and have the largest bound")
    return problems


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    where = f"{workload} trace={trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}\n{done.stderr}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}\n{done.stdout}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != wanted:
        problems.append(f"{where}: metric/unit mismatch: missing "
                        f"{sorted(set(wanted) - set(got))}, extra {sorted(set(got) - set(wanted))}, "
                        f"units {[(k, got[k], wanted[k]) for k in got if k in wanted and got[k] != wanted[k]]}")
    if not all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()):
        problems.append(f"{where}: non-numeric metric value")
    return problems


def check_bare() -> list[str]:
    """Without the sources, the benchmark must fail and print no result."""
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "screen", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        return [f"bare checkout: exit {done.returncode}, stdout {done.stdout!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_spec(spec) + check_bare()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems += check_run(spec, workload, trace)
    for problem in problems:
        print(f"FAIL: {problem}")
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
