"""hemanet benchmark: drives the real CLI on seeded synthetic inputs.

    python3 perfbench/run.py --workload screen --seed 1 --seconds 20 --trace 0

One client runs one ``python -m hemanet.cli`` invocation at a time, each
started after the previous one exits (a closed loop), with BLAS pinned to one
thread.  Inputs come from ``hemanet.synth`` and the workload seed; their
generation is never timed.  Every invocation's output is checked.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json from untraced
runs.  ``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics, with the tracing overhead and the share of in-process
time no span covers.  The last line of standard output is the result JSON;
the line before it holds the run metadata and the SHA-256 of every input.
See perfbench/README.md for the workloads and metric definitions.
"""
from __future__ import annotations

import os

# Before numpy is imported here or in any child: one BLAS thread, so the
# closed loop never runs more threads than it has processes.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

WORKLOADS = ("screen", "audit", "fit-sgd", "compare")
FAMILIES = ("ffnn", "elman", "narx")
STAGES = ("diagnosis", "classify")
#: Class mix of the paper's 230-record set: microcytic, normocytic,
#: macrocytic, non-anemic.  Every generated set keeps these proportions.
PAPER_MIX = (41, 62, 61, 66)
#: One implausible value per kind; the screen input cycles through them.
IMPLAUSIBLE = (("hgb", 1.5), ("mcv", 180.0), ("wbc", 0.4), ("mchc", 50.0),
               ("rbc", 9.5), ("age", 130), ("hct", 120.0), ("hgb", math.nan))
CHILD_TIMEOUT_S = 150
READY_SAMPLES = 5           # fewest fresh-process starts behind setup_s
READY = ("import sys, hemanet.cli\n"
         "from hemanet.serialize import load_model\n"
         "for path in sys.argv[1:]:\n"
         "    load_model(path)\n")


@dataclass(frozen=True)
class Sizes:
    model_records: int = 230     # set the screen/audit model files are trained on
    model_epochs: int = 1000     # the CLI's default, full-batch
    screen_records: int = 10000
    implausible: int = 24
    audit_records: int = 25000
    sgd_records: int = 230
    sgd_epochs: int = 30
    compare_records: int = 2300
    compare_epochs: int = 100
    min_rounds: int = 3


FULL = Sizes()
TINY = Sizes(model_records=120, model_epochs=30, screen_records=300, implausible=8,
             audit_records=400, sgd_records=60, sgd_epochs=2, compare_records=230,
             compare_epochs=5, min_rounds=2)


class BenchError(RuntimeError):
    """The run cannot produce its metrics: inputs or every output failed."""


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Child:
    code: int
    wall_s: float
    maxrss_mb: float


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv, log_path) -> Child:
    """Run one process to completion; wall time and peak RSS from wait4."""
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except ChildProcessError:  # reaped by the timer's kill at the deadline
            proc.returncode = -9
            return Child(-9, time.perf_counter() - start, 0.0)
        except BaseException:  # interrupted: never leave the child running
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0)


def cli(*args) -> list[str]:
    return [sys.executable, "-m", "hemanet.cli", *map(str, args)]


def traced_cli(spans_path, *args) -> list[str]:
    return [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), "--", *map(str, args)]


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# inputs


def sub_seed(seed: int, stream: int) -> int:
    import numpy as np
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def generate(n: int, seed: int):
    from hemanet.cli import MIX_ORDER
    from hemanet.preprocess import largest_remainder
    from hemanet.synth import synth_generate
    counts = largest_remainder(PAPER_MIX, n)
    return synth_generate(n, dict(zip(MIX_ORDER, counts)), seed=seed)


def read_curve(path) -> list[float]:
    with open(path, encoding="utf-8", newline="") as fh:
        return [float(row["train_loss"]) for row in csv.DictReader(fh)]


def finite_curve(path, epochs: int) -> list[str]:
    losses = read_curve(path)
    if len(losses) != epochs:
        return [f"{path.name}: {len(losses)} epochs, expected {epochs}"]
    if not all(math.isfinite(v) for v in losses):
        return [f"{path.name}: non-finite loss"]
    return []


@dataclass
class Invocation:
    key: str
    args: tuple
    output: Path


class Workload:
    """One benchmark workload: inputs, one round of invocations, checks."""

    name = ""
    records_per_round = 0          # input records the round's invocations read
    train_rows_per_round = 0       # training rows x epochs of the round (training workloads)

    def __init__(self, bench):
        self.bench = bench
        self.sizes = bench.sizes
        self.dir = bench.dir
        self.model_files = []
        self.digests = {}
        self.quality = {}          # key -> (accuracy, final_loss)
        self.builds = {}           # model file stem -> wall times of the trains that built it
        self.build_rows = {}       # model file stem -> training rows x epochs

    def write(self, name, save, records) -> Path:
        path = self.dir / name
        save(records, path)
        self.digests[name] = sha256(path)
        return path

    def build_model(self, family: str, stage: str) -> list[str]:
        """Train one model file with ``hemanet train``; a rebuild must give the same bytes."""
        from hemanet.serialize import load_model
        key = f"{family}_{stage}"
        out, curve = self.dir / f"{key}.json", self.dir / f"{key}_curve.csv"
        child = run_child(cli("train", "--data", self.model_data, "--family", family,
                              "--stage", stage, "--epochs", self.sizes.model_epochs,
                              "-o", out, "--curve", curve), self.bench.log)
        if child.code != 0:
            return [f"building {key}: exit {child.code}"]
        digest = sha256(out)
        if self.digests.setdefault(out.name, digest) != digest:
            return [f"rebuilt {out.name} differs from the first build"]
        if key not in self.builds:
            meta = load_model(out).train_meta
            self.build_rows[key] = meta["n_train"] * meta["epochs_run"]
            self.model_files.append(out)
            self.quality[f"model:{key}"] = (None, read_curve(curve)[-1])
        self.builds.setdefault(key, []).append(child.wall_s)
        return []

    def build_models(self, data_path) -> None:
        self.model_data = data_path
        for family in FAMILIES:
            for stage in STAGES:
                problems = self.build_model(family, stage)
                if problems:
                    raise BenchError(problems[0])

    def rebuild(self, i: int) -> list[str] | None:
        """Between rounds, rebuild the model files in turn; None if there are none."""
        if not self.builds:
            return None
        family, stage = list(self.builds)[i % len(self.builds)].split("_")
        return self.build_model(family, stage)

    def setup(self) -> None:
        raise NotImplementedError

    def round(self) -> list[Invocation]:
        raise NotImplementedError

    def check(self, inv: Invocation, first: bool) -> list[str]:
        """Problems with one invocation's output; ``first`` is its first run."""
        raise NotImplementedError


class Screen(Workload):
    """predict --format json --deterministic, once per family pair."""

    name = "screen"

    def setup(self):
        import numpy as np
        from hemanet.dataio import save_csv, save_unlabeled_csv
        seed, n = self.bench.seed, self.sizes.screen_records
        labeled = generate(n, sub_seed(seed, 2))
        self.labels = [item.label for item in labeled]
        records = [item.record for item in labeled]
        rng = np.random.default_rng(sub_seed(seed, 3))
        self.injected = sorted(int(i) for i in rng.choice(n, self.sizes.implausible, replace=False))
        for k, i in enumerate(self.injected):
            field, value = IMPLAUSIBLE[k % len(IMPLAUSIBLE)]
            records[i] = replace(records[i], **{field: value})
        self.data = self.write("screen.csv", save_unlabeled_csv, records)
        train = self.write("models_train.csv", save_csv,
                           generate(self.sizes.model_records, sub_seed(seed, 1)))
        self.build_models(train)
        self.records_per_round = n * len(FAMILIES)

    def round(self):
        return [
            Invocation(family, ("predict", "--diagnosis", self.dir / f"{family}_diagnosis.json",
                                "--classify", self.dir / f"{family}_classify.json",
                                "--data", self.data, "--format", "json", "--deterministic",
                                "-o", self.dir / f"screen_{family}.json"),
                       self.dir / f"screen_{family}.json")
            for family in FAMILIES
        ]

    def check(self, inv, first):
        if not first:
            return []
        patients = json.loads(inv.output.read_text(encoding="utf-8"))["patients"]
        if [p["id"] for p in patients] != list(range(len(self.labels))):
            return [f"{inv.key}: {len(patients)} entries, expected one per input row in order"]
        errors = [p["id"] for p in patients if "error" in p]
        if errors != self.injected:
            return [f"{inv.key}: error entries {errors[:5]}..., expected the injected rows"]
        correct = valid = 0
        for p, label in zip(patients, self.labels):
            if "error" in p:
                continue
            valid += 1
            called = p["subtype"] if p["verdict"] == 1 else "non_anemic"
            correct += called == label.value
        self.quality[inv.key] = (correct / valid, None)
        return []


class Audit(Workload):
    """One eval of all six model files on a large labeled set."""

    name = "audit"

    def setup(self):
        from hemanet.dataio import save_csv
        seed = self.bench.seed
        labeled = generate(self.sizes.audit_records, sub_seed(seed, 4))
        self.n = len(labeled)
        self.n_anemic = sum(1 for item in labeled if item.label.is_anemic)
        self.data = self.write("audit.csv", save_csv, labeled)
        train = self.write("models_train.csv", save_csv,
                           generate(self.sizes.model_records, sub_seed(seed, 1)))
        self.build_models(train)
        self.records_per_round = self.n

    def round(self):
        models = [arg for path in self.model_files for arg in ("-m", path)]
        out = self.dir / "audit_report.json"
        return [Invocation("eval", ("eval", *models, "--data", self.data,
                                    "--format", "json", "-o", out), out)]

    def check(self, inv, first):
        rows = json.loads(inv.output.read_text(encoding="utf-8"))["models"]
        expected = [(p.stem, self.n if p.stem.endswith("diagnosis") else self.n_anemic)
                    for p in self.model_files]
        if [(r["name"], r["n"]) for r in rows] != expected:
            return [f"eval rows {[(r['name'], r['n']) for r in rows]}, expected {expected}"]
        if first:
            for r in rows:
                self.quality[r["name"]] = (r["accuracy"], None)
        return []


class FitSgd(Workload):
    """train --update-mode per-sample for every family and stage."""

    name = "fit-sgd"

    def setup(self):
        from hemanet.dataio import save_csv
        self.records = generate(self.sizes.sgd_records, sub_seed(self.bench.seed, 5))
        self.data = self.write("sgd.csv", save_csv, self.records)
        n_anemic = sum(1 for item in self.records if item.label.is_anemic)
        rows = {"diagnosis": len(self.records), "classify": n_anemic}
        self.records_per_round = len(self.records) * len(FAMILIES) * len(STAGES)
        self.train_rows_per_round = sum(
            rows[s] * self.sizes.sgd_epochs for _ in FAMILIES for s in STAGES)

    def round(self):
        out = []
        for family in FAMILIES:
            for stage in STAGES:
                model = self.dir / f"sgd_{family}_{stage}.json"
                out.append(Invocation(
                    f"{family}_{stage}",
                    ("train", "--data", self.data, "--family", family, "--stage", stage,
                     "--update-mode", "per-sample",
                     "--epochs", self.sizes.sgd_epochs, "-o", model,
                     "--curve", self.dir / f"sgd_{family}_{stage}_curve.csv"),
                    model))
        return out

    def check(self, inv, first):
        from hemanet.pipeline import evaluate_classification, evaluate_diagnosis
        from hemanet.metrics import accuracy
        from hemanet.serialize import load_model
        bundle = load_model(inv.output)
        curve = inv.output.with_name(inv.output.stem + "_curve.csv")
        problems = finite_curve(curve, self.sizes.sgd_epochs)
        if bundle.train_meta.get("epochs_run") != self.sizes.sgd_epochs:
            problems.append(f"{inv.key}: epochs_run {bundle.train_meta.get('epochs_run')}")
        if first and not problems:
            evaluate = (evaluate_diagnosis if inv.key.endswith("diagnosis")
                        else evaluate_classification)
            self.quality[inv.key] = (accuracy(evaluate(bundle, self.records)),
                                     read_curve(curve)[-1])
        return problems


class Compare(Workload):
    """Full-batch compare of the three families on a 10x paper-scale set."""

    name = "compare"

    def setup(self):
        from hemanet.dataio import save_csv
        from hemanet.preprocess import split_dataset
        seed = self.bench.seed
        records = generate(self.sizes.compare_records, sub_seed(seed, 6))
        self.data = self.write("compare.csv", save_csv, records)
        split = split_dataset(records, (0.4, 0.4, 0.2))
        self.n_test = len(split.test)
        self.records_per_round = len(records)
        self.train_rows_per_round = len(FAMILIES) * len(split.train) * self.sizes.compare_epochs

    def round(self):
        out = self.dir / "compare_report.json"
        return [Invocation("compare", ("compare", "--data", self.data,
                                       "--epochs", self.sizes.compare_epochs, "--format", "json",
                                       "-o", out, "--curves", self.dir / "compare_curve"), out)]

    def check(self, inv, first):
        rows = json.loads(inv.output.read_text(encoding="utf-8"))["models"]
        names = sorted(r["name"] for r in rows)
        if names != sorted(FAMILIES) or any(r["n"] != self.n_test for r in rows):
            return [f"compare rows {[(r['name'], r['n']) for r in rows]}, "
                    f"expected {sorted(FAMILIES)} with n={self.n_test}"]
        problems = []
        for r in rows:
            curve = self.dir / f"compare_curve_{r['name']}.csv"
            problems += finite_curve(curve, self.sizes.compare_epochs)
            if first and not problems:
                self.quality[r["name"]] = (r["accuracy"], read_curve(curve)[-1])
        return problems


WORKLOAD_CLASSES = {cls.name: cls for cls in (Screen, Audit, FitSgd, Compare)}


# ---------------------------------------------------------------------------
# the run


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes):
        self.seed, self.seconds, self.trace, self.sizes = seed, seconds, trace, sizes
        self.dir = WORK / f"{workload}-{seed}-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.log = self.dir / "children.log"
        self.workload = WORKLOAD_CLASSES[workload](self)
        self.walls: dict[str, list[float]] = {}          # untraced walls per invocation key
        self.traced_walls: dict[str, list[float]] = {}
        self.spans: list[list[dict]] = []                 # per traced round, per invocation
        self.attempted = self.failed = 0
        self.peak_rss_mb = 0.0
        self.problems: list[str] = []
        self.digest_of: dict[str, str] = {}
        self.ready_walls: list[float] = []
        self.synth = None

    def invoke(self, inv: Invocation, traced: bool, round_spans) -> None:
        first = inv.key not in self.digest_of
        if traced:
            spans_path = self.dir / f"spans_{inv.key}.json"
            child = run_child(traced_cli(spans_path, *inv.args), self.log)
        else:
            child = run_child(cli(*inv.args), self.log)
        self.attempted += 1
        problems = [] if child.code == 0 else [f"{inv.key}: exit {child.code}"]
        if not problems:
            digest = sha256(inv.output)
            if self.digest_of.setdefault(inv.key, digest) != digest:
                problems.append(f"{inv.key}: output differs from the first iteration")
            problems += self.workload.check(inv, first)
        if traced and child.code == 0:
            round_spans.append(json.loads(spans_path.read_text(encoding="utf-8")))
        if problems:
            self.failed += 1
            self.problems += problems
            return
        (self.traced_walls if traced else self.walls).setdefault(inv.key, []).append(child.wall_s)
        if not traced:
            self.peak_rss_mb = max(self.peak_rss_mb, child.maxrss_mb)

    def run_round(self, traced: bool) -> None:
        round_spans = []
        for inv in self.workload.round():
            self.invoke(inv, traced, round_spans)
        if traced:
            self.spans.append(round_spans)

    def setup(self) -> None:
        if self.trace:
            from tracing import SYNTH_HOOKS, Tracer
            import hemanet.cli  # noqa: F401  -- every module loaded before patching
            self.synth = Tracer()
            self.synth.install(SYNTH_HOOKS)
            try:
                self.workload.setup()
            finally:
                self.synth.uninstall()
        else:
            self.workload.setup()

    def side_tasks(self, i: int) -> None:
        """Between untraced rounds: one fresh-process start, one model rebuild.

        Spreading these samples over the whole run, rather than taking them
        back to back, keeps their medians from landing in one slow spell.
        """
        ready = [sys.executable, "-c", READY, *map(str, self.workload.model_files)]
        child = run_child(ready, self.log)
        self.attempted += 1
        problems = [] if child.code == 0 else [f"ready process: exit {child.code}"]
        if not problems:
            self.ready_walls.append(child.wall_s)
        rebuilt = self.workload.rebuild(i)
        if rebuilt is not None:
            self.attempted += 1
            problems += rebuilt
        if problems:
            self.failed += 1
            self.problems += problems

    def loop(self) -> int:
        start = time.perf_counter()
        durations = []
        min_rounds = 2 if self.trace else self.sizes.min_rounds
        while (len(durations) < min_rounds
               or time.perf_counter() - start + statistics.median(durations) <= self.seconds):
            began = time.perf_counter()
            self.run_round(False)
            if self.trace:
                self.run_round(True)
            else:
                self.side_tasks(len(durations))
            durations.append(time.perf_counter() - began)
        while not self.trace and len(self.ready_walls) < READY_SAMPLES and not self.failed:
            self.side_tasks(len(durations) + len(self.ready_walls))
        return len(durations)

    def round_wall(self, walls) -> float:
        """Median iteration time, as the sum of per-invocation medians."""
        return sum(statistics.median(v) for v in walls.values())

    def end_to_end(self) -> dict:
        w = self.workload
        if set(self.walls) != {inv.key for inv in w.round()} or not self.ready_walls:
            raise BenchError("an invocation failed in every round: " + "; ".join(self.problems))
        wall = self.round_wall(self.walls)
        if w.train_rows_per_round:
            train_rows_per_s = w.train_rows_per_round / wall
        else:  # screen/audit: the full-batch trains that build their model files
            train_rows_per_s = sum(w.build_rows.values()) / self.round_wall(w.builds)
        accs = [a for a, _ in w.quality.values() if a is not None]
        losses = [v for _, v in w.quality.values() if v is not None]
        if not accs or not losses:
            raise BenchError("no output passed its checks: " + "; ".join(self.problems))
        return {
            "wall_s": wall,
            "records_per_s": w.records_per_round / wall,
            "train_rows_per_s": train_rows_per_s,
            "setup_s": statistics.median(self.ready_walls),
            "peak_rss_mb": self.peak_rss_mb,
            "accuracy": statistics.fmean(accs),
            "final_loss": statistics.fmean(losses),
        }

    def per_layer(self, names) -> tuple[dict, list, list]:
        """Per-layer values, exact counts, and counts that failed to repeat.

        Values sum over one traced round; times are medians over traced
        rounds, counts are taken from the first and must repeat in the rest.
        """
        from tracing import CLI_HOOKS, COUNTER_SOURCES
        if not self.walls or not all(self.spans):
            raise BenchError("traced or untraced invocations failed: " + "; ".join(self.problems))
        docs = [d for r in self.spans for d in r]
        absent = {a for d in docs for a in d["absent"]}
        present = {h[0] for h in CLI_HOOKS} - absent
        zeros = [f"{n}.{k}" for n in present for k in ("s", "self_s", "calls")]
        zeros += [c for c, hooks in COUNTER_SOURCES.items()
                  if c not in absent and present & set(hooks)]
        rounds = []
        for round_docs in self.spans:
            values = dict.fromkeys(zeros, 0)
            for doc in round_docs:
                for name, stat in doc["stats"].items():
                    for key, v in stat.items():
                        values[f"{name}.{key}"] += v
                for name, v in doc["counters"].items():
                    if name not in absent:
                        values[name] += v
            values["cli.import_s"] = statistics.median(d["import_s"] for d in round_docs)
            covered = sum(d["covered_s"] for d in round_docs)
            in_process = sum(d["in_process_s"] for d in round_docs)
            values["trace.uncovered_frac"] = 1.0 - covered / in_process
            rounds.append(values)
        out, exact, unsteady = {}, [], []
        for name in names:
            seen = [r[name] for r in rounds if name in r]
            if not seen:
                continue
            if name.endswith(".calls") or name in COUNTER_SOURCES:
                exact.append(name)
                if len(set(seen)) > 1:
                    unsteady.append(name)
                out[name] = seen[0]
            else:
                out[name] = statistics.median(seen)
        gen = self.synth.stats.get("synth.synth_generate")
        tries = self.synth.stats.get("synth.rule_label")
        if gen is not None and tries is not None:
            out["synth.synth_generate.s"] = gen.s
            out["synth.accept_ratio"] = self.synth.counters.get("synth.accepted", 0) / tries.calls
        traced = self.round_wall(self.traced_walls)
        untraced = self.round_wall(self.walls)
        out["trace.traced_wall_s"] = traced
        out["trace.untraced_wall_s"] = untraced
        out["trace.overhead_frac"] = traced / untraced - 1.0
        return out, exact, unsteady

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass


def metadata(bench: Bench, rounds: int) -> dict:
    import numpy
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        sha = done.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_env": {v: os.environ.get(v) for v in BLAS_ENV},
        "sizes": vars(bench.sizes),
        "rounds": rounds,
        "inputs_sha256": bench.workload.digests,
        "invocation_walls_s": bench.walls,
    }


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_one(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes) -> dict:
    spec = load_spec()
    metrics_spec = spec["per_layer" if trace else "end_to_end"]
    load_avg = os.getloadavg()
    bench = Bench(workload, seed, seconds, trace, sizes)
    try:
        bench.setup()
        rounds = bench.loop()
        meta = metadata(bench, rounds)
        meta["loadavg_start"] = load_avg
        if trace:
            values, exact, unsteady = bench.per_layer([m["name"] for m in metrics_spec])
            meta["exact_counts"] = exact
            meta["counts_not_repeating"] = unsteady
            meta["absent"] = sorted({a for r in bench.spans for d in r for a in d["absent"]})
            meta["traced_rounds"] = len(bench.spans)
            bench.problems += [f"count {n} differs between traced rounds" for n in unsteady]
        else:
            values = bench.end_to_end()
    finally:
        bench.close()
    metrics = {}
    for m in metrics_spec:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        else:
            print(f"perfbench: warning: metric {m['name']} is absent", file=sys.stderr)
    meta["problems"] = bench.problems
    exact = set(meta.get("exact_counts", ()))
    print(f"== {workload} seed={seed} trace={int(trace)} rounds={rounds} "
          f"invocations={bench.attempted} failed={bench.failed} "
          f"fail_frac={bench.failed / max(bench.attempted, 1):g}")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}"
              + ("  (exact count)" if name in exact else ""))
    for problem in bench.problems:
        print(f"  FAILED CHECK: {problem}")
    return {
        "meta": meta,
        "result": {
            "correct": not bench.problems,
            "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": metrics,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs for the self-test; timings are meaningless")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: the running child is killed and the scratch dir removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "hemanet" / "__init__.py").is_file():
        print(f"perfbench: no hemanet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sizes = TINY if args.tiny else FULL
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        outputs = {w: run_one(w, args.seed, args.seconds, bool(args.trace), sizes) for w in names}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        out = outputs[args.workload]
        print("meta " + json.dumps(out["meta"]))
        print(json.dumps(out["result"]))
        return 0
    results = [o["result"] for o in outputs.values()]
    print("meta " + json.dumps({w: o["meta"] for w, o in outputs.items()}))
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {w: o["result"]["metrics"] for w, o in outputs.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
