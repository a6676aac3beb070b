"""Per-layer timing hooks installed from outside the hemanet package.

A hook wraps one public function or method and records a span around each
call: total time, self time (total minus the spans it caused) and a call
count, plus optional counters taken at the same boundary.  Spans are
aggregated in memory and written out once, when the traced process ends.

Each hook patches every name under which hemanet modules look the target up
(``hemanet.pipeline.check_record`` as well as ``hemanet.records.check_record``),
so calls through a ``from .x import y`` binding are seen too.  A target that no
longer exists is reported as absent with a warning; nothing here assumes that
the package keeps any particular helper.
"""
from __future__ import annotations

import inspect
import os
import sys
import time


class _Stat:
    __slots__ = ("s", "self_s", "calls")

    def __init__(self):
        self.s = 0.0
        self.self_s = 0.0
        self.calls = 0


class Tracer:
    """Span aggregator for one process.

    Spans nest on a stack, so a span's self time is its duration minus the
    durations of the spans opened directly inside it.  A hook entered again
    while one of the same name is open (a NARX model delegating to its dense
    core, say) is passed through without a second span, so ``calls`` counts
    outermost calls only.
    """

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.counters: dict[str, int] = {}
        self.absent: list[str] = []
        self.covered_s = 0.0
        self._stack: list[list] = []
        self._open: dict[str, int] = {}
        self._group_open: dict[str, int] = {}
        self._undo: list[tuple] = []

    # -- recording -------------------------------------------------------

    def add(self, counter: str, amount) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + int(amount)

    def absent_counter(self, counter: str) -> None:
        if counter not in self.absent:
            self.absent.append(counter)
            print(f"perfbench: warning: cannot compute {counter}; it is absent",
                  file=sys.stderr)

    def _call(self, name, group, fn, args, kwargs, on_return, on_raise):
        if self._open.get(name):
            return fn(*args, **kwargs)
        outermost_in_group = group is not None and not self._group_open.get(group)
        self._open[name] = 1
        if group is not None:
            self._group_open[group] = self._group_open.get(group, 0) + 1
        frame = [0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            if on_raise is not None:
                on_raise(self, exc)
            raise
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            self._open[name] = 0
            if group is not None:
                self._group_open[group] -= 1
            stat = self.stats.setdefault(name, _Stat())
            stat.s += elapsed
            stat.self_s += elapsed - frame[0]
            stat.calls += 1
            if self._stack:
                self._stack[-1][0] += elapsed
            else:
                self.covered_s += elapsed
        if on_return is not None and (group is None or outermost_in_group):
            on_return(self, args, result)
        return result

    # -- installing ------------------------------------------------------

    def install(self, hooks) -> None:
        """Patch every hook target; warn about and skip the ones not found."""
        for hook in hooks:
            if not self._install_one(*hook):
                self.absent.append(hook[0])
                print(f"perfbench: warning: {hook[1]}.{hook[2]} not found; "
                      f"metrics {hook[0]}.* are absent", file=sys.stderr)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _install_one(self, name, module_name, target, group=None,
                     on_return=None, on_raise=None) -> bool:
        module = sys.modules.get(module_name)
        if module is None:
            return False
        cls_name, _, attr = target.rpartition(".")
        if not cls_name:
            original = getattr(module, attr, None)
            if not callable(original):
                return False
            wrapper = self._wrap(name, group, original, on_return, on_raise)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "hemanet" or mod_name.startswith("hemanet."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, wrapper)
            return True
        classes = [
            obj for obj in vars(module).values()
            if inspect.isclass(obj) and obj.__module__ == module_name
            and (cls_name == "*" or obj.__name__ == cls_name) and attr in vars(obj)
        ]
        for cls in classes:
            raw = vars(cls)[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(name, group, raw.__func__, on_return, on_raise))
            else:
                wrapped = self._wrap(name, group, raw, on_return, on_raise)
            self._set(cls, attr, wrapped)
        return bool(classes)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name, group, fn, on_return, on_raise):
        call = self._call

        def wrapper(*args, **kwargs):
            return call(name, group, fn, args, kwargs, on_return, on_raise)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- output ----------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "stats": {k: {"s": v.s, "self_s": v.self_s, "calls": v.calls}
                      for k, v in self.stats.items()},
            "counters": dict(self.counters),
            "absent": list(self.absent),
            "covered_s": self.covered_s,
        }


# ---------------------------------------------------------------------------
# counters taken at hook boundaries


def _rows_loaded(tracer, args, result):
    tracer.add("dataio.rows", len(result))


def _rejected(tracer, exc):
    if isinstance(exc, ValueError):
        tracer.add("records.rejected", 1)


def _positives(tracer, args, result):
    tracer.add("pipeline.positives", sum(1 for r in result if getattr(r, "verdict", None) == 1))


def _report_bytes(tracer, args, result):
    tracer.add("pipeline.report_bytes", len(result.encode("utf-8")))


def _model_file_bytes(tracer, args, result):
    path = args[0] if isinstance(args[0], (str, os.PathLike)) else args[1]
    tracer.add("serialize.model_bytes", os.path.getsize(path))


def _macs_per_row(model) -> int:
    """Multiply-adds of one forward pass per row, from the weight shapes.

    Exact for the default record-at-a-time modes (Elman single-step, NARX
    per-record), where every weight matrix is applied once per row.
    """
    return sum(int(p.size) for p in model.param_arrays() if p.ndim == 2)


def _forwarded(factor):
    def count(tracer, args, result):
        model, batch = args[0], args[1]
        rows = 1 if getattr(batch, "ndim", 1) == 1 else len(batch)
        tracer.add("nncore.rows_forwarded", rows)
        try:
            macs = _macs_per_row(model)
        except AttributeError:  # weights no longer exposed as param_arrays()
            tracer.absent_counter("nncore.flops")
            return
        tracer.add("nncore.flops", factor * rows * macs)
    return count


_FORWARD = _forwarded(1)
# Loss and gradients: the forward pass, the weight gradients, and the deltas
# sent back through each layer cost about one forward pass each.
_BACKWARD = _forwarded(3)

#: (metric prefix, module, target, group, on_return, on_raise).  A target
#: ``Cls.method`` patches that class; ``*.method`` patches every class of the
#: module that defines the method.  Hooks of the "compute" group count rows
#: and multiply-adds only at the outermost call, so a loss that runs the
#: batch forward inside it is not counted twice.
CLI_HOOKS = (
    ("cli.fit_stage", "hemanet.cli", "fit_stage"),
    ("cli.run_compare", "hemanet.cli", "run_compare"),
    ("dataio.load_csv", "hemanet.dataio", "load_csv", None, _rows_loaded),
    ("dataio.load_unlabeled_csv", "hemanet.dataio", "load_unlabeled_csv", None, _rows_loaded),
    ("records.check_record", "hemanet.records", "check_record", None, None, _rejected),
    ("preprocess.encode", "hemanet.preprocess", "encode"),
    ("preprocess.encode_batch", "hemanet.preprocess", "encode_batch"),
    ("preprocess.Normalizer.apply", "hemanet.preprocess", "Normalizer.apply"),
    ("preprocess.split_dataset", "hemanet.preprocess", "split_dataset"),
    ("preprocess.fit_normalizer", "hemanet.preprocess", "fit_normalizer"),
    ("models.forward", "hemanet.models", "*.forward", "compute", _FORWARD),
    ("models.predict_batch", "hemanet.models", "*.predict_batch", "compute", _FORWARD),
    ("models.batch_loss", "hemanet.models", "*.batch_loss", "compute", _FORWARD),
    ("models.batch_loss_and_grads", "hemanet.models", "*.batch_loss_and_grads",
     "compute", _BACKWARD),
    ("models.set_param_arrays", "hemanet.models", "*.set_param_arrays"),
    ("models.decode_subtype", "hemanet.models", "decode_subtype"),
    ("nncore.train_loop", "hemanet.nncore", "train_loop"),
    ("nncore.sgd_momentum_step", "hemanet.nncore", "sgd_momentum_step"),
    ("serialize.load_model", "hemanet.serialize", "load_model", None, _model_file_bytes),
    ("serialize.save_model", "hemanet.serialize", "save_model", None, _model_file_bytes),
    ("pipeline.run_pipeline", "hemanet.pipeline", "run_pipeline", None, _positives),
    ("pipeline.emit_reports", "hemanet.pipeline", "emit_reports", None, _report_bytes),
    ("pipeline.evaluate_diagnosis", "hemanet.pipeline", "evaluate_diagnosis"),
    ("pipeline.evaluate_classification", "hemanet.pipeline", "evaluate_classification"),
    ("metrics.ConfusionMatrix.from_pairs", "hemanet.metrics", "ConfusionMatrix.from_pairs"),
    ("metrics.render", "hemanet.metrics", "EvalReport.render_text"),
    ("metrics.render", "hemanet.metrics", "EvalReport.render_json"),
)


_COMPUTE = ("models.forward", "models.predict_batch", "models.batch_loss",
            "models.batch_loss_and_grads")

#: Counter -> the hooks that take it; it is absent when all of them are.
#: Every counter, like every ``.calls``, repeats exactly for given inputs.
COUNTER_SOURCES = {
    "dataio.rows": ("dataio.load_csv", "dataio.load_unlabeled_csv"),
    "records.rejected": ("records.check_record",),
    "pipeline.positives": ("pipeline.run_pipeline",),
    "pipeline.report_bytes": ("pipeline.emit_reports",),
    "nncore.rows_forwarded": _COMPUTE,
    "nncore.flops": _COMPUTE,
    "serialize.model_bytes": ("serialize.load_model", "serialize.save_model"),
}


def _accepted(tracer, args, result):
    tracer.add("synth.accepted", len(result))


#: Hooks on input generation, which runs in the benchmark process itself.
#: Only the generator calls ``rule_label`` while these are installed, so its
#: call count is the number of candidate records the generator tried.
SYNTH_HOOKS = (
    ("synth.synth_generate", "hemanet.synth", "synth_generate", None, _accepted),
    ("synth.rule_label", "hemanet.synth", "rule_label"),
)
