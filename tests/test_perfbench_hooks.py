"""Every per-layer hook of the benchmark still finds its target.

A traced benchmark run whose hook target is gone still exits 0, but its
result silently lacks that hook's metrics.  This installs the hooks against
the package and checks that none is absent and that the multiply-add
counter works on a model of each family.
"""
import sys
from pathlib import Path

import numpy as np
import pytest

import hemanet.cli  # noqa: F401  (loads every module the CLI hooks patch)
import hemanet.synth  # noqa: F401
from hemanet.models import build_model
from hemanet.nncore import TrainConfig, train_loop

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracing import CLI_HOOKS, SYNTH_HOOKS, Tracer, _macs_per_row  # noqa: E402


@pytest.fixture
def tracer():
    tracer = Tracer()
    tracer.install(CLI_HOOKS + SYNTH_HOOKS)
    yield tracer
    tracer.uninstall()


def test_no_hook_is_absent(tracer):
    assert tracer.absent == []


@pytest.mark.parametrize("family", ["ffnn", "elman", "narx"])
def test_flops_counted_for_each_family(tracer, family):
    model = build_model(family, 9, 5, 3, seed=1)
    macs = _macs_per_row(model)
    assert macs == sum(p.size for p in model.param_arrays() if p.ndim == 2) > 0
    X = np.random.default_rng(2).uniform(-1, 1, size=(4, 9))
    model.batch_loss_and_grads(X, np.full((4, 3), 0.5))
    model.batch_loss(X, np.full((4, 3), 0.5))
    assert tracer.absent == []
    assert tracer.counters["nncore.rows_forwarded"] == 8
    assert tracer.counters["nncore.flops"] == (3 + 1) * 4 * macs
    assert tracer.stats["models.batch_loss_and_grads"].calls == 1
    assert tracer.stats["models.batch_loss"].calls == 1


@pytest.mark.parametrize("family", ["ffnn", "elman", "narx"])
def test_per_sample_training_keeps_hook_counts(tracer, family):
    # Each one-row update is one batch_loss_and_grads call and one optimizer
    # step; each epoch adds one validation pass over its rows.
    rows, epochs, val_rows = 6, 3, 4
    model = build_model(family, 9, 5, 3, seed=1)
    rng = np.random.default_rng(3)
    X, T = rng.uniform(-1, 1, size=(rows + val_rows, 9)), rng.uniform(size=(rows + val_rows, 3))
    train, validation = (X[:rows], T[:rows]), (X[rows:], T[rows:])
    train_loop(model, train, validation, TrainConfig(epochs=epochs, update_mode="per-sample"))
    updates, macs = rows * epochs, _macs_per_row(model)
    assert tracer.absent == []
    assert tracer.stats["models.batch_loss_and_grads"].calls == updates
    assert tracer.stats["nncore.sgd_momentum_step"].calls == updates
    assert tracer.stats["models.batch_loss"].calls == epochs
    assert tracer.counters["nncore.rows_forwarded"] == updates + val_rows * epochs
    assert tracer.counters["nncore.flops"] == (3 * updates + val_rows * epochs) * macs
