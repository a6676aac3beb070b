"""Operator CLI: synth | train | eval | predict | gradcheck | compare.

Every run with an explicit seed is reproducible byte for byte; nothing is
written outside the output paths given on the command line.  Exit codes:
0 success, 2 usage, 3 data error, 4 numeric failure.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .dataio import load_csv, load_unlabeled_csv, save_csv
from .metrics import EvalReport, compare_report
from .models import FAMILIES, SUBTYPE_ENCODINGS, build_model, encode_targets, output_width
from .nncore import UPDATE_MODES, NumericError, TrainConfig, gradient_check, train_loop
from .pipeline import (DEFAULT_THRESHOLD, REPORT_FORMATS, check_threshold, emit_reports,
                       evaluate_classification, evaluate_diagnosis, run_pipeline)
from .preprocess import (
    FEATURE_PRESETS,
    FULL9,
    SPLIT_PRESETS,
    encode_batch,
    feature_spec,
    fit_normalizer,
    split_dataset,
)
from .records import (
    DEFAULT_RANGES,
    AnemiaLabel,
    CbcColumns,
    ReferenceRanges,
)
from .serialize import ModelBundle, load_model, save_model
from .synth import synth_generate

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

# Order in which --mix counts are given.
MIX_ORDER = (
    AnemiaLabel.MICROCYTIC,
    AnemiaLabel.NORMOCYTIC,
    AnemiaLabel.MACROCYTIC,
    AnemiaLabel.NON_ANEMIC,
)

class UsageError(ValueError):
    """Semantically invalid flags (maps to exit code 2)."""


def fit_stage(
    train_records,
    family: str,
    stage: str,
    config: TrainConfig,
    spec=FULL9,
    encoding: str = SUBTYPE_ENCODINGS[0],
    val_records=None,
    scaling_records=None,
    **options,
):
    """Train one stage model on labeled records; returns (bundle, curve).

    The diagnosis stage trains on everything with binary targets; the
    classification stage trains on the anemic subset only.  The normalizer
    is fitted on the stage's own training rows unless ``scaling_records``
    overrides that (joint-scaling fidelity mode).  ``options`` are the
    family's (``FAMILIES[family].options``); a bad value raises UsageError,
    and so does ``config.patience`` when the stage has no validation rows.
    """
    if stage == "diagnosis":
        encoding = "binary1"
        subset = CbcColumns.of(train_records)
    elif stage == "classify":
        if encoding not in SUBTYPE_ENCODINGS:
            raise UsageError(f"classification encoding must be {' or '.join(SUBTYPE_ENCODINGS)}, "
                             f"got {encoding!r}")
        subset = CbcColumns.of(train_records).anemic()
        if not len(subset):
            raise ValueError("no anemic records to train the classification stage on")
    else:
        raise UsageError(f"unknown stage {stage!r}")

    raw = encode_batch(subset, spec)
    scaling = encode_batch(scaling_records, spec) if scaling_records is not None else raw
    normalizer = fit_normalizer(scaling)
    X = normalizer.apply(raw)
    T = encode_targets(subset.label, encoding)

    try:
        net = build_model(family, len(spec), config.hidden_size, output_width(encoding),
                          seed=config.seed, **options)
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    validation = None
    if val_records:
        val_subset = CbcColumns.of(val_records)
        if stage == "classify":
            val_subset = val_subset.anemic()
        if len(val_subset):
            validation = (normalizer.apply(encode_batch(val_subset, spec)),
                          encode_targets(val_subset.label, encoding))
    if config.patience is not None and validation is None:
        raise UsageError(f"patience needs validation rows, and the {stage} stage has none")

    net, curve = train_loop(net, (X, T), validation, config)
    bundle = ModelBundle(
        family=family,
        net=net,
        feature_spec=spec,
        output_encoding=encoding,
        normalizer=normalizer,
        train_meta={
            "stage": stage,
            "seed": config.seed,
            "learning_rate": config.learning_rate,
            "momentum": config.momentum,
            "epochs": config.epochs,
            "epochs_run": len(curve),
            "update_mode": config.update_mode,
            "hidden_size": config.hidden_size,
            "n_train": len(subset),
        },
    )
    return bundle, curve


def run_compare(
    records,
    seed: int = 0,
    fractions=(0.4, 0.4, 0.2),
    stratified: bool = True,
    config: TrainConfig | None = None,
    spec=FULL9,
    threshold: float = DEFAULT_THRESHOLD,
):
    """Train a diagnosis model per family and evaluate all on the test part.

    Returns (EvalReport, {family: LossCurve}); fully determined by the
    seed, data, and config.
    """
    config = config or TrainConfig()
    split = split_dataset(records, fractions, seed=seed, stratified=stratified)
    entries = []
    curves = {}
    for family in FAMILIES:
        bundle, curve = fit_stage(
            split.train,
            family,
            "diagnosis",
            replace(config, seed=seed),
            spec=spec,
            val_records=split.validation or None,
        )
        entries.append((family, evaluate_diagnosis(bundle, split.test, threshold)))
        curves[family] = curve
    return compare_report(entries, positive="anemic"), curves


# ---------------------------------------------------------------------------
# subcommands


def _ranges(args) -> ReferenceRanges:
    path = getattr(args, "ranges", None) or os.environ.get("HEMANET_RANGES")
    return ReferenceRanges.from_json(path) if path else DEFAULT_RANGES


def _write_or_print(text: str, out_path) -> None:
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_synth(args) -> int:
    parts = args.mix.split(",")
    if len(parts) != len(MIX_ORDER):
        raise UsageError(
            f"--mix needs {len(MIX_ORDER)} comma-separated counts "
            "(microcytic,normocytic,macrocytic,non_anemic)"
        )
    try:
        counts = [int(p) for p in parts]
    except ValueError:
        raise UsageError(f"--mix counts must be integers, got {args.mix!r}") from None
    if any(c < 0 for c in counts):
        raise UsageError("--mix counts must be non-negative")
    if sum(counts) != args.count:
        raise UsageError(f"--mix sums to {sum(counts)}, expected n={args.count}")
    if not 0 <= args.margin < 0.5:  # NaN fails both comparisons
        raise UsageError(f"--margin must be in [0, 0.5), got {args.margin!r}")
    records = synth_generate(
        args.count,
        dict(zip(MIX_ORDER, counts)),
        ranges=_ranges(args),
        seed=args.seed,
        margin=args.margin,
    )
    save_csv(records, args.out)
    print(f"wrote {len(records)} records to {args.out}")
    return EXIT_OK


def _config_from(args) -> TrainConfig:
    try:
        return TrainConfig(
            learning_rate=args.lr,
            momentum=args.momentum,
            epochs=args.epochs,
            update_mode=args.update_mode,
            hidden_size=args.hidden,
            seed=args.seed,
            patience=args.patience,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _family_options(args) -> dict:
    """The options of ``--family`` that were given, each by the flag named
    after it.  A flag of another family's option is a UsageError."""
    given = {(family, name): value for family, spec in FAMILIES.items() for name in spec.options
             if (value := getattr(args, name)) is not None}
    stray = [f"{family} option {name}" for family, name in given if family != args.family]
    if stray:
        raise UsageError(f"--family {args.family} takes no {', '.join(stray)}")
    return {name: value for (_, name), value in given.items()}


def cmd_train(args) -> int:
    options = _family_options(args)
    records = load_csv(args.data)
    config = _config_from(args)
    spec = feature_spec(args.features)
    if args.split == "none":
        train_records, val_records = records, None
        scaling_records = None
    else:
        split = split_dataset(records, SPLIT_PRESETS[args.split], seed=args.seed)
        train_records, val_records = split.train, split.validation or None
        scaling_records = records if args.joint_scaling else None
    bundle, curve = fit_stage(
        train_records,
        args.family,
        args.stage,
        config,
        spec=spec,
        encoding=args.encoding,
        val_records=val_records,
        scaling_records=scaling_records,
        **options,
    )
    save_model(bundle, args.out)
    if args.curve:
        Path(args.curve).write_text(curve.to_csv(), encoding="utf-8")
    print(
        f"trained {args.family} {args.stage} model: "
        f"loss {curve.train[0]:.6f} -> {curve.train[-1]:.6f} "
        f"over {len(curve)} epochs; saved to {args.out}"
    )
    return EXIT_OK


def _check_threshold_flag(args) -> None:
    try:
        check_threshold(args.threshold)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def cmd_eval(args) -> int:
    _check_threshold_flag(args)
    records = load_csv(args.data)
    rows = []
    for path in args.model:
        bundle = load_model(path)
        diagnosis = bundle.output_encoding == "binary1"
        cm = (evaluate_diagnosis(bundle, records, args.threshold) if diagnosis
              else evaluate_classification(bundle, records))
        if not cm.total:  # a file with no rows, or no anemic rows to type
            raise ValueError(f"{path}: no {'' if diagnosis else 'anemic '}rows in {args.data} to score")
        rows.extend(compare_report([(Path(path).stem, cm)], "anemic" if diagnosis else None).rows)
    report = EvalReport(rows)
    text = report.render_json() if args.format == "json" else report.render_text()
    _write_or_print(text, args.out)
    return EXIT_OK


def cmd_predict(args) -> int:
    _check_threshold_flag(args)
    diag = load_model(args.diagnosis)
    clf = load_model(args.classify)
    screening = run_pipeline(diag, clf, load_unlabeled_csv(args.data), threshold=args.threshold)
    created = None
    if not args.deterministic:
        created = datetime.now(timezone.utc).isoformat(timespec="seconds")
    text = emit_reports(screening, args.format, [args.diagnosis, args.classify], args.threshold,
                        created=created)
    _write_or_print(text, args.out)
    return EXIT_OK


def gradcheck_trial(family: str, seed: int, epsilon: float) -> float:
    """Max relative error of one random small-network gradient check, on the
    last of 3 random rows."""
    rng = np.random.default_rng(seed)
    features = int(rng.integers(3, 7))
    hidden = int(rng.integers(2, 9))
    out_dim = int(rng.integers(1, 4))
    # Integer options are delay orders: draw each between its default and 2.
    options = {name: int(rng.integers(default, 3))
               for name, default in FAMILIES[family].options.items() if type(default) is int}
    net = build_model(family, features, hidden, out_dim, seed=seed, **options)
    # Keep inputs away from zero so no gradient is degenerately tiny.
    X = rng.uniform(0.1, 1.0, size=(3, features)) * rng.choice([-1.0, 1.0], size=(3, features))
    return gradient_check(net, X[-1], rng.uniform(0.1, 0.9, size=(3, out_dim))[-1], epsilon)


def cmd_gradcheck(args) -> int:
    if args.trials < 1:
        raise UsageError(f"--trials must be at least 1, got {args.trials}")
    try:
        errors = [
            gradcheck_trial(args.family, args.seed + t, args.epsilon)
            for t in range(args.trials)
        ]
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    worst = max(errors)
    bar = max(1e-4, args.epsilon)
    verdict = "PASS" if worst < bar else "FAIL"
    print(f"max relative error: {worst:.3e} over {args.trials} trial(s) -> {verdict}")
    return EXIT_OK if verdict == "PASS" else EXIT_NUMERIC


def cmd_compare(args) -> int:
    _check_threshold_flag(args)
    records = load_csv(args.data)
    config = _config_from(args)
    report, curves = run_compare(
        records,
        seed=args.seed,
        fractions=SPLIT_PRESETS[args.split],
        stratified=not args.no_stratify,
        config=config,
        spec=feature_spec(args.features),
        threshold=args.threshold,
    )
    text = report.render_json() if args.format == "json" else report.render_text()
    _write_or_print(text, args.out)
    if args.curves:
        for family, curve in curves.items():
            Path(f"{args.curves}_{family}.csv").write_text(curve.to_csv(), encoding="utf-8")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    defaults = TrainConfig()
    p.add_argument("--hidden", type=int, default=defaults.hidden_size, help="hidden layer width")
    p.add_argument("--lr", type=float, default=defaults.learning_rate, help="learning rate")
    p.add_argument("--momentum", type=float, default=defaults.momentum, help="momentum coefficient")
    p.add_argument("--epochs", type=int, default=defaults.epochs)
    p.add_argument("--update-mode", choices=UPDATE_MODES, default=defaults.update_mode)
    p.add_argument("--patience", type=int, default=None,
                   help="early stop after this many epochs without validation improvement")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hemanet",
        description="Train and run anemia screening networks on CBC panels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a labeled synthetic CBC dataset")
    p.add_argument("-n", "--count", type=int, required=True)
    p.add_argument("--mix", required=True,
                   help="per-class counts: microcytic,normocytic,macrocytic,non_anemic")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--margin", type=float, default=0.05,
                   help="threshold clearance as a fraction of each analyte's range")
    p.add_argument("--ranges", default=None,
                   help="JSON reference-range overrides (or set HEMANET_RANGES)")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train one stage model")
    p.add_argument("--data", required=True)
    p.add_argument("--family", choices=tuple(FAMILIES), required=True)
    p.add_argument("--stage", choices=("diagnosis", "classify"), required=True)
    p.add_argument("--features", choices=tuple(FEATURE_PRESETS), default=FULL9.preset)
    p.add_argument("--encoding", choices=SUBTYPE_ENCODINGS, default=SUBTYPE_ENCODINGS[0],
                   help="classification output encoding (classify stage only)")
    p.add_argument("--split", choices=("none",) + tuple(SPLIT_PRESETS), default="none",
                   help="train on a split's training part instead of the whole file")
    p.add_argument("--joint-scaling", action="store_true",
                   help="fit the normalizer on all records, not just the training part")
    p.add_argument("--seed", type=int, default=0)
    _add_train_flags(p)
    # Family options; one left out takes the family's default.
    p.add_argument("--du", dest="d_u", type=int, help="NARX exogenous delay order")
    p.add_argument("--dy", dest="d_y", type=int, help="NARX output delay order")
    p.add_argument("--context-init", type=float, help="Elman initial context value per unit")
    p.add_argument("--curve", default=None, help="write the loss curve CSV here")
    p.add_argument("-o", "--out", required=True, help="model file path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate model(s) on a labeled dataset")
    p.add_argument("-m", "--model", action="append", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="run the two-stage pipeline on unlabeled records")
    p.add_argument("--diagnosis", required=True, help="diagnosis model file")
    p.add_argument("--classify", required=True, help="classification model file")
    p.add_argument("--data", required=True, help="unlabeled CSV")
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    p.add_argument("--format", choices=REPORT_FORMATS, default="text")
    p.add_argument("--deterministic", action="store_true",
                   help="suppress timestamps for byte-comparable output")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p.add_argument("--family", choices=tuple(FAMILIES), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilon", type=float, default=1e-5)
    p.add_argument("--trials", type=int, default=5)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("compare", help="train and compare the three families")
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=tuple(SPLIT_PRESETS), default="40-40-20")
    p.add_argument("--no-stratify", action="store_true")
    p.add_argument("--features", choices=tuple(FEATURE_PRESETS), default=FULL9.preset)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    _add_train_flags(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--curves", default=None,
                   help="prefix for per-family loss-curve CSVs")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
