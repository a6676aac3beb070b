"""hemanet: from-scratch neural networks for CBC-based anemia screening.

Three model families (feedforward, Elman, NARX) trained with momentum
gradient descent, a two-stage diagnose-then-classify pipeline, a clinical
labeling rule, a consistent synthetic data generator, and the metrics
needed to compare the families.
"""

from .records import (
    ANALYTES,
    DEFAULT_BOUNDS,
    DEFAULT_RANGES,
    LABELS,
    SUBTYPES,
    AnemiaLabel,
    CbcColumns,
    CbcRecord,
    Gender,
    LabeledRecord,
    ReferenceRanges,
    UnclassifiableError,
    ValidationError,
    check_record,
    check_records,
    invalid_rows,
    rule_label,
    validate_record,
    validate_records,
)
from .synth import synth_generate
from .dataio import (
    CsvFormatError,
    load_csv,
    load_unlabeled_csv,
    save_csv,
    save_unlabeled_csv,
)
from .preprocess import (
    FULL9,
    PAPER7,
    SPLIT_PRESETS,
    DatasetSplit,
    FeatureSpec,
    Normalizer,
    encode,
    encode_batch,
    feature_spec,
    fit_normalizer,
    largest_remainder,
    split_dataset,
)
from .nncore import (
    LossCurve,
    NumericError,
    TrainConfig,
    TrainingDivergedError,
    gradient_check,
    sgd_momentum_step,
    sigmoid,
    train_loop,
)
from .models import (
    BAND_CENTERS,
    FAMILIES,
    Network,
    build_model,
    decode_subtype,
    encode_targets,
    output_width,
    subtype_indices,
)
from .serialize import ModelBundle, ModelFormatError, load_model, save_model
from .metrics import (
    ConfusionMatrix,
    EvalReport,
    EvalRow,
    accuracy,
    compare_report,
    f1_score,
    macro_metrics,
    precision_recall_f1,
)
from .pipeline import (
    NonFiniteOutputError,
    PatientReport,
    Screening,
    check_threshold,
    emit_reports,
    evaluate_classification,
    evaluate_diagnosis,
    evaluate_pipeline,
    run_pipeline,
)

__version__ = "0.1.0"
