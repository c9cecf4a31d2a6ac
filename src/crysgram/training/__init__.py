"""Optimizer, learning-rate schedule, and training/evaluation loops."""

from .loop import (
    CONFIG_VERSION,
    PRETRAIN_OBJECTIVES,
    FinetuneResult,
    PreparedCorpus,
    PretrainResult,
    RunManifest,
    TrainConfig,
    derive_seed,
    encode_corpus,
    evaluate,
    finetune,
    finetune_corpora,
    format_predictions,
    load_pretrained,
    masked_position_accuracy,
    predict_lattice,
    prepare_corpus,
    pretrain,
    write_metrics,
    write_predictions,
)
from .optimizer import DECAY_EXEMPT_SUFFIXES, AdamW
from .schedule import ScheduleSpec, lr_at

__all__ = [
    "CONFIG_VERSION", "PRETRAIN_OBJECTIVES", "FinetuneResult",
    "PreparedCorpus", "PretrainResult", "RunManifest", "TrainConfig",
    "derive_seed", "encode_corpus", "evaluate", "finetune",
    "finetune_corpora", "format_predictions", "load_pretrained",
    "masked_position_accuracy", "predict_lattice", "prepare_corpus", "pretrain", "write_metrics",
    "write_predictions",
    "DECAY_EXEMPT_SUFFIXES", "AdamW", "ScheduleSpec", "lr_at",
]
