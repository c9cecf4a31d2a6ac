"""Optimizer, learning-rate schedule, and training/evaluation loops."""

from .loop import (
    CONFIG_VERSION,
    FinetuneResult,
    PreparedCorpus,
    PretrainResult,
    RunManifest,
    TrainConfig,
    derive_seed,
    encode_corpus,
    evaluate,
    finetune,
    format_predictions,
    load_pretrained,
    predict_lattice,
    prepare_corpus,
    pretrain,
    write_metrics,
    write_predictions,
)
from .optimizer import DECAY_EXEMPT_SUFFIXES, AdamW
from .schedule import ScheduleSpec, lr_at

__all__ = [
    "CONFIG_VERSION", "FinetuneResult", "PreparedCorpus", "PretrainResult",
    "RunManifest", "TrainConfig", "derive_seed", "encode_corpus", "evaluate",
    "finetune", "format_predictions", "load_pretrained", "predict_lattice",
    "prepare_corpus", "pretrain", "write_metrics", "write_predictions",
    "DECAY_EXEMPT_SUFFIXES", "AdamW", "ScheduleSpec", "lr_at",
]
