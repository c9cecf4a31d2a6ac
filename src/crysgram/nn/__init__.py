"""Dense tensor autodiff core and the transformer encoder built on it."""

from .checkpoint import load_state, read_header, save_state
from .encoder import (
    AttentionMap,
    EncoderConfig,
    EncoderState,
    desk_config,
    encoder_forward,
    multi_head_attention,
    paper_config,
    scaled_dot_attention,
)
from .export import (
    deserialize_attention,
    export_attention,
    export_cls_rows,
    serialize_attention,
)
from .tensor import (
    Tensor,
    as_tensor,
    concat,
    dropout,
    gather_rows,
    gelu,
    layer_norm,
    linear,
    log_softmax,
    matmul,
    silu,
    softmax,
)

__all__ = [
    "load_state", "read_header", "save_state",
    "AttentionMap", "EncoderConfig", "EncoderState", "desk_config",
    "encoder_forward", "multi_head_attention", "paper_config",
    "scaled_dot_attention",
    "deserialize_attention", "export_attention", "export_cls_rows",
    "serialize_attention",
    "Tensor", "as_tensor", "concat", "dropout", "gather_rows", "gelu",
    "layer_norm", "linear", "log_softmax", "matmul", "silu", "softmax",
]
