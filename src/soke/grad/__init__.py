"""Minimal differentiable-computation substrate used by every trained model."""

from .checkpoint import load_checkpoint, load_parameters, save_checkpoint
from .optim import Adam, CosineSchedule
from .tensor import (
    NEG_MASK,
    Tensor,
    concat,
    conv1d,
    cross_entropy,
    default_dtype,
    gather_rows,
    layer_norm,
    log_softmax_array,
    softmax,
    straight_through,
    upsample_repeat,
)

__all__ = [
    "Adam",
    "CosineSchedule",
    "NEG_MASK",
    "Tensor",
    "concat",
    "conv1d",
    "cross_entropy",
    "default_dtype",
    "gather_rows",
    "layer_norm",
    "load_checkpoint",
    "load_parameters",
    "log_softmax_array",
    "save_checkpoint",
    "softmax",
    "straight_through",
    "upsample_repeat",
]
