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
    no_grad,
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
    "no_grad",
    "save_checkpoint",
    "softmax",
    "straight_through",
    "upsample_repeat",
]
