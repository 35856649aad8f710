"""Minimal differentiable-computation substrate used by every trained model."""

from .checkpoint import load_checkpoint, load_parameters, save_checkpoint
from .optim import Adam, CosineSchedule
from .tensor import (
    NEG_MASK,
    Tensor,
    attention,
    concat,
    conv1d,
    cross_entropy,
    default_dtype,
    layer_norm,
    linear,
    no_grad,
    straight_through,
    upsample_repeat,
)

__all__ = [
    "Adam",
    "CosineSchedule",
    "NEG_MASK",
    "Tensor",
    "attention",
    "concat",
    "conv1d",
    "cross_entropy",
    "default_dtype",
    "layer_norm",
    "linear",
    "load_checkpoint",
    "load_parameters",
    "no_grad",
    "save_checkpoint",
    "straight_through",
    "upsample_repeat",
]
