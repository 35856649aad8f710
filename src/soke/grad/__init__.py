"""Minimal differentiable-computation substrate used by every trained model."""

from .checkpoint import load_checkpoint, load_parameters, save_checkpoint
from .fdcheck import check_gradients, finite_difference_grad, max_relative_error
from .optim import Adam, CosineSchedule, OptimizerState
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
    stack,
    straight_through,
    upsample_repeat,
)

__all__ = [
    "Adam",
    "CosineSchedule",
    "NEG_MASK",
    "OptimizerState",
    "Tensor",
    "check_gradients",
    "concat",
    "conv1d",
    "cross_entropy",
    "default_dtype",
    "finite_difference_grad",
    "gather_rows",
    "layer_norm",
    "load_checkpoint",
    "load_parameters",
    "log_softmax_array",
    "max_relative_error",
    "save_checkpoint",
    "softmax",
    "stack",
    "straight_through",
    "upsample_repeat",
]
