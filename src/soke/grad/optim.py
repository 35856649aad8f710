"""Adam-style optimizer with a cosine learning-rate schedule."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, GraphError
from .tensor import Tensor

BETA1, BETA2 = 0.9, 0.999  # moment decay rates
EPS = 1e-8  # added to the second-moment root


@dataclass
class CosineSchedule:
    """Cosine decay from base_lr to min_lr over total_steps, then flat."""

    base_lr: float
    total_steps: int
    min_lr: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.base_lr) and self.base_lr > 0.0
                and math.isfinite(self.min_lr) and 0.0 <= self.min_lr <= self.base_lr):
            raise ConfigError(f"lr must be finite and positive and min_lr in [0, lr]; got "
                              f"lr={self.base_lr}, min_lr={self.min_lr}")

    def lr(self, step: int) -> float:
        if self.total_steps <= 0:
            return self.base_lr
        t = min(step, self.total_steps) / self.total_steps
        return self.min_lr + 0.5 * (self.base_lr - self.min_lr) * (1.0 + math.cos(math.pi * t))


class Adam:
    """Adam over a fixed parameter list, with an optional cosine schedule.

    The first and second moments live in one flat buffer each, laid out in
    parameter order. A step packs every parameter's gradient with a single
    concatenate, runs the moment and update arithmetic once over all of
    them, and subtracts each parameter's slice of the scaled update. The
    arithmetic is elementwise, so every element sees the same operations as
    a per-parameter loop. A step allocates no array the size of the
    parameters but their new values: the packing and every intermediate
    write, with `out=`, into two scratch buffers per dtype that the
    optimizer owns. The packed gradient and its products with the moment
    rates take the gradients' dtype; the update takes the parameters'.
    Parameters come as the (name, tensor) pairs a model's `parameters()`
    returns. Every parameter must have a gradient at each step; one without
    raises GraphError naming it. Parameters are never aliased into the
    buffers, so assigning `p.data` between steps is fine.
    """

    def __init__(self, named_params: list[tuple[str, Tensor]], lr: float = 2e-4,
                 schedule: CosineSchedule | None = None):
        if not named_params:
            raise ConfigError("optimizer needs at least one parameter")
        self.names = [name for name, _ in named_params]
        params = [p for _, p in named_params]
        dtype = params[0].data.dtype
        if any(p.data.dtype != dtype for p in params):
            raise ConfigError("optimizer parameters must share one dtype")
        self.params = params
        self.lr = lr
        self.schedule = schedule
        self.offsets = np.cumsum([0] + [p.data.size for p in params]).tolist()
        self.m = np.zeros(self.offsets[-1], dtype=dtype)
        self.v = np.zeros(self.offsets[-1], dtype=dtype)
        self.scratch: dict[np.dtype, tuple[np.ndarray, np.ndarray]] = {}
        self.steps_taken = 0

    def current_lr(self) -> float:
        if self.schedule is not None:
            return self.schedule.lr(self.steps_taken)
        return self.lr

    def step(self) -> None:
        for name, p in zip(self.names, self.params):
            if p.grad is None:
                raise GraphError(f"optimizer parameter {name} (shape {p.shape}) has no gradient")
        lr = self.current_lr()
        self.steps_taken += 1
        t = self.steps_taken
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        m, v = self.m, self.v
        grads = [p.grad for p in self.params]
        g, tmp = self._buffers(np.result_type(*grads))
        np.concatenate(grads, axis=None, out=g)
        m *= BETA1
        m += np.multiply(1.0 - BETA1, g, out=tmp)
        v *= BETA2
        np.multiply(g, g, out=tmp)
        v += np.multiply(1.0 - BETA2, tmp, out=tmp)
        # lr * ((m / bc1) / (sqrt(v / bc2) + EPS)); when the gradients share
        # the parameters' dtype, this reuses the buffers g and tmp
        delta, root = self._buffers(m.dtype)
        np.divide(m, bc1, out=delta)
        np.sqrt(np.divide(v, bc2, out=root), out=root)
        delta /= np.add(root, EPS, out=root)
        delta *= lr
        for p, start, end in zip(self.params, self.offsets, self.offsets[1:]):
            p.data = p.data - delta[start:end].reshape(p.shape)

    def _buffers(self, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
        """Two scratch arrays the size of the moments, made once per dtype."""
        if dtype not in self.scratch:
            self.scratch[dtype] = (np.empty_like(self.m, dtype=dtype),
                                   np.empty_like(self.m, dtype=dtype))
        return self.scratch[dtype]

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()
