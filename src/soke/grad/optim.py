"""Adam-style optimizer with a cosine learning-rate schedule."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from .tensor import Tensor

BETA1, BETA2 = 0.9, 0.999  # moment decay rates
EPS = 1e-8  # added to the second-moment root


@dataclass
class CosineSchedule:
    """Cosine decay from base_lr to min_lr over total_steps, then flat."""

    base_lr: float
    total_steps: int
    min_lr: float = 0.0

    def lr(self, step: int) -> float:
        if self.total_steps <= 0:
            return self.base_lr
        t = min(step, self.total_steps) / self.total_steps
        return self.min_lr + 0.5 * (self.base_lr - self.min_lr) * (1.0 + math.cos(math.pi * t))


class Adam:
    """Adam over a fixed parameter list, with an optional cosine schedule."""

    def __init__(self, params: list[Tensor], lr: float = 2e-4,
                 schedule: CosineSchedule | None = None):
        if not params:
            raise ConfigError("optimizer needs at least one parameter")
        self.params = params
        self.lr = lr
        self.schedule = schedule
        self.m = [np.zeros(p.shape, dtype=p.data.dtype) for p in params]
        self.v = [np.zeros(p.shape, dtype=p.data.dtype) for p in params]
        self.steps_taken = 0

    def current_lr(self) -> float:
        if self.schedule is not None:
            return self.schedule.lr(self.steps_taken)
        return self.lr

    def step(self) -> None:
        lr = self.current_lr()
        self.steps_taken += 1
        t = self.steps_taken
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if g is None:
                continue
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + EPS)
            p.data = (p.data - lr * update).astype(p.data.dtype)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()
