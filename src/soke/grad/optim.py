"""Adam-style optimizer with a cosine learning-rate schedule."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby

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
    """Adam over a fixed parameter list, with an optional cosine schedule.

    The first and second moments live in one flat buffer each, laid out in
    parameter order. A step packs the gradients of each run of consecutive
    parameters that have one with a single concatenate, runs the moment and
    update arithmetic once over that run, and subtracts each parameter's
    slice of the scaled update. The arithmetic is elementwise, so every
    element sees the same operations as a per-parameter loop. A parameter
    whose grad is None keeps its data and moments. Parameters are never
    aliased into the buffers, so assigning `p.data` between steps is fine.
    """

    def __init__(self, params: list[Tensor], lr: float = 2e-4,
                 schedule: CosineSchedule | None = None):
        if not params:
            raise ConfigError("optimizer needs at least one parameter")
        dtype = params[0].data.dtype
        if any(p.data.dtype != dtype for p in params):
            raise ConfigError("optimizer parameters must share one dtype")
        self.params = params
        self.lr = lr
        self.schedule = schedule
        self.offsets = np.cumsum([0] + [p.data.size for p in params]).tolist()
        self.m = np.zeros(self.offsets[-1], dtype=dtype)
        self.v = np.zeros(self.offsets[-1], dtype=dtype)
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
        runs = groupby(range(len(self.params)), key=lambda i: self.params[i].grad is not None)
        for has_grad, run in runs:
            if has_grad:
                run = list(run)
                self._update(run[0], run[-1] + 1, lr, bc1, bc2)

    def _update(self, first: int, stop: int, lr: float, bc1: float, bc2: float) -> None:
        """One Adam update of params[first:stop], which all have gradients."""
        params, offsets = self.params[first:stop], self.offsets[first: stop + 1]
        lo, hi = offsets[0], offsets[-1]
        g = np.concatenate([p.grad.reshape(-1) for p in params])
        m, v = self.m[lo:hi], self.v[lo:hi]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        delta = lr * ((m / bc1) / (np.sqrt(v / bc2) + EPS))
        for p, start, end in zip(params, offsets, offsets[1:]):
            p.data = p.data - delta[start - lo: end - lo].reshape(p.shape)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()
