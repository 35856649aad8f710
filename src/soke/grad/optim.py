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
    """Cosine decay from base_lr to min_lr over total_steps (at least one),
    then flat at min_lr; min_lr == base_lr gives a constant rate."""

    base_lr: float
    total_steps: int
    min_lr: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.base_lr) and self.base_lr > 0.0
                and math.isfinite(self.min_lr) and 0.0 <= self.min_lr <= self.base_lr):
            raise ConfigError(f"lr must be finite and positive and min_lr in [0, lr]; got "
                              f"lr={self.base_lr}, min_lr={self.min_lr}")
        if self.total_steps < 1:
            raise ConfigError(f"a schedule needs at least one step; got {self.total_steps}")

    def lr(self, step: int) -> float:
        t = min(step, self.total_steps) / self.total_steps
        return self.min_lr + 0.5 * (self.base_lr - self.min_lr) * (1.0 + math.cos(math.pi * t))


class Adam:
    """Adam (Kingma & Ba 2015) over a fixed parameter list, at the rate its
    schedule gives for each step.

    The first and second moments live in one flat buffer each, laid out in
    parameter order. A step packs every parameter's gradient with a single
    concatenate, runs the moment and update arithmetic once over all of
    them, and subtracts each parameter's slice of the scaled update. The
    arithmetic is elementwise, so every element sees the same operations as
    a per-parameter loop. A step allocates no float array the size of the
    parameters but their new values: the packing and every intermediate
    write, with `out=`, into one scratch pair in the parameters' dtype,
    which every gradient has (`Tensor._accumulate` casts each to its
    parameter's). Parameters come as the (name, tensor) pairs a model's
    `parameters()` returns. Every parameter must have a gradient at each
    step; one without raises GraphError naming it. Parameters are never
    aliased into the buffers, so assigning `p.data` between steps is fine.

    A first moment smaller in magnitude than the dtype's smallest normal
    number is flushed to zero, through a mask of one byte per element. A
    parameter whose gradient stays zero would otherwise keep its first
    moment among the smallest subnormals, where round-to-nearest stops the
    decay by BETA1, and every later step would run slow subnormal
    arithmetic on it. The flush keeps the parameters' bits. A subnormal m
    (below 1.2e-38 in float32) gives an update below lr * 1.2e-37 / EPS,
    so below 1e-30 at any rate up to 1e-2, which is under half an ulp of
    any parameter with |p| above about 1e-23. A later gradient above about
    1e-29 absorbs a subnormal m into the next m as it absorbs a zero.
    """

    def __init__(self, named_params: list[tuple[str, Tensor]], schedule: CosineSchedule):
        if not named_params:
            raise ConfigError("optimizer needs at least one parameter")
        self.names = [name for name, _ in named_params]
        params = [p for _, p in named_params]
        dtype = params[0].data.dtype
        if any(p.data.dtype != dtype for p in params):
            raise ConfigError("optimizer parameters must share one dtype")
        self.params = params
        self.schedule = schedule
        self.offsets = np.cumsum([0] + [p.data.size for p in params]).tolist()
        self.m = np.zeros(self.offsets[-1], dtype=dtype)
        self.v = np.zeros(self.offsets[-1], dtype=dtype)
        self.scratch = (np.empty_like(self.m), np.empty_like(self.m))
        self.steps_taken = 0

    def current_lr(self) -> float:
        return self.schedule.lr(self.steps_taken)

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
        g, tmp = self.scratch
        np.concatenate([p.grad for p in self.params], axis=None, out=g)
        m *= BETA1
        m += np.multiply(1.0 - BETA1, g, out=tmp)
        np.copyto(m, 0.0, where=np.abs(m, out=tmp) < np.finfo(m.dtype).tiny)
        v *= BETA2
        np.multiply(g, g, out=tmp)
        v += np.multiply(1.0 - BETA2, tmp, out=tmp)
        # lr * ((m / bc1) / (sqrt(v / bc2) + EPS)), in the scratch pair again
        delta, root = g, tmp
        np.divide(m, bc1, out=delta)
        np.sqrt(np.divide(v, bc2, out=root), out=root)
        delta /= np.add(root, EPS, out=root)
        delta *= lr
        for p, start, end in zip(self.params, self.offsets, self.offsets[1:]):
            p.data = p.data - delta[start:end].reshape(p.shape)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()
