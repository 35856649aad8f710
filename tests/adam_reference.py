"""Adam as one loop over the parameters, each with its own moments.

The oracle of the optimizer's flat-buffer update: the same arithmetic per
element, run parameter by parameter, with no flush of subnormal moments.
"""

from __future__ import annotations

import numpy as np

from soke.grad import CosineSchedule
from soke.grad.optim import BETA1, BETA2, EPS


class PerParameterAdam:
    def __init__(self, params, schedule: CosineSchedule):
        self.params, self.schedule, self.t = params, schedule, 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]

    def step(self) -> None:
        lr = self.schedule.lr(self.t)
        self.t += 1
        bc1, bc2 = 1.0 - BETA1 ** self.t, 1.0 - BETA2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + EPS)
            p.data = (p.data - lr * update).astype(p.data.dtype)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()
