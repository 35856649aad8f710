"""The generator's fused graph nodes written as the composed graphs they
replace: `linear`, `attention` and `weighted_sum` must equal these bit for
bit, forward and backward. `softmax` is the masked softmax node that
attention folds in.
"""

from __future__ import annotations

import numpy as np

from soke.grad import NEG_MASK, Tensor


def softmax(logits: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Softmax over the last axis, with an optional boolean support mask.

    Masked-out entries (mask False) get probability exactly zero.
    """
    z = logits.data
    if mask is not None:
        z = np.where(mask, z, NEG_MASK)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    prob = e / e.sum(axis=-1, keepdims=True, dtype=np.float64).astype(z.dtype)
    out = Tensor(prob, _parents=(logits,), _op="softmax")

    def backward(g):
        if logits.requires_grad:
            dot = (g * prob).sum(axis=-1, keepdims=True, dtype=np.float64).astype(z.dtype)
            grad = prob * (g - dot)
            if mask is not None:
                grad = np.where(mask, grad, 0.0)
            logits._accumulate(grad)

    if out.requires_grad:
        out._backward = backward
    return out


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return x @ w + b


def attention(q: Tensor, k_t: Tensor, v: Tensor, scale: float,
              mask: np.ndarray | None = None) -> Tensor:
    return softmax((q @ k_t) * scale, mask=mask) @ v


def weighted_sum(parts: list[Tensor], weights: list[float]) -> Tensor:
    total = parts[0] * weights[0]
    for part, weight in zip(parts[1:], weights[1:]):
        total = total + part * weight
    return total
