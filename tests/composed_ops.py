"""Fused graph nodes written as the composed graphs they replace; each
fused node must equal its composed form bit for bit, forward and backward.

- The generator's `linear`, `attention` and `weighted_sum`. `softmax` is
  the masked softmax node that attention folds in.
- The pose fit's `loss_rec`, `loss_temp` and `loss_reg`, and `objective`,
  the weighted total `posefit._objective` builds from them. `sqrt` and
  `absolute` are the nodes those losses fold in.
"""

from __future__ import annotations

import numpy as np

from soke.grad import NEG_MASK, Tensor
from soke.posefit import _EPS, body_fk


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


def sqrt(x: Tensor) -> Tensor:
    value = np.sqrt(x.data)

    def backward(g):
        x._accumulate(g * 0.5 / value)

    return Tensor(value, _parents=(x,), _op="sqrt", _backward=backward)


def absolute(x: Tensor) -> Tensor:
    def backward(g):
        x._accumulate(g * np.sign(x.data))

    return Tensor(np.abs(x.data), _parents=(x,), _op="abs", _backward=backward)


def loss_rec(joints: Tensor, observations, cam_params: Tensor, observed_joints,
             smooth: float = 0.0) -> Tensor:
    idx = np.asarray(observed_joints)
    obs_points = np.stack([o.points for o in observations])
    conf = np.stack([o.confidence for o in observations])[..., None]
    xy = joints[:, idx, 0:2]
    scale = cam_params[0:1].reshape(1, 1, 1)
    shift = cam_params[1:3].reshape(1, 1, 2)
    residual = xy * scale + shift - Tensor(obs_points)
    if smooth > 0.0:
        magnitude = sqrt(residual * residual + smooth * smooth)
    else:
        magnitude = absolute(residual)
    return (magnitude * Tensor(conf)).sum()


def loss_temp(joints: Tensor) -> Tensor:
    if joints.shape[0] < 2:
        return Tensor(0.0)
    diff = joints[1:] - joints[:-1]
    return sqrt((diff * diff).sum(axis=(1, 2)) + _EPS).sum() * 2.0


def loss_reg(theta: Tensor) -> Tensor:
    return sqrt((theta * theta).sum() + _EPS)


def objective(theta: Tensor, cam_params: Tensor, observations, chain, config,
              smooth: float) -> Tensor:
    joints = body_fk(theta, chain)
    rec = loss_rec(joints, observations, cam_params, config.observed_joints, smooth=smooth)
    return (rec * config.w_rec + loss_temp(joints) * config.w_temp
            + loss_reg(theta) * config.w_reg)
