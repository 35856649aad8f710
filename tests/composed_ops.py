"""Graph nodes the package no longer builds, kept as test oracles.

The elementwise operators `neg`, `sub`, `power`, `reduce_sum`, `mean` and
`detach`, and the shape operators `reshape` and `transpose`, with the
arithmetic `Tensor` had for `-x`, `a - b`, `x ** p`, `x.sum()`, `x.mean()`,
`x.detach()`, `x.reshape(shape)` and `x.transpose(axes)`. Tests build losses
and composed graphs from them.

Fused graph nodes written as the composed graphs they replace; each fused
node must equal its composed form bit for bit, forward and backward:

- The generator's `linear`, `attention` and `weighted_sum`. `attention`
  splits the heads into (B, h, T, dh) nodes (`split_heads`), runs
  `head_attention`, the matmuls around `softmax`, the masked softmax node,
  and joins the heads again (`join_heads`).
- The pose fit's `objective` (`posefit.objective`, plain numpy) as a graph
  of `posefit.body_fk` and its loss terms `loss_rec`, `loss_temp` and
  `loss_reg`, written with the `sqrt` and `absolute` nodes.
- The tokenizer's `vq_loss_terms`.
"""

from __future__ import annotations

import math

import numpy as np

from soke.grad import NEG_MASK, Tensor
from soke.posefit import _EPS, body_fk


def neg(x: Tensor) -> Tensor:
    def backward(g):
        x._accumulate(-g)

    return Tensor(-x.data, _parents=(x,), _op="neg", _backward=backward)


def sub(a, b) -> Tensor:
    """a - b for tensors or constants, as a + (-b)."""
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    return a + neg(b)


def power(x: Tensor, exponent: float) -> Tensor:
    def backward(g):
        x._accumulate(g * exponent * x.data ** (exponent - 1))

    return Tensor(x.data ** exponent, _parents=(x,), _op="pow", _backward=backward)


def reduce_sum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Sum in float64, stored in the default dtype."""
    def backward(g):
        if axis is None:
            x._accumulate(np.broadcast_to(np.asarray(g).reshape(()), x.shape))
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            x._accumulate(np.broadcast_to(gg, x.shape))

    return Tensor(x.data.sum(axis=axis, keepdims=keepdims, dtype=np.float64),
                  _parents=(x,), _op="sum", _backward=backward)


def mean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """reduce_sum times 1 / count, the count a scalar leaf."""
    if axis is None:
        count = x.data.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        count = int(np.prod([x.shape[a] for a in axes]))
    return reduce_sum(x, axis=axis, keepdims=keepdims) * (1.0 / float(count))


def detach(x: Tensor) -> Tensor:
    return Tensor(x.data, requires_grad=False, _op="detach")


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    def backward(g):
        x._accumulate(np.asarray(g).reshape(x.shape))

    return Tensor(x.data.reshape(shape), _parents=(x,), _op="reshape", _backward=backward)


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    def backward(g):
        x._accumulate(np.transpose(g, np.argsort(axes)))

    return Tensor(np.transpose(x.data, axes), _parents=(x,), _op="transpose", _backward=backward)


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


def split_heads(x: Tensor, num_heads: int) -> Tensor:
    """(B, T, d) -> (B, h, T, d / h)."""
    b, t, d = x.shape
    return transpose(reshape(x, (b, t, num_heads, d // num_heads)), (0, 2, 1, 3))


def join_heads(x: Tensor) -> Tensor:
    """(B, h, T, dh) -> (B, T, h * dh)."""
    b, h, t, dh = x.shape
    return reshape(transpose(x, (0, 2, 1, 3)), (b, t, h * dh))


def head_attention(q: Tensor, k_t: Tensor, v: Tensor, scale: float,
                   mask: np.ndarray | None = None) -> Tensor:
    """Attention over head-split q (B, h, Tq, dh), k_t (B or 1, h, dh, Tk)
    and v (B or 1, h, Tk, dh); mask broadcasts to (B, h, Tq, Tk)."""
    return softmax((q @ k_t) * scale, mask=mask) @ v


def attention(q: Tensor, k: Tensor, v: Tensor, num_heads: int,
              mask: np.ndarray | None = None) -> Tensor:
    qh, kh, vh = (split_heads(x, num_heads) for x in (q, k, v))
    if mask is not None:
        mask = np.expand_dims(mask, -3)
    scale = 1.0 / math.sqrt(q.shape[-1] // num_heads)
    return join_heads(head_attention(qh, transpose(kh, (0, 1, 3, 2)), vh, scale, mask))


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
    obs_points, conf = observations.points, observations.confidence[..., None]
    xy = joints[:, idx, 0:2]
    scale = reshape(cam_params[0:1], (1, 1, 1))
    shift = reshape(cam_params[1:3], (1, 1, 2))
    residual = sub(xy * scale + shift, Tensor(obs_points))
    if smooth > 0.0:
        magnitude = sqrt(residual * residual + smooth * smooth)
    else:
        magnitude = absolute(residual)
    return reduce_sum(magnitude * Tensor(conf))


def loss_temp(joints: Tensor) -> Tensor:
    if joints.shape[0] < 2:
        return Tensor(0.0)
    diff = sub(joints[1:], joints[:-1])
    return reduce_sum(sqrt(reduce_sum(diff * diff, axis=(1, 2)) + _EPS)) * 2.0


def loss_reg(theta: Tensor) -> Tensor:
    return sqrt(reduce_sum(theta * theta) + _EPS)


def objective(theta: Tensor, cam_params: Tensor, observations, chain, config,
              smooth: float) -> Tensor:
    joints = body_fk(theta, chain)
    rec = loss_rec(joints, observations, cam_params, config.observed_joints, smooth=smooth)
    return (rec * config.w_rec + loss_temp(joints) * config.w_temp
            + loss_reg(theta) * config.w_reg)


def vq_loss_terms(latents: Tensor, codes: Tensor, recon: Tensor, target: np.ndarray,
                  w_emb: float, w_com: float) -> tuple[Tensor, Tensor, Tensor, Tensor]:
    rec = mean(power(sub(recon, Tensor(np.asarray(target))), 2))
    emb = mean(power(sub(codes, detach(latents)), 2)) * w_emb
    com = mean(power(sub(latents, detach(codes)), 2)) * w_com
    total = rec + emb + com
    return total, rec, emb, com
