"""Reverse-mode autodiff on dense numpy arrays.

The operator set is deliberately closed: it holds only what the motion
tokenizer CNN, the micro encoder-decoder generator and the pose-fitting
losses run. The graph nodes those create are add, neg, mul, pow, sqrt, abs,
relu, matmul, sum, reshape, transpose, slice, concat, gather, softmax,
cross_entropy, layer_norm, conv1d, upsample, straight_through and detach on
top of leaves, plus the pose fit's own `body_fk` node; subtraction and mean
are composed from them. Default storage is float32 with float64 accumulation
in reductions. `default_dtype` switches newly created tensors to float64; its
users are `posefit.fit_sequence` and the tests' finite-difference gradient
checks, so central differences are not drowned by rounding noise.
Every op checks its output for NaN/inf so divergence surfaces at the op that
produced it instead of three losses later.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from ..errors import GraphError, NonFiniteError

_default_dtype = np.float32

# Additive mask value for disallowed logits. Large enough to zero the
# probability in float32 softmax, small enough not to overflow.
NEG_MASK = -1e9


@contextmanager
def default_dtype(dtype):
    """Temporarily change the dtype used for newly created tensors."""
    global _default_dtype
    previous = _default_dtype
    _default_dtype = np.dtype(dtype).type
    try:
        yield
    finally:
        _default_dtype = previous


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"non-finite values produced by op '{op}'")


def _sum_to_shape(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the shape of its source operand."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A node in the computation graph.

    `data` is a float ndarray. If `requires_grad` is set (directly or
    inherited from a parent), backward() populates `grad` on leaves.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op", "_consumed")

    def __init__(self, data, requires_grad: bool = False, _parents: tuple = (), _op: str = "leaf"):
        self.data = np.asarray(data, dtype=_default_dtype)
        _check_finite(self.data, _op)
        self.grad: np.ndarray | None = None
        if not requires_grad:
            for parent in _parents:
                if parent.requires_grad:
                    requires_grad = True
                    break
        self.requires_grad = requires_grad
        self._parents = _parents if self.requires_grad else ()
        self._backward = None
        self._op = _op
        self._consumed = False

    # -- bookkeeping ---------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, op={self._op}, requires_grad={self.requires_grad})"

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = np.asarray(grad, dtype=self.data.dtype)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    def zero_grad(self) -> None:
        self.grad = None

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False, _op="detach")

    def item(self) -> float:
        if self.data.size != 1:
            raise GraphError("item() requires a single-element tensor")
        return float(self.data.reshape(()))

    # -- elementwise arithmetic ------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out = Tensor(self.data + other.data, _parents=(self, other), _op="add")

        def backward(g):
            if self.requires_grad:
                self._accumulate(_sum_to_shape(g, self.shape))
            if other.requires_grad:
                other._accumulate(_sum_to_shape(g, other.shape))

        out._backward = backward
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        out = Tensor(-self.data, _parents=(self,), _op="neg")

        def backward(g):
            if self.requires_grad:
                self._accumulate(-g)

        out._backward = backward
        return out

    def __sub__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        return self + (-other)

    def __rsub__(self, other) -> "Tensor":
        return Tensor(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out = Tensor(self.data * other.data, _parents=(self, other), _op="mul")

        def backward(g):
            if self.requires_grad:
                self._accumulate(_sum_to_shape(g * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_sum_to_shape(g * self.data, other.shape))

        out._backward = backward
        return out

    __rmul__ = __mul__

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise GraphError("pow supports scalar exponents only")
        out = Tensor(self.data ** exponent, _parents=(self,), _op="pow")

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * exponent * self.data ** (exponent - 1))

        out._backward = backward
        return out

    # -- matmul ------------------------------------------------------------------

    def __matmul__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out = Tensor(self.data @ other.data, _parents=(self, other), _op="matmul")

        def backward(g):
            if self.requires_grad:
                self._accumulate(_sum_to_shape(g @ _swap_last(other.data), self.shape))
            if other.requires_grad:
                other._accumulate(_sum_to_shape(_swap_last(self.data) @ g, other.shape))

        out._backward = backward
        return out

    # -- reductions -----------------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        value = self.data.sum(axis=axis, keepdims=keepdims, dtype=np.float64)
        out = Tensor(value, _parents=(self,), _op="sum")

        def backward(g):
            if not self.requires_grad:
                return
            if axis is None:
                self._accumulate(np.broadcast_to(np.asarray(g).reshape(()), self.shape))
            else:
                gg = g if keepdims else np.expand_dims(g, axis)
                self._accumulate(np.broadcast_to(gg, self.shape))

        out._backward = backward
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(count))

    # -- shape manipulation -------------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = Tensor(self.data.reshape(shape), _parents=(self,), _op="reshape")

        def backward(g):
            if self.requires_grad:
                self._accumulate(np.asarray(g).reshape(self.shape))

        out._backward = backward
        return out

    def transpose(self, axes: tuple[int, ...]) -> "Tensor":
        out = Tensor(np.transpose(self.data, axes), _parents=(self,), _op="transpose")
        inverse = tuple(int(i) for i in np.argsort(axes))

        def backward(g):
            if self.requires_grad:
                self._accumulate(np.transpose(g, inverse))

        out._backward = backward
        return out

    def __getitem__(self, key) -> "Tensor":
        out = Tensor(self.data[key], _parents=(self,), _op="slice")
        # an index array may repeat an element, whose gradients then add up;
        # basic slices select each element at most once and assign
        fancy = any(isinstance(k, (np.ndarray, list)) for k in
                    (key if isinstance(key, tuple) else (key,)))

        def backward(g):
            if self.requires_grad:
                full = np.zeros(self.shape, dtype=self.data.dtype)
                if fancy:
                    np.add.at(full, key, g)
                else:
                    full[key] = g
                self._accumulate(full)

        out._backward = backward
        return out

    # -- nonlinearities -------------------------------------------------------------------

    def relu(self) -> "Tensor":
        out = Tensor(np.maximum(self.data, 0.0), _parents=(self,), _op="relu")

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * (self.data > 0.0))

        out._backward = backward
        return out

    def abs(self) -> "Tensor":
        out = Tensor(np.abs(self.data), _parents=(self,), _op="abs")

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * np.sign(self.data))

        out._backward = backward
        return out

    def sqrt(self) -> "Tensor":
        value = np.sqrt(self.data)
        out = Tensor(value, _parents=(self,), _op="sqrt")

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * 0.5 / value)

        out._backward = backward
        return out

    # -- graph traversal -------------------------------------------------------------------

    def backward(self) -> None:
        """Populate .grad on every reachable tensor with requires_grad.

        Raises GraphError if the loss is not scalar or backward already ran
        on this graph.
        """
        if self.data.size != 1:
            raise GraphError("backward() requires a scalar loss")
        if self._consumed:
            raise GraphError("backward() already called on this graph; rebuild the loss first")
        self._consumed = True

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))

        self._accumulate(np.ones_like(self.data))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            # Free intermediate gradients; keep them on leaves/parameters.
            if node._parents and node is not self:
                node.grad = None


def _swap_last(arr: np.ndarray) -> np.ndarray:
    return np.swapaxes(arr, -1, -2)


# -- free functions on tensors --------------------------------------------------


def concat(parts: list[Tensor], axis: int = 0) -> Tensor:
    arrays = [p.data for p in parts]
    out = Tensor(np.concatenate(arrays, axis=axis), _parents=tuple(parts), _op="concat")
    sizes = [a.shape[axis] for a in arrays]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for part, start, stop in zip(parts, offsets[:-1], offsets[1:]):
            if part.requires_grad:
                index = [slice(None)] * g.ndim
                index[axis] = slice(start, stop)
                part._accumulate(g[tuple(index)])

    out._backward = backward
    return out


def gather_rows(table: Tensor, ids: np.ndarray) -> Tensor:
    """Embedding lookup: ids of any shape index the first axis of `table`."""
    ids = np.asarray(ids, dtype=np.int64)
    out = Tensor(table.data[ids], _parents=(table,), _op="gather")

    def backward(g):
        if table.requires_grad:
            full = np.zeros(table.shape, dtype=table.data.dtype)
            np.add.at(full, ids.reshape(-1), np.asarray(g).reshape(-1, table.shape[-1]))
            table._accumulate(full)

    out._backward = backward
    return out


def straight_through(encoder_out: Tensor, quantized: Tensor) -> Tensor:
    """Forward the quantized value, pass gradients to the encoder unchanged.

    The quantized operand receives no gradient through this op; codebooks
    learn from their own embedding-loss path.
    """
    if encoder_out.shape != quantized.shape:
        raise GraphError(
            f"straight_through shape mismatch: {encoder_out.shape} vs {quantized.shape}"
        )
    out = Tensor(quantized.data, _parents=(encoder_out,), _op="straight_through")

    def backward(g):
        if encoder_out.requires_grad:
            encoder_out._accumulate(g)

    out._backward = backward
    return out


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

    out._backward = backward
    return out


def log_softmax_array(logits: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """Value-only masked log-softmax used by decoding and tests."""
    z = np.asarray(logits, dtype=np.float64)
    if mask is not None:
        z = np.where(mask, z, NEG_MASK)
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def cross_entropy(
    logits: Tensor,
    targets: np.ndarray,
    support_mask: np.ndarray | None = None,
    weights: np.ndarray | None = None,
) -> Tensor:
    """Mean negative log-likelihood over the last axis of `logits`.

    targets: integer ids, shape == logits.shape[:-1].
    support_mask: optional boolean mask of allowed classes per position.
    weights: optional per-position weights (0 excludes a position, e.g.
    padding); the mean is taken over the total weight.
    """
    targets = np.asarray(targets, dtype=np.int64)
    z = logits.data.astype(np.float64)
    if support_mask is not None:
        z = np.where(support_mask, z, NEG_MASK)
    z = z - z.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    picked = np.take_along_axis(logp, targets[..., None], axis=-1)[..., 0]
    if weights is None:
        weights = np.ones(targets.shape, dtype=np.float64)
    else:
        weights = np.asarray(weights, dtype=np.float64)
    total_weight = weights.sum()
    if total_weight <= 0:
        raise GraphError("cross_entropy needs at least one weighted position")
    value = -(picked * weights).sum() / total_weight
    out = Tensor(value, _parents=(logits,), _op="cross_entropy")
    prob = np.exp(logp)

    def backward(g):
        if not logits.requires_grad:
            return
        onehot = np.zeros(prob.shape, dtype=np.float64)
        np.put_along_axis(onehot, targets[..., None], 1.0, axis=-1)
        grad = (prob - onehot) * (weights[..., None] / total_weight)
        if support_mask is not None:
            grad = np.where(support_mask, grad, 0.0)
        logits._accumulate(float(np.asarray(g).reshape(())) * grad)

    out._backward = backward
    return out


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    dt = x.data.dtype
    mu = x.data.mean(axis=-1, keepdims=True, dtype=np.float64)
    var = x.data.astype(np.float64).var(axis=-1, keepdims=True)
    inv = (1.0 / np.sqrt(var + eps)).astype(dt)
    xhat = ((x.data - mu) * inv).astype(dt)
    out = Tensor(xhat * gain.data + bias.data, _parents=(x, gain, bias), _op="layer_norm")

    def backward(g):
        if bias.requires_grad:
            bias._accumulate(_sum_to_shape(g, bias.shape))
        if gain.requires_grad:
            gain._accumulate(_sum_to_shape(g * xhat, gain.shape))
        if x.requires_grad:
            gx = g * gain.data
            mean_g = gx.mean(axis=-1, keepdims=True, dtype=np.float64).astype(dt)
            mean_gx = (gx * xhat).mean(axis=-1, keepdims=True, dtype=np.float64).astype(dt)
            x._accumulate(inv * (gx - mean_g - xhat * mean_gx))

    out._backward = backward
    return out


def conv1d(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """1D convolution over time. x: (T, C_in); weight: (C_out, C_in, K).

    Output: (T_out, C_out) with T_out = (T + 2*padding - K) // stride + 1.
    """
    T, c_in = x.shape
    c_out, c_in_w, k = weight.shape
    if c_in != c_in_w:
        raise GraphError(f"conv1d channel mismatch: input {c_in}, weight {c_in_w}")
    t_out = (T + 2 * padding - k) // stride + 1
    if t_out < 1:
        raise GraphError(f"conv1d: input length {T} too short for kernel {k} stride {stride}")
    xp = np.pad(x.data, ((padding, padding), (0, 0))) if padding else x.data
    idx = np.arange(t_out)[:, None] * stride + np.arange(k)[None, :]
    cols = xp[idx].reshape(t_out, k * c_in)  # im2col
    w2 = weight.data.transpose(2, 1, 0).reshape(k * c_in, c_out)
    out = Tensor(cols @ w2 + bias.data, _parents=(x, weight, bias), _op="conv1d")

    def backward(g):
        if bias.requires_grad:
            bias._accumulate(g.sum(axis=0, dtype=np.float64))
        if weight.requires_grad:
            gw2 = cols.T @ g
            weight._accumulate(gw2.reshape(k, c_in, c_out).transpose(2, 1, 0))
        if x.requires_grad:
            gcols = (g @ w2.T).reshape(t_out, k, c_in)
            gxp = np.zeros_like(xp)
            np.add.at(gxp, idx, gcols)
            x._accumulate(gxp[padding: padding + T] if padding else gxp)

    out._backward = backward
    return out


def upsample_repeat(x: Tensor, factor: int) -> Tensor:
    """Nearest-neighbor upsampling along the first axis: (T, C) -> (T*factor, C)."""
    out = Tensor(np.repeat(x.data, factor, axis=0), _parents=(x,), _op="upsample")

    def backward(g):
        if x.requires_grad:
            x._accumulate(g.reshape(x.shape[0], factor, -1).sum(axis=1, dtype=np.float64))

    out._backward = backward
    return out
