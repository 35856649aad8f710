"""Reverse-mode autodiff on dense numpy arrays.

The operator set is deliberately closed: it holds only what the motion
tokenizer CNN and the micro encoder-decoder generator run; the pose fit's
objective is plain numpy and builds no node.
The graph nodes the package builds, by `_op` name, are `add`, `mul`,
`relu`, `slice` (which also indexes by integer arrays, the embedding
lookup), `concat`, `cross_entropy`, `layer_norm`, `conv1d`, `upsample` and
`straight_through`; `matmul`, the generator's bias-free key projections;
the generator's fused nodes `linear` (x @ w + b), `attention` (multi-head
masked softmax attention over (B, T, d) inputs) and `weighted_sum` (the
fused embedding); and the tokenizer's VQ objective, `vq_loss`.
Default storage is float32 with float64 accumulation in reductions.
`posefit.body_fk`, an FK node, is defined but built by no package code:
the tests' graph oracles of the pose-fit objective use it, and
`benchmark/tracer.py` wraps it by name.
`default_dtype` switches newly created tensors to float64; no package code
uses it. Its users are the tests: their finite-difference gradient checks,
so central differences are not drowned by rounding noise, their float64
cases of the fused nodes, and their graph oracles of the pose fit, which
build `body_fk` under it.
Every op hands its output value, parents and backward closure to the
`Tensor` constructor, which alone decides what the node keeps (see
`Tensor.__init__`). `no_grad` switches graph building off: inside it, op
outputs inherit no `requires_grad` and keep no parents, so forward-only
callers (decoding, tokenizing, the dictionary build) leave no graph behind.
Every op checks its output for NaN/inf so divergence surfaces at the op that
produced it instead of three losses later. A fused node checks its output
and every intermediate the composed graph would have checked that can be
non-finite while its inputs are finite: attention checks its raw scores,
since the mask could hide a non-finite one, and needs no check between them
and its output because its scale 1 / sqrt(dh) is at most 1 and a softmax
of finite values is finite; linear, weighted_sum and vq_loss carry a
non-finite intermediate into their output.
The fused nodes run the arithmetic of their composed graphs, forward and
backward, so they change no bit; their parents are ordered so the backward
traversal visits the rest of the graph in the composed order.
Backward closures only ever replace a tensor's `grad`, never update it in
place, so `_accumulate` keeps a fresh first gradient as it is and copies
only a view. Some passes are written for speed with the arithmetic of
their plain form, so each is bit-identical to it: conv1d's input gradient
(col2im) is k strided adds in np.add.at's order; an integer-array index
scatters its gradient with one element-wise np.add.at over the flattened
table, which adds each element's terms in the order np.add.at(table, key,
g) does, without that call's slow path for whole rows; and cross_entropy
skips the exp of masked-out entries, which is +0.0. conv1d's weight is the
(K * C_in, C_out) filter matrix of the im2col product (Chellapilla, Puri &
Simard, 2006), so neither pass copies it into another layout and its
gradient is the fresh cols.T @ g; the im2col gather index is a read-only
array made once per (t_out, k, stride) and shared by every later call, as
is attention's scale per (dh, dtype). layer_norm takes a single row's
statistics as Python floats (see its docstring).
Where an op computes a chain of elementwise steps into an array it made
itself (attention's softmax, cross_entropy's log-softmax and gradient,
layer_norm's input gradient), it writes each step into that array instead
of a new one. The row max of many short rows runs over a transposed copy,
which can change only the sign of a zero maximum (see `_row_max`).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from functools import cache

import numpy as np

from ..errors import GraphError, NonFiniteError

_default_dtype = np.float32
_grad_enabled = True

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


@contextmanager
def no_grad():
    """Build no graph: op outputs created inside inherit no requires_grad
    and keep no parents. Leaves keep an explicit requires_grad."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


# attention's and cross_entropy's row max reduces over a transposed copy
# when rows are at most this long and at least this many; elsewhere the
# plain last-axis max is faster (measured on float32 and float64).
_ROW_MAX_LENGTH = 48
_ROW_MAX_ROWS = 64

# float64 exp(x) is +0.0 for every x at or below this (the smallest
# subnormal, 4.9e-324, is exp(-745.13))
_EXP_ZERO_BELOW = -746.0


def _check_finite(arr: np.ndarray, op: str) -> None:
    # counting is cheaper than np.logical_and.reduce on small arrays (0.48
    # against 0.80 us at 32 elements) and within 1 us of it at 86 000
    if np.count_nonzero(np.isfinite(arr)) != arr.size:
        raise NonFiniteError(f"non-finite values produced by op '{op}'")


def _row_max(z: np.ndarray) -> np.ndarray:
    """z.max(axis=-1, keepdims=True) for finite z.

    Many short rows reduce faster across a contiguous transposed copy (87 ->
    19 us at (16, 4, 31, 31)). A max is exact in any order; only the sign of
    a zero maximum can differ, and the callers subtract the maximum and
    exponentiate, which maps both signs to the same probabilities; a
    log-probability can then differ only as -0.0 against +0.0.
    """
    n = z.shape[-1]
    if n > _ROW_MAX_LENGTH or z.size < _ROW_MAX_ROWS * n:
        return z.max(axis=-1, keepdims=True)
    rows = np.ascontiguousarray(z.reshape(-1, n).T)
    return rows.max(axis=0).reshape(z.shape[:-1] + (1,))


def _exp_masked(z: np.ndarray) -> np.ndarray:
    """np.exp(z) for float64 z, bit for bit, computed only above -746, below
    which exp rounds to +0.0: numpy's exp is slow on the NEG_MASK entries of
    a masked softmax (211 -> 36 us at (16, 28, 161), most entries masked)."""
    return np.exp(z, out=np.zeros_like(z), where=z > _EXP_ZERO_BELOW)


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

    def __init__(self, data, requires_grad: bool = False, _parents: tuple = (), _op: str = "leaf",
                 _backward=None):
        """The one place that decides what a node keeps: it requires a
        gradient if asked to or, outside `no_grad`, if a parent does, and
        only then keeps its parents and its backward closure. An op's
        closure therefore runs only when some parent requires a gradient;
        a one-parent op's closure needs no test of its own."""
        self.data = np.asarray(data, dtype=_default_dtype)
        _check_finite(self.data, _op)
        self.grad: np.ndarray | None = None
        if not requires_grad and _grad_enabled:
            for parent in _parents:
                if parent.requires_grad:
                    requires_grad = True
                    break
        self.requires_grad = requires_grad
        self._parents = _parents if requires_grad else ()
        self._backward = _backward if requires_grad else None
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
            # Gradients are only ever replaced, never updated in place, so a
            # fresh array may be kept even if another tensor keeps it too. A
            # view is copied so it does not pin its base; the copy, like a
            # kept array, is C-contiguous, so later ops see one layout.
            fresh = grad.base is None and grad.flags.c_contiguous
            self.grad = grad if fresh else grad.copy()
        else:
            self.grad = self.grad + grad

    def zero_grad(self) -> None:
        self.grad = None

    def item(self) -> float:
        if self.data.size != 1:
            raise GraphError("item() requires a single-element tensor")
        return float(self.data.reshape(()))

    # -- elementwise arithmetic ------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)

        def backward(g):
            if self.requires_grad:
                self._accumulate(_sum_to_shape(g, self.shape))
            if other.requires_grad:
                other._accumulate(_sum_to_shape(g, other.shape))

        return Tensor(self.data + other.data, _parents=(self, other), _op="add", _backward=backward)

    __radd__ = __add__

    def __mul__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)

        def backward(g):
            if self.requires_grad:
                self._accumulate(_sum_to_shape(g * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_sum_to_shape(g * self.data, other.shape))

        return Tensor(self.data * other.data, _parents=(self, other), _op="mul", _backward=backward)

    __rmul__ = __mul__

    # -- matmul ------------------------------------------------------------------

    def __matmul__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)

        def backward(g):
            if self.requires_grad:
                self._accumulate(_sum_to_shape(g @ _swap_last(other.data), self.shape))
            if other.requires_grad:
                other._accumulate(_sum_to_shape(_swap_last(self.data) @ g, other.shape))

        return Tensor(self.data @ other.data, _parents=(self, other), _op="matmul",
                      _backward=backward)

    # -- indexing ------------------------------------------------------------

    def __getitem__(self, key) -> "Tensor":
        """Basic slicing, or indexing by integer arrays: `table[ids]` with
        ids of any shape is an embedding lookup over the first axis."""
        def backward(g):
            full = np.zeros(self.shape, dtype=self.data.dtype)
            # an index array may repeat an element, whose gradients then add
            # up; the element-wise scatter over the flat table adds each
            # element's terms in the order np.add.at(full, key, g) does (the
            # index's C order) and skips its slow path for rows. Basic slices
            # select each element at most once and assign
            if any(isinstance(k, (np.ndarray, list)) for k in
                   (key if isinstance(key, tuple) else (key,))):
                flat = np.arange(full.size).reshape(full.shape)[key]
                np.add.at(full.reshape(-1), flat.reshape(-1), g.reshape(-1))
            else:
                full[key] = g
            self._accumulate(full)

        return Tensor(self.data[key], _parents=(self,), _op="slice", _backward=backward)

    # -- nonlinearities -------------------------------------------------------------------

    def relu(self) -> "Tensor":
        def backward(g):
            self._accumulate(g * (self.data > 0.0))

        return Tensor(np.maximum(self.data, 0.0), _parents=(self,), _op="relu", _backward=backward)

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
    def backward(g):
        stop = 0
        for part in parts:
            start, stop = stop, stop + part.shape[axis]
            if part.requires_grad:
                index = [slice(None)] * g.ndim
                index[axis] = slice(start, stop)
                part._accumulate(g[tuple(index)])

    return Tensor(np.concatenate([p.data for p in parts], axis=axis), _parents=tuple(parts),
                  _op="concat", _backward=backward)


def straight_through(encoder_out: Tensor, quantized: Tensor) -> Tensor:
    """Forward the quantized value, pass gradients to the encoder unchanged.

    The quantized operand receives no gradient through this op; codebooks
    learn from their own embedding-loss path.
    """
    if encoder_out.shape != quantized.shape:
        raise GraphError(
            f"straight_through shape mismatch: {encoder_out.shape} vs {quantized.shape}"
        )

    def backward(g):
        encoder_out._accumulate(g)

    return Tensor(quantized.data, _parents=(encoder_out,), _op="straight_through",
                  _backward=backward)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as one node; forward and backward are those of the matmul
    and add nodes it replaces, bit for bit (w's gradient is the batched
    swap(x) @ g reduced to w's shape, as matmul takes it)."""

    def backward(g):
        if b.requires_grad:
            b._accumulate(_sum_to_shape(g, b.shape))
        if x.requires_grad:
            x._accumulate(_sum_to_shape(g @ _swap_last(w.data), x.shape))
        if w.requires_grad:
            w._accumulate(_sum_to_shape(_swap_last(x.data) @ g, w.shape))

    return Tensor(x.data @ w.data + b.data, _parents=(x, w, b), _op="linear", _backward=backward)


def attention(q: Tensor, k: Tensor, v: Tensor, num_heads: int,
              mask: np.ndarray | None = None) -> Tensor:
    """Multi-head scaled dot-product attention as one node: queries q
    (B, Tq, d) against keys k and values v (B or 1, Tk, d; one row
    broadcasts over the B query rows) in num_heads heads of dh = d /
    num_heads channels, scaled by 1 / sqrt(dh); returns the joined heads,
    (B, Tq, d). mask: optional boolean array broadcasting to (B, Tq, Tk); a
    False entry hides a key from a query, whose probability is then exactly
    zero; pass None rather than an all-True mask, which would cost an
    np.where for nothing. Heads are split and joined as numpy views, not
    nodes; forward and backward run the arithmetic of the composed graph
    (split, matmul, mul by a scalar leaf, masked softmax, matmul, join) bit
    for bit.
    """
    if num_heads < 1 or q.shape[-1] % num_heads:
        raise GraphError(f"attention cannot split width {q.shape[-1]} into {num_heads} heads")
    qh, kh, vh = (_split_heads(x.data, num_heads) for x in (q, k, v))
    scores = qh @ _swap_last(kh)
    _check_finite(scores, "attention")  # a masked-out score is checked too
    scale = _attention_scale(qh.shape[-1], _default_dtype)
    z = scores * scale
    if mask is not None:
        mask = np.expand_dims(mask, -3)  # one mask for every head
        z = np.where(mask, z, NEG_MASK)
    # the softmax, in z, a fresh array
    z -= _row_max(z)
    np.exp(z, out=z)
    prob = np.divide(z, z.sum(axis=-1, keepdims=True, dtype=np.float64).astype(z.dtype), out=z)

    def backward(g):
        # q, then k, then v: the order in which the composed graph's
        # backward reaches them, which matters when they share a tensor
        g = _split_heads(g, num_heads)
        if q.requires_grad or k.requires_grad:
            g_prob = g @ _swap_last(vh)
            dot = (g_prob * prob).sum(axis=-1, keepdims=True, dtype=np.float64).astype(prob.dtype)
            g_z = prob * (g_prob - dot)
            if mask is not None:
                g_z = np.where(mask, g_z, 0.0)
            g_scores = g_z * scale
            if q.requires_grad:
                q._accumulate(_join_heads(g_scores @ kh))
            if k.requires_grad:
                g_k_t = _sum_to_shape(_swap_last(qh) @ g_scores, _swap_last(kh).shape)
                k._accumulate(_join_heads(_swap_last(g_k_t)))
        if v.requires_grad:
            v._accumulate(_join_heads(_sum_to_shape(_swap_last(prob) @ g, vh.shape)))

    return Tensor(_join_heads(prob @ vh), _parents=(q, k, v), _op="attention", _backward=backward)


@cache
def _attention_scale(dh: int, dtype) -> np.ndarray:
    """1 / sqrt(dh) as a scalar leaf of the dtype holds it. Read-only, made
    once per (dh, dtype)."""
    scale = np.asarray(1.0 / np.sqrt(dh), dtype=dtype)
    scale.flags.writeable = False
    return scale


def _split_heads(x: np.ndarray, num_heads: int) -> np.ndarray:
    """(B, T, d) -> (B, h, T, d / h), a view of a contiguous x."""
    return x.reshape(*x.shape[:2], num_heads, -1).swapaxes(1, 2)


def _join_heads(x: np.ndarray) -> np.ndarray:
    """(B, h, T, dh) -> (B, T, h * dh), the inverse of _split_heads."""
    return x.swapaxes(1, 2).reshape(x.shape[0], x.shape[2], -1)


def weighted_sum(parts: list[Tensor], weights: list[float]) -> Tensor:
    """parts[0] * weights[0] + parts[1] * weights[1] + ..., added left to
    right, as one node over same-shape parts (the caller checks the shapes
    and gives one weight per part). Each weight is rounded to the default
    dtype as a scalar leaf would be, so forward and backward equal the
    composed mul and add nodes bit for bit."""
    scales = [np.asarray(weight, dtype=_default_dtype) for weight in weights]
    value = parts[0].data * scales[0]
    for part, scale in zip(parts[1:], scales[1:]):
        value = value + part.data * scale

    def backward(g):
        for part, scale in zip(parts, scales):
            if part.requires_grad:
                part._accumulate(g * scale)

    return Tensor(value, _parents=tuple(parts), _op="weighted_sum", _backward=backward)


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
    exp = np.exp
    if support_mask is not None:
        z = np.where(support_mask, z, NEG_MASK)
        exp = _exp_masked
    # the log-softmax, in z, a fresh array
    z -= _row_max(z)
    logp = np.subtract(z, np.log(exp(z).sum(axis=-1, keepdims=True)), out=z)
    picked = np.take_along_axis(logp, targets[..., None], axis=-1)[..., 0]
    if weights is None:
        weights = np.ones(targets.shape, dtype=np.float64)
    else:
        weights = np.asarray(weights, dtype=np.float64)
    total_weight = weights.sum()
    if total_weight <= 0:
        raise GraphError("cross_entropy needs at least one weighted position")
    value = -(picked * weights).sum() / total_weight
    prob = exp(logp)

    def backward(g):
        onehot = np.zeros(prob.shape, dtype=np.float64)
        np.put_along_axis(onehot, targets[..., None], 1.0, axis=-1)
        grad = prob - onehot  # float64, like every factor below
        grad *= weights[..., None] / total_weight
        if support_mask is not None:
            np.copyto(grad, 0.0, where=~support_mask)
        grad *= float(np.asarray(g).reshape(()))
        logits._accumulate(grad)

    return Tensor(value, _parents=(logits,), _op="cross_entropy", _backward=backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift.

    The statistics run in float64 with the operations of mean() then var().
    A single row, as in a greedy decoder pass, takes them as Python floats:
    the same pairwise add.reduce over the row, then / n, + eps, sqrt and
    1.0 /, each one IEEE operation rounded as numpy's float64 rounds it, and
    the inverse rounded to the dtype as astype rounds it; so its bits equal
    those of the row inside a batch, without the small arrays per step.
    """
    dt = x.data.dtype
    centered = x.data.astype(np.float64)
    n = centered.shape[-1]
    if centered.size == n > 0:
        centered -= float(np.add.reduce(centered, axis=None)) / n
        var = float(np.add.reduce(centered * centered, axis=None)) / n
        inv = float(dt.type(1.0 / math.sqrt(var + eps)))
    else:
        centered -= np.add.reduce(centered, axis=-1, keepdims=True) / n
        var = np.add.reduce(centered * centered, axis=-1, keepdims=True) / n
        inv = (1.0 / np.sqrt(var + eps)).astype(dt)
    xhat = (centered * inv).astype(dt)

    def backward(g):
        if bias.requires_grad:
            bias._accumulate(_sum_to_shape(g, bias.shape))
        if gain.requires_grad:
            gain._accumulate(_sum_to_shape(g * xhat, gain.shape))
        if x.requires_grad:
            gx = g * gain.data
            mean_g = gx.mean(axis=-1, keepdims=True, dtype=np.float64).astype(dt)
            mean_gx = (gx * xhat).mean(axis=-1, keepdims=True, dtype=np.float64).astype(dt)
            # inv * (gx - mean_g - xhat * mean_gx), in gx, a fresh array
            gx -= mean_g
            gx -= xhat * mean_gx
            gx *= inv
            x._accumulate(gx)

    return Tensor(xhat * gain.data + bias.data, _parents=(x, gain, bias), _op="layer_norm",
                  _backward=backward)


@cache
def _im2col_index(t_out: int, k: int, stride: int) -> np.ndarray:
    """The (t_out, k) rows of the padded input that im2col gathers: row t
    holds t * stride + j for tap j. Read-only, made once per shape."""
    idx = np.arange(t_out)[:, None] * stride + np.arange(k)[None, :]
    idx.flags.writeable = False
    return idx


def conv1d(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """1D convolution over time. x: (T, C_in); weight: (K * C_in, C_out),
    the filter matrix of the im2col product, whose row j * C_in + c holds
    tap j of input channel c (a (C_out, C_in, K) filter bank w is
    w.transpose(2, 1, 0).reshape(K * C_in, C_out)).

    Output: (T_out, C_out) with T_out = (T + 2*padding - K) // stride + 1.
    """
    T, c_in = x.shape
    rows, c_out = weight.shape
    if rows % c_in:
        raise GraphError(f"conv1d channel mismatch: input {c_in}, weight rows {rows}")
    k = rows // c_in
    t_out = (T + 2 * padding - k) // stride + 1
    if t_out < 1:
        raise GraphError(f"conv1d: input length {T} too short for kernel {k} stride {stride}")
    xp = x.data
    if padding:  # zero rows at both ends (np.pad costs ~20x more at these sizes)
        xp = np.zeros((T + 2 * padding, c_in), dtype=x.data.dtype)
        xp[padding: padding + T] = x.data
    cols = xp[_im2col_index(t_out, k, stride)].reshape(t_out, rows)
    w = weight.data
    out = cols @ w
    out += bias.data

    def backward(g):
        if bias.requires_grad:
            bias._accumulate(g.sum(axis=0, dtype=np.float64))
        if weight.requires_grad:
            weight._accumulate(cols.T @ g)
        if x.requires_grad:
            gcols = (g @ w.T).reshape(t_out, k, c_in)
            gxp = np.zeros_like(xp)
            # col2im as k strided adds; taps run last to first so each row
            # sums its terms in np.add.at(gxp, idx, gcols)'s order
            for j in reversed(range(k)):
                gxp[j: j + stride * (t_out - 1) + 1: stride] += gcols[:, j]
            x._accumulate(gxp[padding: padding + T] if padding else gxp)

    return Tensor(out, _parents=(x, weight, bias), _op="conv1d", _backward=backward)


def upsample_repeat(x: Tensor, factor: int) -> Tensor:
    """Nearest-neighbor upsampling along the first axis: (T, C) -> (T*factor, C)."""

    def backward(g):
        x._accumulate(g.reshape(x.shape[0], factor, -1).sum(axis=1, dtype=np.float64))

    return Tensor(np.repeat(x.data, factor, axis=0), _parents=(x,), _op="upsample",
                  _backward=backward)
