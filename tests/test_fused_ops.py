"""The generator's fused graph nodes and the faster paths of cross_entropy,
each against the composed graph or plain form it replaces, bit for bit."""

import numpy as np
import pytest

import composed_ops
import soke.amg.model as amg_model
from soke.amg import MODES, AmgTrainConfig, GeneratorModel, Vocabulary, train_generator
from soke.errors import GraphError, NonFiniteError
from soke.grad import (NEG_MASK, Adam, CosineSchedule, Tensor, attention, cross_entropy,
                       default_dtype, layer_norm, linear)
from soke.grad.tensor import (
    _ROW_MAX_LENGTH,
    _ROW_MAX_ROWS,
    _check_finite,
    _exp_masked,
    _row_max,
    weighted_sum,
)

from composed_ops import power, reduce_sum
from gradcheck import check_gradients
from test_amg import TINY_CFG, WORDS, SIZES, make_pairs

DTYPES = [np.float32, np.float64]


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def run_graph(build, arrays, dtype, upstream_seed=0):
    """Leaves from `arrays`, output from build(*leaves), then a backward pass
    from a random linear loss; returns the output and every leaf gradient."""
    with default_dtype(dtype):
        leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        out = build(*leaves)
        weight = np.random.default_rng(upstream_seed).normal(size=out.shape)
        reduce_sum(out * Tensor(weight)).backward()
    return out.data, [leaf.grad for leaf in leaves]


def assert_graphs_equal(fused, composed, arrays, dtype):
    out, grads = run_graph(fused, arrays, dtype)
    oracle_out, oracle_grads = run_graph(composed, arrays, dtype)
    assert_same_bits(out, oracle_out)
    for grad, oracle_grad in zip(grads, oracle_grads):
        assert_same_bits(grad, oracle_grad)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("x_shape", [(5, 6), (2, 5, 6)])
def test_linear_equals_matmul_then_add(dtype, x_shape):
    rng = np.random.default_rng(3)
    arrays = [rng.normal(size=x_shape).astype(dtype), rng.normal(size=(6, 4)).astype(dtype),
              rng.normal(size=(4,)).astype(dtype)]
    assert_graphs_equal(linear, composed_ops.linear, arrays, dtype)


def attention_case(rng, dtype, rows=2, kv_rows=2, tq=4, tk=5, d=6):
    return [rng.normal(size=(rows, tq, d)).astype(dtype),
            rng.normal(size=(kv_rows, tk, d)).astype(dtype),
            rng.normal(size=(kv_rows, tk, d)).astype(dtype)]


def padding_mask(rows, tq, tk):
    """Row r hides its last r + 1 keys."""
    return (np.arange(tk) < tk - 1 - np.arange(rows)[:, None])[:, None]


MASKS = {
    "none": lambda rows, tq, tk: None,
    "all_true": lambda rows, tq, tk: np.ones((1, tq, tk), dtype=bool),
    "causal": lambda rows, tq, tk: np.tri(tq, tk, tk - tq, dtype=bool),
    "padding": padding_mask,
}


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("mask_name", sorted(MASKS))
@pytest.mark.parametrize("kv_rows", [3, 1])
@pytest.mark.parametrize("num_heads", [1, 2, 3])
def test_attention_equals_the_composed_graph(dtype, mask_name, kv_rows, num_heads):
    rng = np.random.default_rng(5)
    arrays = attention_case(rng, dtype, rows=3, kv_rows=kv_rows)
    mask = MASKS[mask_name](3, 4, 5)
    assert_graphs_equal(lambda q, k, v: attention(q, k, v, num_heads, mask),
                        lambda q, k, v: composed_ops.attention(q, k, v, num_heads, mask),
                        arrays, dtype)


@pytest.mark.parametrize("dtype", DTYPES)
def test_attention_over_many_short_rows_equals_the_composed_graph(dtype):
    # enough rows for the transposed row max, as in the encoder's scores
    rng = np.random.default_rng(6)
    tk = _ROW_MAX_LENGTH // 2
    arrays = attention_case(rng, dtype, rows=4, kv_rows=4, tq=_ROW_MAX_ROWS // 4, tk=tk)
    mask = padding_mask(4, _ROW_MAX_ROWS // 4, tk)
    assert_graphs_equal(lambda q, k, v: attention(q, k, v, 2, mask),
                        lambda q, k, v: composed_ops.attention(q, k, v, 2, mask),
                        arrays, dtype)


@pytest.mark.parametrize("dtype", DTYPES)
def test_self_attention_of_one_tensor_accumulates_in_composed_order(dtype):
    # x feeds q, k and v, and a fourth use after them: its gradient is a sum
    # of four terms, which float rounding makes order-sensitive
    rng = np.random.default_rng(8)
    x = rng.normal(size=(2, 5, 6)).astype(dtype)
    mask = MASKS["causal"](2, 5, 5)

    def build(op):
        def graph(x):
            out = op(x, x, x, 2, mask)
            return out + x * 0.3
        return graph

    assert_graphs_equal(build(attention), build(composed_ops.attention), [x], dtype)


def layer_norm_graph(x, gain, bias, upstream, dtype):
    """layer_norm's output and the gradients of x, gain and bias under a
    linear loss with the given upstream gradient."""
    with default_dtype(dtype):
        leaves = [Tensor(a, requires_grad=True) for a in (x, gain, bias)]
        out = layer_norm(*leaves)
        reduce_sum(out * Tensor(upstream)).backward()
    return [out.data] + [leaf.grad for leaf in leaves]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n", [1, 2, 7, 8, 31, 32, 33, 127, 128, 129, 256, 512])
def test_one_row_layer_norm_equals_its_row_in_a_batch(dtype, n):
    # a single row takes its statistics as Python floats; widths cross
    # numpy's pairwise-sum blocks. Gain and bias have a row each, so their
    # gradients are per row too
    rng = np.random.default_rng(n)
    for scale in (1e-3, 1e-1, 1.0, 1e1, 1e3):
        x = (scale * rng.normal(1.0, size=(3, 1, n))).astype(dtype)
        gain, bias, upstream = (rng.normal(size=(3, 1, n)).astype(dtype) for _ in range(3))
        batch = layer_norm_graph(x, gain, bias, upstream, dtype)
        for row in range(3):
            one = layer_norm_graph(*(a[row: row + 1] for a in (x, gain, bias, upstream)), dtype)
            for got, want in zip(one, batch):
                assert_same_bits(got, want[row: row + 1])


@pytest.mark.parametrize("dtype", DTYPES)
def test_weighted_sum_equals_the_composed_graph(dtype):
    rng = np.random.default_rng(9)
    arrays = [rng.normal(size=(2, 3, 4)).astype(dtype) for _ in range(3)]
    weights = [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0]
    assert_graphs_equal(lambda *p: weighted_sum(list(p), weights),
                        lambda *p: composed_ops.weighted_sum(list(p), weights), arrays, dtype)
    # one tensor in every slot: its gradient adds up in slot order
    assert_graphs_equal(lambda p: weighted_sum([p, p, p], [0.2, 0.3, 0.5]),
                        lambda p: composed_ops.weighted_sum([p, p, p], [0.2, 0.3, 0.5]),
                        arrays[:1], dtype)


def test_linear_matches_finite_differences():
    rng = np.random.default_rng(11)
    with default_dtype(np.float64):
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        b = Tensor(rng.normal(size=(5,)), requires_grad=True)
        check_gradients(lambda: reduce_sum(power(linear(x, w, b), 2)), [("x", x), ("w", w), ("b", b)])


@pytest.mark.parametrize("kv_rows", [2, 1])
def test_attention_matches_finite_differences(kv_rows):
    rng = np.random.default_rng(12)
    q_data, k_data, v_data = attention_case(rng, np.float64, rows=2, kv_rows=kv_rows)
    mask = padding_mask(2, 4, 5)
    with default_dtype(np.float64):
        q, k, v = (Tensor(a, requires_grad=True) for a in (q_data, k_data, v_data))
        check_gradients(lambda: reduce_sum(power(attention(q, k, v, 2, mask), 2)),
                        [("q", q), ("k", k), ("v", v)])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_score_under_the_mask_raises_naming_attention(bad):
    rng = np.random.default_rng(13)
    q, k, v = (Tensor(a) for a in attention_case(rng, np.float32, rows=1, kv_rows=1))
    mask = np.ones((1, 4, 5), dtype=bool)
    mask[..., -1] = False
    k.data[0, -1, :] = bad  # every score of the last, masked-out key
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError, match="attention"):
        attention(q, k, v, 2, mask)


@pytest.mark.parametrize("num_heads", [0, -2, 4])
def test_attention_rejects_a_head_count_that_does_not_split_the_width(num_heads):
    q, k, v = (Tensor(a) for a in attention_case(np.random.default_rng(14), np.float32))
    with pytest.raises(GraphError, match="heads"):
        attention(q, k, v, num_heads)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("size", [None, 1, 32, 86_464])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_check_finite_raises_on_any_non_finite_element(dtype, size, bad):
    arr = np.zeros(() if size is None else (size,), dtype=dtype)
    _check_finite(arr, "probe")
    arr[() if size is None else size // 2] = bad
    with pytest.raises(NonFiniteError, match="probe"):
        _check_finite(arr, "probe")


@pytest.mark.parametrize("shape", [(3, 4, 7), (_ROW_MAX_ROWS, 5), (2, _ROW_MAX_ROWS, 33),
                                   (_ROW_MAX_ROWS, _ROW_MAX_LENGTH + 1)])
def test_row_max_equals_the_last_axis_max(shape):
    z = np.random.default_rng(15).normal(size=shape)
    assert_same_bits(_row_max(z), z.max(axis=-1, keepdims=True))


def test_masked_exp_equals_exp_across_the_underflow_edge():
    z = np.concatenate([np.linspace(-760.0, -700.0, 60_001), [NEG_MASK, -746.0, 0.0],
                        np.random.default_rng(18).normal(size=1000) * 10 - 5])
    assert_same_bits(_exp_masked(z), np.exp(z))


@pytest.mark.parametrize("dtype", DTYPES)
def test_adam_ignores_the_sign_of_a_zero_gradient(dtype):
    # the positional tables take a basic slice, whose backward keeps a -0.0
    # that an id array's np.add.at into zeros made +0.0; the parameters must
    # not see it
    rng = np.random.default_rng(16)
    table = rng.normal(size=(6, 4)).astype(dtype)
    grads = [rng.normal(size=table.shape).astype(dtype) for _ in range(3)]
    for g in grads:
        g[rng.random(g.shape) < 0.4] = 0.0
    runs = []
    for zero in (0.0, -0.0):
        with default_dtype(dtype):
            param = Tensor(table.copy(), requires_grad=True)
        opt = Adam([("table", param)], CosineSchedule(1e-2, len(grads), min_lr=1e-2))
        for g in grads:
            param.grad = np.where(g == 0.0, dtype(zero), g)
            opt.step()
        runs.append(param.data)
    assert_same_bits(runs[0], runs[1])


def plain_cross_entropy(logits, targets, weights, support, scale):
    """cross_entropy with a last-axis max and exp at every entry: loss and
    the gradient of scale * loss."""
    z = logits.astype(np.float64)
    if support is not None:
        z = np.where(support, z, NEG_MASK)
    z = z - z.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    picked = np.take_along_axis(logp, targets[..., None], axis=-1)[..., 0]
    value = -(picked * weights).sum() / weights.sum()
    onehot = np.zeros(logp.shape)
    np.put_along_axis(onehot, targets[..., None], 1.0, axis=-1)
    grad = (np.exp(logp) - onehot) * (weights[..., None] / weights.sum())
    if support is not None:
        grad = np.where(support, grad, 0.0)
    return value, (scale * grad).astype(logits.dtype)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("width", [33, 65, 161])  # the train config's head widths
@pytest.mark.parametrize("masked", [False, True])
def test_cross_entropy_equals_its_plain_form(dtype, width, masked):
    rng = np.random.default_rng(17)
    shape = (4, _ROW_MAX_ROWS // 2)  # enough rows for the transposed row max
    logits = (rng.normal(size=shape + (width,)) * 4).astype(dtype)
    targets = rng.integers(0, width, size=shape)
    weights = (rng.random(shape) < 0.8).astype(np.float64)
    weights[0, 0] = 1.0
    support = None
    if masked:
        support = rng.random(shape + (width,)) < 0.7
        support[..., 0] = True
        support[np.arange(shape[0])[:, None], np.arange(shape[1]), targets] = True
    with default_dtype(dtype):
        x = Tensor(logits.copy(), requires_grad=True)
        loss = cross_entropy(x, targets, support_mask=support, weights=weights)
        (loss * -0.75).backward()
    value, grad = plain_cross_entropy(logits, targets, weights, support, -0.75)
    assert_same_bits(loss.data, np.asarray(value, dtype=dtype))
    assert_same_bits(x.grad, grad)


@pytest.mark.parametrize("mode", MODES)
def test_training_with_the_composed_graphs_gives_the_same_parameters(mode, monkeypatch):
    vocab = Vocabulary(WORDS, SIZES)

    def train():
        model = GeneratorModel(vocab, TINY_CFG, mode, seed=3)
        train_generator(make_pairs(vocab, n=5, k=3, seed=4), model, AmgTrainConfig(epochs=12))
        return {name: p.data.copy() for name, p in model.parameters()}

    fused = train()
    monkeypatch.setattr(amg_model, "linear", composed_ops.linear)
    monkeypatch.setattr(amg_model, "attention", composed_ops.attention)
    monkeypatch.setattr(amg_model, "weighted_sum", composed_ops.weighted_sum)
    composed = train()
    for name in fused:
        assert_same_bits(fused[name], composed[name])
