import zlib

import numpy as np
import pytest

from soke.errors import ConfigError, GraphError, InputError, NonFiniteError
from soke.grad import (
    Adam,
    CosineSchedule,
    Tensor,
    attention,
    concat,
    conv1d,
    cross_entropy,
    default_dtype,
    layer_norm,
    linear,
    load_checkpoint,
    load_parameters,
    no_grad,
    save_checkpoint,
    straight_through,
    upsample_repeat,
)
from soke.grad.tensor import _im2col_index, weighted_sum
from soke.deto import vq_loss_terms
from soke.motion import build_sign_chain
from soke.posefit import Observations, body_fk

import fit_oracle
from adam_reference import PerParameterAdam
from composed_ops import mean, power, reduce_sum, reshape, softmax, sub, transpose
from gradcheck import check_gradients, finite_difference_grad, max_relative_error


def test_backward_sum_is_ones():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    reduce_sum(x).backward()
    assert np.allclose(x.grad, [1.0, 1.0, 1.0])


def test_backward_squared_norm():
    # loss = ||x||^2 at x=(1,2) -> gradient (2,4)
    x = Tensor([1.0, 2.0], requires_grad=True)
    reduce_sum(x * x).backward()
    assert np.allclose(x.grad, [2.0, 4.0])


def test_backward_rejects_nonscalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(GraphError):
        (x * x).backward()


def test_backward_twice_errors():
    x = Tensor([1.0, 2.0], requires_grad=True)
    loss = reduce_sum(x * x)
    loss.backward()
    with pytest.raises(GraphError):
        loss.backward()


def test_nan_raises_at_the_op():
    x = Tensor([0.0, 1.0], requires_grad=True)
    with np.errstate(divide="ignore"), pytest.raises(NonFiniteError):
        power(x, -1.0)


def test_no_grad_outputs_keep_no_parents_or_closures():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with no_grad():
        y = reduce_sum(x * x)
    assert not y.requires_grad and y._parents == () and y._backward is None
    assert y.item() == 5.0
    assert reduce_sum(x * x)._parents != ()  # graph building is back on


BODY = build_sign_chain().body_subchain(11)
OBSERVED = Observations(np.zeros((2, 3, 2)), np.ones((2, 3)))

# every graph node the package defines, and the pose-fit loss nodes the
# parent-loop oracle in `fit_oracle` builds, from leaves made by
# `leaf(shape)`; the first leaf each one makes is its gradient input
NODE_BUILDERS = {
    "add": lambda leaf: leaf((2, 3)) + leaf((2, 3)),
    "mul": lambda leaf: leaf((2, 3)) * leaf((2, 3)),
    "matmul": lambda leaf: leaf((2, 3)) @ leaf((3, 4)),
    "slice": lambda leaf: leaf((2, 3))[:, 1:],
    "gather": lambda leaf: leaf((4, 3))[np.array([[0, 2], [2, 1]])],
    "relu": lambda leaf: leaf((2, 3)).relu(),
    "concat": lambda leaf: concat([leaf((2, 3)), leaf((2, 3))], axis=1),
    "straight_through": lambda leaf: straight_through(leaf((2, 3)), leaf((2, 3))),
    "linear": lambda leaf: linear(leaf((2, 3)), leaf((3, 4)), leaf((4,))),
    "attention": lambda leaf: attention(leaf((1, 3, 4)), leaf((1, 5, 4)), leaf((1, 5, 4)), 2),
    "weighted_sum": lambda leaf: weighted_sum([leaf((2, 3)), leaf((2, 3))], [0.25, 0.75]),
    "cross_entropy": lambda leaf: cross_entropy(leaf((2, 5)), np.array([1, 4])),
    "layer_norm": lambda leaf: layer_norm(leaf((2, 6)), leaf((6,)), leaf((6,))),
    "conv1d": lambda leaf: conv1d(leaf((8, 3)), leaf((9, 4)), leaf((4,)), stride=2, padding=1),
    "upsample": lambda leaf: upsample_repeat(leaf((3, 2)), 2),
    "body_fk": lambda leaf: body_fk(leaf((2, 11, 3)), BODY),
    "loss_rec": lambda leaf: fit_oracle.loss_rec(leaf((2, 11, 3)), OBSERVED, leaf((3,)),
                                                 (5, 5, 6), 2.0),
    "loss_temp": lambda leaf: fit_oracle.loss_temp(leaf((3, 4, 3))),
    "loss_reg": lambda leaf: fit_oracle.loss_reg(leaf((2, 3))),
    "vq_loss": lambda leaf: vq_loss_terms(leaf((2, 3)), leaf((2, 3)), leaf((4, 3)),
                                          np.zeros((4, 3)), 1.0, 0.25)[0],
}


@pytest.mark.parametrize("case", ["gradient_input", "constant_inputs", "no_grad"])
@pytest.mark.parametrize("op", sorted(NODE_BUILDERS))
def test_a_node_keeps_parents_and_closure_only_when_it_requires_a_gradient(op, case):
    rng = np.random.default_rng(zlib.crc32(op.encode()))
    made = []

    def leaf(shape):
        wants_grad = case != "constant_inputs" and not made
        made.append(Tensor(rng.uniform(0.5, 1.5, size=shape), requires_grad=wants_grad))
        return made[-1]

    with default_dtype(np.float64):
        if case == "no_grad":
            with no_grad():
                out = NODE_BUILDERS[op](leaf)
        else:
            out = NODE_BUILDERS[op](leaf)
    assert out._op == ("slice" if op == "gather" else op)
    if case == "gradient_input":
        assert out.requires_grad and out._parents != () and out._backward is not None
    else:
        assert not out.requires_grad and out._parents == () and out._backward is None


def test_no_grad_nests():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with no_grad():
        with no_grad():
            pass
        inner = x * 2.0  # the outer block is still in force
    assert inner._parents == ()
    assert (x * 2.0).requires_grad


def test_no_grad_restores_after_an_exception():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(NonFiniteError), np.errstate(divide="ignore"), no_grad():
        power(Tensor([0.0, 1.0]), -1.0)
    assert (x * 2.0).requires_grad


def test_no_grad_leaves_parameter_grads_untouched():
    p = Tensor([1.0, -2.0], requires_grad=True)
    p.grad = np.array([0.5, 0.25], dtype=np.float32)
    with no_grad():
        loss = reduce_sum(p * p)
        loss.backward()
    assert np.array_equal(p.grad, [0.5, 0.25])


@pytest.mark.parametrize("seed", range(6))
def test_composite_graph_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    with default_dtype(np.float64):
        w = Tensor(rng.normal(size=(4, 3)) * 0.5, requires_grad=True)
        b = Tensor(rng.normal(size=(3,)) * 0.1, requires_grad=True)
        x = Tensor(rng.normal(size=(5, 4)))

        def loss_fn():
            h = (x @ w + b).relu()
            p = softmax(h * Tensor(1.3))
            return reduce_sum(p * p) + mean(power(h, 3))

        errors = check_gradients(loss_fn, [("w", w), ("b", b)], eps=1e-4, tol=1e-4)
    assert max(errors.values()) < 1e-4


@pytest.mark.parametrize(
    "op_name",
    ["add", "mul", "matmul", "relu", "pow", "sum_axis", "mean", "reshape",
     "transpose", "slice", "gather", "concat"],
)
def test_each_op_matches_finite_differences(op_name):
    rng = np.random.default_rng(zlib.crc32(op_name.encode()))
    with default_dtype(np.float64):
        a = Tensor(rng.uniform(0.5, 1.5, size=(3, 4)), requires_grad=True)
        b = Tensor(rng.uniform(0.5, 1.5, size=(3, 4)), requires_grad=True)
        c = Tensor(rng.uniform(0.5, 1.5, size=(4, 2)), requires_grad=True)
        k4 = Tensor(rng.normal(size=(4,)))
        k31 = Tensor(rng.normal(size=(3, 1)))

        builders = {
            "add": lambda: reduce_sum(a + b),
            "mul": lambda: reduce_sum(a * b),
            "matmul": lambda: reduce_sum(a @ c),
            "relu": lambda: reduce_sum(sub(a, Tensor(1.0)).relu()),
            "pow": lambda: reduce_sum(power(a, 3)),
            "sum_axis": lambda: reduce_sum(reduce_sum(a, axis=0) * k4),
            "mean": lambda: reduce_sum(mean(a, axis=1)),
            "reshape": lambda: reduce_sum(reshape(a, (4, 3)) @ k31),
            "transpose": lambda: reduce_sum(transpose(a, (1, 0)) @ k31),
            "slice": lambda: reduce_sum(a[1:, :2] * b[:2, 2:]),
            "gather": lambda: reduce_sum(power(a[np.array([[0, 2], [2, 1]])], 2)),  # an id repeats
            "concat": lambda: reduce_sum(power(concat([a, b], axis=1), 2)),
        }
        check_gradients(builders[op_name], [("a", a), ("b", b), ("c", c)], eps=1e-5, tol=1e-4)


def test_broadcast_gradients():
    with default_dtype(np.float64):
        a = Tensor(np.random.default_rng(0).normal(size=(3, 4)), requires_grad=True)
        v = Tensor(np.random.default_rng(1).normal(size=(4,)), requires_grad=True)
        check_gradients(lambda: reduce_sum((a + v) * v), [("a", a), ("v", v)], eps=1e-5, tol=1e-4)


def test_conv1d_and_upsample_match_finite_differences():
    rng = np.random.default_rng(7)
    with default_dtype(np.float64):
        x = Tensor(rng.normal(size=(8, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(12, 5)) * 0.3, requires_grad=True)  # K = 4, C_in = 3
        bias = Tensor(rng.normal(size=(5,)) * 0.1, requires_grad=True)

        def loss_fn():
            h = conv1d(x, w, bias, stride=2, padding=1).relu()
            return mean(power(upsample_repeat(h, 2), 2))

        check_gradients(loss_fn, [("x", x), ("w", w), ("bias", bias)], eps=1e-5, tol=1e-4)


def test_layer_norm_matches_finite_differences():
    rng = np.random.default_rng(9)
    with default_dtype(np.float64):
        x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        g = Tensor(np.ones(6) + rng.normal(size=6) * 0.1, requires_grad=True)
        b = Tensor(rng.normal(size=6) * 0.1, requires_grad=True)
        check_gradients(
            lambda: mean(power(layer_norm(x, g, b), 2)), [("x", x), ("g", g), ("b", b)],
            eps=1e-5, tol=1e-4,
        )


def test_cross_entropy_matches_finite_differences():
    rng = np.random.default_rng(11)
    with default_dtype(np.float64):
        logits = Tensor(rng.normal(size=(5, 7)), requires_grad=True)
        targets = rng.integers(0, 4, size=5)
        support = np.zeros((5, 7), dtype=bool)
        support[:, :4] = True
        support[:, 6] = True
        weights = np.array([1.0, 1.0, 0.0, 1.0, 1.0])
        check_gradients(
            lambda: cross_entropy(logits, targets, support_mask=support, weights=weights),
            [("logits", logits)], eps=1e-5, tol=1e-4,
        )


def test_straight_through_forward_is_quantized():
    e = Tensor(np.array([0.3, -0.2]), requires_grad=True)
    q = Tensor(np.array([1.0, 0.0]))
    out = straight_through(e, q)
    assert np.array_equal(out.data, q.data)


def test_straight_through_gradient_passes_unchanged():
    e = Tensor(np.array([0.3, -0.2]), requires_grad=True)
    q = Tensor(np.array([1.0, 0.0]))
    g_weights = np.array([2.0, -3.0])
    reduce_sum(straight_through(e, q) * Tensor(g_weights)).backward()
    assert np.allclose(e.grad, g_weights)


def test_straight_through_shape_mismatch():
    with pytest.raises(GraphError):
        straight_through(Tensor(np.zeros(3), requires_grad=True), Tensor(np.zeros(2)))


def test_straight_through_gives_encoder_nonzero_gradient_through_reconstruction():
    # quantization is piecewise constant, yet the encoder input still learns
    rng = np.random.default_rng(3)
    enc = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    quantized = Tensor(np.round(enc.data))
    target = Tensor(rng.normal(size=(4, 2)))
    rec = mean(power(sub(straight_through(enc, quantized), target), 2))
    rec.backward()
    assert np.any(enc.grad != 0.0)


def constant_rate(lr: float, steps: int) -> CosineSchedule:
    """A schedule that gives lr at each of its steps."""
    return CosineSchedule(lr, steps, min_lr=lr)


def test_optimizer_zero_gradient_is_noop():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = Adam([("p", p)], constant_rate(0.1, 1))
    before = p.data.copy()
    p.grad = np.zeros_like(p.data)
    opt.step()
    assert np.array_equal(p.data, before)


def test_optimizer_reduces_quadratic():
    p = Tensor(np.array([3.0, -1.5]), requires_grad=True)
    opt = Adam([("p", p)], constant_rate(0.05, 400))
    for _ in range(400):
        opt.zero_grad()
        loss = reduce_sum(p * p)
        loss.backward()
        opt.step()
    assert np.all(np.abs(p.data) < 1e-2)


def test_optimizer_requires_params():
    with pytest.raises(ConfigError):
        Adam([], constant_rate(0.1, 1))


def test_cosine_schedule_endpoints():
    sched = CosineSchedule(base_lr=2e-4, total_steps=100, min_lr=1e-6)
    assert sched.lr(0) == pytest.approx(2e-4)
    assert sched.lr(100) == pytest.approx(1e-6)
    assert sched.lr(50) == pytest.approx((2e-4 + 1e-6) / 2, rel=1e-6)
    assert sched.lr(250) == pytest.approx(1e-6)


@pytest.mark.parametrize("steps", [0, -3])
def test_cosine_schedule_needs_a_step(steps):
    with pytest.raises(ConfigError, match="at least one step"):
        CosineSchedule(base_lr=2e-4, total_steps=steps)


def test_constant_rate_is_the_rate_at_every_step():
    sched = constant_rate(3e-3, 7)
    assert [sched.lr(step) for step in range(10)] == [3e-3] * 10


def test_training_is_deterministic_given_seed():
    def run(seed):
        rng = np.random.default_rng(seed)
        w = Tensor(rng.normal(size=(3, 2)).astype(np.float32), requires_grad=True)
        x = Tensor(rng.normal(size=(5, 3)).astype(np.float32))
        y = Tensor(rng.normal(size=(5, 2)).astype(np.float32))
        opt = Adam([("w", w)], constant_rate(1e-2, 50))
        for _ in range(50):
            opt.zero_grad()
            mean(power(sub(x @ w, y), 2)).backward()
            opt.step()
        return w.data.copy()

    assert np.array_equal(run(123), run(123))


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    params = {
        "enc.w": rng.normal(size=(4, 3)).astype(np.float32),
        "enc.b": rng.normal(size=(3,)).astype(np.float32),
        "scalar": np.float32(2.5).reshape(()),
    }
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params)
    loaded = load_checkpoint(path)
    assert set(loaded) == set(params)
    for name in params:
        assert np.array_equal(np.asarray(params[name]), loaded[name])
    assert path.read_bytes()[:9] == b"SOKEckpt1"


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTACKPT!")
    from soke.errors import InputError

    with pytest.raises(InputError):
        load_checkpoint(path)


@pytest.mark.parametrize("cut", [12, 20, -4])
def test_checkpoint_rejects_truncated_blob(tmp_path, cut):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"w": np.ones((4, 3), dtype=np.float32), "b": np.zeros(3, dtype=np.float32)})
    path.write_bytes(path.read_bytes()[:cut])
    with pytest.raises(InputError, match="truncated"):
        load_checkpoint(path)


def test_checkpoint_rejects_undecodable_name(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"w": np.ones((4, 3), dtype=np.float32)})
    blob = bytearray(path.read_bytes())
    blob[15] = 0xFF  # first byte of the name "w", after magic, count and name length
    path.write_bytes(bytes(blob))
    with pytest.raises(InputError, match="utf-8"):
        load_checkpoint(path)


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"w": np.ones((4, 3), dtype=np.float32)})
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(InputError, match="trailing"):
        load_checkpoint(path)


def test_non_finite_checkpoint_value_raises_naming_file_and_parameter(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"w": np.ones(2, dtype=np.float32),
                           "enc.b": np.array([1.0, np.nan], dtype=np.float32)})
    params = [("w", Tensor(np.zeros(2))), ("enc.b", Tensor(np.zeros(2)))]
    with pytest.raises(InputError, match=r"model\.ckpt.*non-finite.*enc\.b"):
        load_parameters(path, params)


def test_checkpoint_with_a_tensor_the_model_lacks_raises_naming_file_and_tensor(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"w": np.ones(2, dtype=np.float32), "b": np.zeros(3, dtype=np.float32),
                           "stray": np.ones(1, dtype=np.float32)})
    params = [("w", Tensor(np.zeros(2))), ("b", Tensor(np.zeros(3)))]
    with pytest.raises(InputError, match=r"model\.ckpt.*unexpected.*stray"):
        load_parameters(path, params)
    assert np.array_equal(params[0][1].data, np.zeros(2))  # nothing was loaded


def test_checkpoint_without_a_parameter_names_it(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"w": np.ones(2, dtype=np.float32)})
    params = [("w", Tensor(np.zeros(2))), ("enc.b", Tensor(np.zeros(3)))]
    with pytest.raises(InputError, match=r"model\.ckpt: checkpoint lacks parameter enc\.b$"):
        load_parameters(path, params)


def test_checkpoint_with_a_misshaped_parameter_gives_both_shapes(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"w": np.ones((3, 2), dtype=np.float32)})
    with pytest.raises(InputError, match=r"model\.ckpt: parameter w is stored as \(3, 2\), "
                                         r"expected \(2, 3\)$"):
        load_parameters(path, [("w", Tensor(np.zeros((2, 3))))])


def test_max_relative_error_helper():
    assert max_relative_error(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
    assert max_relative_error(np.array([1.0]), np.array([1.1])) == pytest.approx(0.1 / 1.1)


def test_finite_difference_restores_parameter():
    with default_dtype(np.float64):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        before = p.data.copy()
        finite_difference_grad(lambda: reduce_sum(p * p), p)
        assert np.array_equal(p.data, before)


@pytest.mark.parametrize("key", [np.array([1, 1, 2]), [1, 1, 2]])
def test_repeated_index_gradients_add_up(key):
    x = Tensor(np.arange(4.0), requires_grad=True)
    reduce_sum(x[key]).backward()
    assert np.array_equal(x.grad, [0.0, 2.0, 1.0, 0.0])


def test_repeated_index_inside_a_tuple_key():
    x = Tensor(np.ones((2, 3, 2)), requires_grad=True)
    reduce_sum(x[:, np.array([0, 0, 2]), 0:1]).backward()
    expected = np.zeros((2, 3, 2))
    expected[:, 0, 0] = 2.0
    expected[:, 2, 0] = 1.0
    assert np.array_equal(x.grad, expected)


# -- bit-for-bit oracles of the training fast paths ----------------------------


def _gather_grad(table: np.ndarray, ids: np.ndarray, g: np.ndarray) -> np.ndarray:
    """table[ids]'s gradient as backward computes it, for an output gradient g."""
    x = Tensor(table, requires_grad=True)
    reduce_sum(x[ids] * Tensor(g)).backward()  # the gather's gradient is exactly g
    return x.grad


@pytest.mark.parametrize("ids", [np.array([3, 1, 3, 0, 3, 1]), np.array([[2, 2, 0], [1, 2, 2]])],
                         ids=["1d", "2d"])
@pytest.mark.parametrize("row_shape", [(5,), (2, 3)], ids=["rank2", "rank3"])
def test_gather_backward_equals_add_at_bit_for_bit(ids, row_shape):
    rng = np.random.default_rng(ids.size + len(row_shape))
    table = rng.normal(size=(4, *row_shape)).astype(np.float32)
    # gradients over sixteen decades, so the sum of a repeated id's rows
    # rounds differently in another order; one row is all -0.0
    g = rng.normal(size=(*ids.shape, *row_shape)) * 10.0 ** rng.integers(-8, 8, size=ids.shape
                                                                        + (1,) * len(row_shape))
    g = g.astype(np.float32)
    g.reshape(-1, *row_shape)[1] = -0.0
    expected = np.zeros_like(table)
    np.add.at(expected, ids, g)
    assert _gather_grad(table, ids, g).tobytes() == expected.tobytes()


def test_gather_backward_adds_a_repeated_ids_terms_in_index_order():
    # 1e8 + 1 rounds to 1e8 in float32, so these rows sum to 0 in index
    # order and to 1 if the 1 came last; np.add.at gives 0, a row that only
    # receives -0.0 stays +0.0, and a row never gathered stays +0.0
    ids = np.array([2, 0, 2, 2])
    g = np.array([[1e8], [-0.0], [1.0], [-1e8]], dtype=np.float32)
    grad = _gather_grad(np.zeros((3, 1), dtype=np.float32), ids, g)
    assert grad.tobytes() == np.zeros((3, 1), dtype=np.float32).tobytes()


def _uncached_im2col(x, k, stride, padding, t_out):
    """The padded input and its im2col rows, with the index built here."""
    T, c_in = x.shape
    xp = np.zeros((T + 2 * padding, c_in), dtype=x.dtype)
    xp[padding: padding + T] = x
    idx = np.arange(t_out)[:, None] * stride + np.arange(k)[None, :]
    return xp, idx, xp[idx].reshape(t_out, k * c_in)


def _conv1d_add_at_grads(x, w, g, stride, padding):
    """conv1d's input, weight and bias gradients, with col2im as one np.add.at."""
    T, c_in = x.shape
    k = w.shape[0] // c_in
    t_out = g.shape[0]
    xp, idx, cols = _uncached_im2col(x, k, stride, padding, t_out)
    gxp = np.zeros_like(xp)
    np.add.at(gxp, idx, (g @ w.T).reshape(t_out, k, c_in))
    gw = cols.T @ g
    gb = g.sum(axis=0, dtype=np.float64).astype(x.dtype)
    return gxp[padding: padding + T], gw, gb


@pytest.mark.parametrize("stride, padding", [(1, 0), (2, 1)])
def test_conv1d_weight_row_holds_a_tap_of_an_input_channel(stride, padding):
    # row j * C_in + c of the filter matrix is tap j of input channel c
    rng = np.random.default_rng(stride)
    k, c_in, c_out = 3, 4, 2
    x = rng.normal(size=(9, c_in))
    bank = rng.normal(size=(c_out, c_in, k))
    bias = rng.normal(size=c_out)
    with default_dtype(np.float64):
        out = conv1d(Tensor(x), Tensor(bank.transpose(2, 1, 0).reshape(k * c_in, c_out)),
                     Tensor(bias), stride=stride, padding=padding).data
    xp = np.pad(x, ((padding, padding), (0, 0)))
    direct = np.array([[bias[o] + sum(bank[o, c, j] * xp[t * stride + j, c]
                                      for c in range(c_in) for j in range(k))
                        for o in range(c_out)] for t in range(out.shape[0])])
    np.testing.assert_allclose(out, direct, rtol=1e-12, atol=1e-12)


def test_conv1d_weight_rows_not_a_multiple_of_the_input_channels_rejected():
    with pytest.raises(GraphError, match="channel mismatch"):
        conv1d(Tensor(np.ones((8, 3))), Tensor(np.ones((10, 4))), Tensor(np.zeros(4)))


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", [0, 1])
def test_conv1d_gradients_equal_add_at_col2im(k, stride, padding):
    rng = np.random.default_rng(100 * k + 10 * stride + padding)
    x = Tensor(rng.normal(size=(11, 5)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.normal(size=(k * 5, 6)).astype(np.float32), requires_grad=True)
    bias = Tensor(rng.normal(size=6).astype(np.float32), requires_grad=True)
    out = conv1d(x, w, bias, stride=stride, padding=padding)
    g = rng.normal(size=out.shape).astype(np.float32)
    reduce_sum(out * Tensor(g)).backward()  # the output's gradient is exactly g
    gx, gw, gb = _conv1d_add_at_grads(x.data, w.data, g, stride, padding)
    assert np.array_equal(x.grad, gx)
    assert np.array_equal(w.grad, gw)
    assert np.array_equal(bias.grad, gb)


def test_im2col_index_is_read_only():
    idx = _im2col_index(7, 3, 2)
    assert idx.tolist() == [[2 * t + j for j in range(3)] for t in range(7)]
    with pytest.raises(ValueError, match="read-only"):
        idx[0, 0] = 1


def test_im2col_index_is_made_once_per_shape():
    first = _im2col_index(9, 4, 1)
    _im2col_index(9, 4, 2)
    _im2col_index(9, 3, 1)
    assert _im2col_index(9, 4, 1) is first
    assert _im2col_index(10, 4, 1) is not first


# (T, k, stride, padding): the first shape recurs after three others, and
# the last two share its (t_out, k, stride) from another input length
CONV_SHAPES = [(12, 4, 2, 1), (12, 3, 1, 1), (29, 4, 2, 1), (6, 3, 1, 0), (12, 4, 2, 1),
               (13, 4, 2, 1), (14, 4, 2, 0)]


def test_conv1d_over_recurring_shapes_equals_an_uncached_im2col():
    rng = np.random.default_rng(27)
    c_in, c_out = 5, 6
    for T, k, stride, padding in CONV_SHAPES:
        x = Tensor(rng.normal(size=(T, c_in)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal(size=(k * c_in, c_out)).astype(np.float32), requires_grad=True)
        bias = Tensor(rng.normal(size=c_out).astype(np.float32), requires_grad=True)
        out = conv1d(x, w, bias, stride=stride, padding=padding)
        t_out = (T + 2 * padding - k) // stride + 1
        want = _uncached_im2col(x.data, k, stride, padding, t_out)[2] @ w.data
        want += bias.data
        assert out.data.tobytes() == want.tobytes()
        g = rng.normal(size=out.shape).astype(np.float32)
        reduce_sum(out * Tensor(g)).backward()
        gx, gw, gb = _conv1d_add_at_grads(x.data, w.data, g, stride, padding)
        assert x.grad.tobytes() == gx.tobytes()
        assert w.grad.tobytes() == gw.tobytes()
        assert bias.grad.tobytes() == gb.tobytes()


def test_adam_matches_a_per_parameter_reference_bit_for_bit():
    rng = np.random.default_rng(31)
    shapes = [(3, 4), (4,), (), (2, 3, 2), (5,), (1, 7)]
    start = [rng.normal(size=s).astype(np.float32) for s in shapes]
    fast = [Tensor(a.copy(), requires_grad=True) for a in start]
    slow = [Tensor(a.copy(), requires_grad=True) for a in start]
    opt = Adam([(f"p{i}", p) for i, p in enumerate(fast)], constant_rate(0.03, 20))
    ref = PerParameterAdam(slow, constant_rate(0.03, 20))
    for step in range(20):
        for i, s in enumerate(shapes):
            # gradients carry their parameter's dtype, as `Tensor._accumulate` casts them
            g = (rng.normal(size=s) * 10.0 ** rng.integers(-4, 3)).astype(np.float32)
            fast[i].grad, slow[i].grad = g, g.copy()
        if step == 13:  # replacing a parameter's data between steps is allowed
            fast[0].data = fast[0].data * 0.5
            slow[0].data = slow[0].data * 0.5
        opt.step()
        ref.step()
        for i, (a, b) in enumerate(zip(fast, slow)):
            assert np.array_equal(a.data, b.data), (step, i)
    moments = zip(opt.offsets, opt.offsets[1:], ref.m, ref.v)
    for lo, hi, m, v in moments:
        assert np.array_equal(opt.m[lo:hi], m.reshape(-1))
        assert np.array_equal(opt.v[lo:hi], v.reshape(-1))


def _zero_gradient_run(steps: int):
    """Adam and its per-parameter oracle over `steps` steps in which some
    parameters' gradients turn exactly zero, so their first moments decay
    toward the subnormals; the parameters hold normal-magnitude values."""
    rng = np.random.default_rng(41)
    shapes = [(4, 3), (5,), (2, 2)]
    start = [rng.normal(size=s).astype(np.float32) for s in shapes]
    fast = [Tensor(a.copy(), requires_grad=True) for a in start]
    slow = [Tensor(a.copy(), requires_grad=True) for a in start]
    opt = Adam([(f"p{i}", p) for i, p in enumerate(fast)], constant_rate(2e-3, steps))
    ref = PerParameterAdam(slow, constant_rate(2e-3, steps))
    for step in range(steps):
        for i, s in enumerate(shapes):
            g = rng.normal(size=s).astype(np.float32)
            if i < 2 and step >= 5 * i + 1:  # p0 after one step, p1 after six
                g[...] = 0.0
            fast[i].grad, slow[i].grad = g, g.copy()
        opt.step()
        ref.step()
        yield opt, ref, fast, slow


def _subnormal(a: np.ndarray) -> np.ndarray:
    return (a != 0) & (np.abs(a) < np.finfo(a.dtype).tiny)


def test_adam_leaves_no_subnormal_first_moment_after_a_zero_gradient():
    for opt, ref, _, _ in _zero_gradient_run(1000):
        pass
    assert any(_subnormal(m).any() for m in ref.m)  # the oracle keeps them
    assert not _subnormal(opt.m).any()
    assert not _subnormal(opt.v).any()


def test_adam_flush_keeps_the_parameters_bits():
    for step, (_, _, fast, slow) in enumerate(_zero_gradient_run(1000)):
        for i, (a, b) in enumerate(zip(fast, slow)):
            assert np.array_equal(a.data, b.data), (step, i)


def test_adam_makes_its_scratch_buffers_once():
    rng = np.random.default_rng(5)
    params = [Tensor(rng.normal(size=s).astype(np.float32), requires_grad=True)
              for s in [(3, 4), (2,), ()]]
    opt = Adam([(f"p{i}", p) for i, p in enumerate(params)], constant_rate(0.1, 3))
    pair = [id(a) for a in opt.scratch]
    for _ in range(3):
        for p in params:
            p.grad = rng.normal(size=p.shape).astype(np.float32)
        opt.step()
        assert [id(a) for a in opt.scratch] == pair
    # one pair, in the parameters' dtype
    assert [(a.dtype, a.shape) for a in opt.scratch] == [(np.float32, (15,))] * 2


def test_adam_step_without_a_gradient_names_the_parameter_and_changes_nothing():
    params = [Tensor(np.ones(s, dtype=np.float32), requires_grad=True) for s in [(2,), (3, 4)]]
    opt = Adam(list(zip(["tok_emb", "enc_pos"], params)), constant_rate(0.1, 1))
    params[0].grad = np.ones(2, dtype=np.float32)
    with pytest.raises(GraphError, match=r"parameter enc_pos \(shape \(3, 4\)\) has no"):
        opt.step()
    assert opt.steps_taken == 0 and not opt.m.any() and not opt.v.any()
    assert all(np.array_equal(p.data, np.ones(p.shape)) for p in params)


def test_adam_rejects_mixed_dtypes():
    a = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
    with default_dtype(np.float64):
        b = Tensor(np.zeros(2), requires_grad=True)
    with pytest.raises(ConfigError):
        Adam([("a", a), ("b", b)], constant_rate(0.1, 1))


def test_first_gradient_is_kept_fresh_and_views_are_copied():
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    reduce_sum(x).backward()  # the sum hands x a read-only broadcast view
    assert x.grad.base is None and x.grad.flags.writeable
    y = Tensor(np.ones(3), requires_grad=True)
    reduce_sum(y * Tensor(np.full(3, 2.0))).backward()
    assert np.array_equal(y.grad, [2.0, 2.0, 2.0])
