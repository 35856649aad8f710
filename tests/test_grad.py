import numpy as np
import pytest

from soke.errors import ConfigError, GraphError, InputError, NonFiniteError
from soke.grad import (
    Adam,
    CosineSchedule,
    Tensor,
    concat,
    conv1d,
    cross_entropy,
    default_dtype,
    gather_rows,
    layer_norm,
    load_checkpoint,
    save_checkpoint,
    softmax,
    straight_through,
    upsample_repeat,
)

from gradcheck import check_gradients, finite_difference_grad, max_relative_error


def test_backward_sum_is_ones():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    x.sum().backward()
    assert np.allclose(x.grad, [1.0, 1.0, 1.0])


def test_backward_squared_norm():
    # loss = ||x||^2 at x=(1,2) -> gradient (2,4)
    x = Tensor([1.0, 2.0], requires_grad=True)
    (x * x).sum().backward()
    assert np.allclose(x.grad, [2.0, 4.0])


def test_backward_rejects_nonscalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(GraphError):
        (x * x).backward()


def test_backward_twice_errors():
    x = Tensor([1.0, 2.0], requires_grad=True)
    loss = (x * x).sum()
    loss.backward()
    with pytest.raises(GraphError):
        loss.backward()


def test_nan_raises_at_the_op():
    x = Tensor([0.0, 1.0], requires_grad=True)
    with np.errstate(divide="ignore"), pytest.raises(NonFiniteError):
        x ** -1.0


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
            return (p * p).sum() + (h ** 3).mean()

        errors = check_gradients(loss_fn, [("w", w), ("b", b)], eps=1e-4, tol=1e-4)
    assert max(errors.values()) < 1e-4


@pytest.mark.parametrize(
    "op_name",
    ["add", "mul", "matmul", "relu", "sqrt", "pow", "sum_axis", "mean", "reshape",
     "transpose", "slice", "concat"],
)
def test_each_op_matches_finite_differences(op_name):
    rng = np.random.default_rng(hash(op_name) % 2**32)
    with default_dtype(np.float64):
        a = Tensor(rng.uniform(0.5, 1.5, size=(3, 4)), requires_grad=True)
        b = Tensor(rng.uniform(0.5, 1.5, size=(3, 4)), requires_grad=True)
        c = Tensor(rng.uniform(0.5, 1.5, size=(4, 2)), requires_grad=True)
        k4 = Tensor(rng.normal(size=(4,)))
        k31 = Tensor(rng.normal(size=(3, 1)))

        builders = {
            "add": lambda: (a + b).sum(),
            "mul": lambda: (a * b).sum(),
            "matmul": lambda: (a @ c).sum(),
            "relu": lambda: (a - Tensor(1.0)).relu().sum(),
            "sqrt": lambda: a.sqrt().sum(),
            "pow": lambda: (a ** 3).sum(),
            "sum_axis": lambda: (a.sum(axis=0) * k4).sum(),
            "mean": lambda: a.mean(axis=1).sum(),
            "reshape": lambda: (a.reshape(4, 3) @ k31).sum(),
            "transpose": lambda: (a.transpose((1, 0)) @ k31).sum(),
            "slice": lambda: (a[1:, :2] * b[:2, 2:]).sum(),
            "concat": lambda: (concat([a, b], axis=1) ** 2).sum(),
        }
        check_gradients(builders[op_name], [("a", a), ("b", b), ("c", c)], eps=1e-5, tol=1e-4)


def test_broadcast_gradients():
    with default_dtype(np.float64):
        a = Tensor(np.random.default_rng(0).normal(size=(3, 4)), requires_grad=True)
        v = Tensor(np.random.default_rng(1).normal(size=(4,)), requires_grad=True)
        check_gradients(lambda: ((a + v) * v).sum(), [("a", a), ("v", v)], eps=1e-5, tol=1e-4)


def test_conv1d_and_upsample_match_finite_differences():
    rng = np.random.default_rng(7)
    with default_dtype(np.float64):
        x = Tensor(rng.normal(size=(8, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(5, 3, 4)) * 0.3, requires_grad=True)
        bias = Tensor(rng.normal(size=(5,)) * 0.1, requires_grad=True)

        def loss_fn():
            h = conv1d(x, w, bias, stride=2, padding=1).relu()
            return (upsample_repeat(h, 2) ** 2).mean()

        check_gradients(loss_fn, [("x", x), ("w", w), ("bias", bias)], eps=1e-5, tol=1e-4)


def test_layer_norm_matches_finite_differences():
    rng = np.random.default_rng(9)
    with default_dtype(np.float64):
        x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        g = Tensor(np.ones(6) + rng.normal(size=6) * 0.1, requires_grad=True)
        b = Tensor(rng.normal(size=6) * 0.1, requires_grad=True)
        check_gradients(
            lambda: (layer_norm(x, g, b) ** 2).mean(), [("x", x), ("g", g), ("b", b)],
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


def test_gather_rows_matches_finite_differences():
    rng = np.random.default_rng(13)
    with default_dtype(np.float64):
        table = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        ids = np.array([[0, 2], [2, 5]])
        check_gradients(lambda: (gather_rows(table, ids) ** 2).sum(), [("table", table)],
                        eps=1e-5, tol=1e-4)


def test_straight_through_forward_is_quantized():
    e = Tensor(np.array([0.3, -0.2]), requires_grad=True)
    q = Tensor(np.array([1.0, 0.0]))
    out = straight_through(e, q)
    assert np.array_equal(out.data, q.data)


def test_straight_through_gradient_passes_unchanged():
    e = Tensor(np.array([0.3, -0.2]), requires_grad=True)
    q = Tensor(np.array([1.0, 0.0]))
    g_weights = np.array([2.0, -3.0])
    (straight_through(e, q) * Tensor(g_weights)).sum().backward()
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
    rec = ((straight_through(enc, quantized) - target) ** 2).mean()
    rec.backward()
    assert np.any(enc.grad != 0.0)


def test_optimizer_zero_gradient_is_noop():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = Adam([p], lr=0.1)
    before = p.data.copy()
    p.grad = np.zeros_like(p.data)
    opt.step()
    assert np.array_equal(p.data, before)


def test_optimizer_reduces_quadratic():
    p = Tensor(np.array([3.0, -1.5]), requires_grad=True)
    opt = Adam([p], lr=0.05)
    for _ in range(400):
        opt.zero_grad()
        loss = (p * p).sum()
        loss.backward()
        opt.step()
    assert np.all(np.abs(p.data) < 1e-2)


def test_optimizer_requires_params():
    with pytest.raises(ConfigError):
        Adam([], lr=0.1)


def test_cosine_schedule_endpoints():
    sched = CosineSchedule(base_lr=2e-4, total_steps=100, min_lr=1e-6)
    assert sched.lr(0) == pytest.approx(2e-4)
    assert sched.lr(100) == pytest.approx(1e-6)
    assert sched.lr(50) == pytest.approx((2e-4 + 1e-6) / 2, rel=1e-6)
    assert sched.lr(250) == pytest.approx(1e-6)


def test_training_is_deterministic_given_seed():
    def run(seed):
        rng = np.random.default_rng(seed)
        w = Tensor(rng.normal(size=(3, 2)).astype(np.float32), requires_grad=True)
        x = Tensor(rng.normal(size=(5, 3)).astype(np.float32))
        y = Tensor(rng.normal(size=(5, 2)).astype(np.float32))
        opt = Adam([w], lr=1e-2)
        for _ in range(50):
            opt.zero_grad()
            ((x @ w - y) ** 2).mean().backward()
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


def test_max_relative_error_helper():
    assert max_relative_error(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
    assert max_relative_error(np.array([1.0]), np.array([1.1])) == pytest.approx(0.1 / 1.1)


def test_finite_difference_restores_parameter():
    with default_dtype(np.float64):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        before = p.data.copy()
        finite_difference_grad(lambda: (p * p).sum(), p)
        assert np.array_equal(p.data, before)


@pytest.mark.parametrize("key", [np.array([1, 1, 2]), [1, 1, 2]])
def test_repeated_index_gradients_add_up(key):
    x = Tensor(np.arange(4.0), requires_grad=True)
    x[key].sum().backward()
    assert np.array_equal(x.grad, [0.0, 2.0, 1.0, 0.0])


def test_repeated_index_inside_a_tuple_key():
    x = Tensor(np.ones((2, 3, 2)), requires_grad=True)
    x[:, np.array([0, 0, 2]), 0:1].sum().backward()
    expected = np.zeros((2, 3, 2))
    expected[:, 0, 0] = 2.0
    expected[:, 2, 0] = 1.0
    assert np.array_equal(x.grad, expected)
