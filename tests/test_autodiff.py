import numpy as np
import pytest

from mmtlab import autodiff as ad
from mmtlab.autodiff import Tape, Tensor
from mmtlab.errors import ConfigError, DimensionError
from mmtlab.gradcheck import max_relative_error

TOL = 1e-5


@pytest.fixture(autouse=True)
def _finite_checks():
    ad.set_debug_checks(True)
    yield
    ad.set_debug_checks(False)


# ---------------------------------------------------------------------------
# frozen forward values


def test_matmul_identity():
    out = ad.matmul(Tensor([[1.0, 0.0], [0.0, 1.0]]), Tensor([[3.0, 4.0], [5.0, 6.0]]))
    assert np.array_equal(out.data, [[3.0, 4.0], [5.0, 6.0]])


def test_matmul_row_times_column():
    out = ad.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert np.array_equal(out.data, [[11.0]])


def test_matmul_shape_mismatch_raises():
    with pytest.raises(DimensionError):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_softmax_uniform():
    out = ad.softmax(Tensor([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3], rtol=0, atol=1e-15)


def test_softmax_large_logits_stable():
    out = ad.softmax(Tensor([1000.0, 0.0]))
    assert np.all(np.isfinite(out.data))
    np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-300)


def test_log_softmax_matches_log_of_softmax():
    x = np.array([[0.3, -1.2, 2.0], [5.0, 5.0, 5.0]])
    a = ad.log_softmax(Tensor(x)).data
    b = np.log(ad.softmax(Tensor(x)).data)
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_layer_norm_two_values():
    out = ad.layer_norm(
        Tensor([[1.0, 3.0]]), Tensor([1.0, 1.0]), Tensor([0.0, 0.0]), eps=0.0
    )
    np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-12)


def test_layer_norm_constant_row_is_finite_zero():
    out = ad.layer_norm(Tensor([[2.0, 2.0, 2.0]]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
    np.testing.assert_allclose(out.data, 0.0, atol=1e-6)


def test_layer_norm_shape_mismatch_raises():
    with pytest.raises(DimensionError):
        ad.layer_norm(Tensor(np.ones((2, 4))), Tensor(np.ones(3)), Tensor(np.zeros(3)))


def test_layer_norm_in_place_matches_plain_expression_exactly():
    rng = np.random.default_rng(13)
    x, g = rng.standard_normal((3, 5, 8)), rng.standard_normal((3, 5, 8))
    gain, bias = rng.standard_normal(8), rng.standard_normal(8)
    xt, gt, bt = Tensor(x), Tensor(gain), Tensor(bias)
    with Tape() as tape:
        out = ad.layer_norm(xt, gt, bt)
        tape.backward(ad.sum_(ad.mul(out, Tensor(g))))
    xc = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + 1e-5)
    xhat = xc * inv
    gh = g * gain
    dx = inv * (gh - gh.mean(axis=-1, keepdims=True) - xhat * (gh * xhat).mean(axis=-1, keepdims=True))
    np.testing.assert_array_equal(out.data, xhat * gain + bias)
    np.testing.assert_array_equal(xt.grad, dx)
    np.testing.assert_array_equal(gt.grad, (g * xhat).sum(axis=(0, 1)))
    np.testing.assert_array_equal(bt.grad, g.sum(axis=(0, 1)))


def test_gelu_reference_points():
    # odd-symmetric-ish fixings: gelu(0)=0 and the tanh form at x=1
    out = ad.gelu(Tensor([0.0, 1.0, -1.0]))
    assert out.data[0] == 0.0
    t = np.tanh(np.sqrt(2 / np.pi) * (1 + 0.044715))
    np.testing.assert_allclose(out.data[1], 0.5 * (1 + t), atol=1e-12)
    # identity of the tanh form: gelu(x) + gelu(-x) = x * tanh(inner(x))
    np.testing.assert_allclose(out.data[1] + out.data[2], t, atol=1e-12)


def test_attention_head_count_must_divide():
    qkv = Tensor(np.zeros((1, 4, 18)))
    with pytest.raises(ConfigError):
        ad.multi_head_attention(qkv, heads=4)


def test_attention_rejects_unpacked_width():
    with pytest.raises(DimensionError):
        ad.multi_head_attention(Tensor(np.zeros((1, 4, 8))), heads=1)


def test_attention_single_head_matches_manual_sdpa():
    rng = np.random.default_rng(0)
    q, k, v = (rng.standard_normal((1, 3, 4)) for _ in range(3))
    out = ad.multi_head_attention(Tensor(np.concatenate([q, k, v], axis=-1)), heads=1).data
    att = np.exp((q @ k.transpose(0, 2, 1)) / 2.0)
    att /= att.sum(axis=-1, keepdims=True)
    np.testing.assert_allclose(out, att @ v, atol=1e-12)


def test_cross_entropy_uniform_logits():
    logits = Tensor(np.zeros((2, 4)))
    loss = ad.cross_entropy(logits, np.array([0, 3]))
    np.testing.assert_allclose(loss.data, np.log(4.0), atol=1e-12)


def test_cross_entropy_weights_scale_per_sample():
    logits = Tensor(np.zeros((2, 4)))
    loss = ad.cross_entropy(logits, np.array([0, 1]), weights=np.array([2.0, 0.0, 1.0, 1.0]))
    np.testing.assert_allclose(loss.data, np.log(4.0), atol=1e-12)  # mean of 2x and 0x


# ---------------------------------------------------------------------------
# tape mechanics


def test_ops_outside_tape_do_not_retain_graph():
    out = ad.add(Tensor([1.0]), Tensor([2.0]))
    assert out._backward is None and out.inputs == ()


def test_tapes_do_not_nest():
    with Tape():
        with pytest.raises(RuntimeError):
            with Tape():
                pass


def test_backward_requires_scalar():
    x = Tensor(np.ones(3))
    with Tape() as t:
        y = ad.scale(x, 2.0)
    with pytest.raises(DimensionError):
        t.backward(y)


def test_fanout_gradients_accumulate():
    x = Tensor([3.0])
    with Tape() as t:
        y = ad.mean(ad.add(ad.mul(x, x), x))  # x^2 + x -> 2x + 1 = 7
        t.backward(y)
    np.testing.assert_allclose(x.grad, [7.0], atol=1e-12)


def test_reverse_tape_matches_explicit_topological_order():
    # replay grads via a DFS topological order and compare against the
    # tape's reversed-execution-order walk
    def build(x, w1, w2):
        h = ad.gelu(ad.linear(x, w1))
        h2 = ad.add(h, x)  # skip connection creates fan-out
        return ad.mean(ad.linear(h2, w2))

    rng = np.random.default_rng(1)
    arrays = [rng.standard_normal((3, 4)), rng.standard_normal((4, 4)), rng.standard_normal((4, 2))]

    xs = [Tensor(a.copy()) for a in arrays]
    with Tape() as tape:
        out = build(*xs)
        tape.backward(out)
    tape_grads = [x.grad.copy() for x in xs]

    xs2 = [Tensor(a.copy()) for a in arrays]
    with Tape() as tape2:
        out2 = build(*xs2)
    # DFS postorder from the loss gives a topological order
    order, seen = [], set()

    def visit(node):
        if id(node) in seen:
            return
        seen.add(id(node))
        for parent in node.inputs:
            visit(parent)
        order.append(node)

    visit(out2)
    out2.grad = np.ones_like(out2.data)
    for node in reversed(order):
        if node.grad is not None and node._backward is not None:
            node._backward(node.grad)
    for g1, x2 in zip(tape_grads, xs2):
        np.testing.assert_allclose(g1, x2.grad, atol=1e-12)


def test_tape_runs_backward_once():
    x = Tensor([2.0])
    with Tape() as t:
        y = ad.mean(ad.mul(x, x))
    t.backward(y)
    with pytest.raises(RuntimeError):
        t.backward(y)
    np.testing.assert_allclose(x.grad, [4.0], atol=1e-12)  # not doubled


def test_backward_unlinks_nodes_and_held_intermediates_keep_grad():
    x = Tensor([1.0, 2.0, 3.0])
    with Tape() as t:
        h = ad.mul(x, x)
        y = ad.sum_(ad.scale(h, 0.5))
    t.backward(y)
    assert t.nodes == []
    np.testing.assert_allclose(h.grad, [0.5, 0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(x.grad, [1.0, 2.0, 3.0], atol=1e-12)
    for node in (h, y):
        assert node._backward is None and node.inputs == ()


def test_grad_accumulates_across_two_backwards():
    x = Tensor([1.0])
    for _ in range(2):
        with Tape() as t:
            y = ad.mean(ad.mul(x, x))
            t.backward(y)
    np.testing.assert_allclose(x.grad, [4.0], atol=1e-12)


def test_debug_checks_catch_nonfinite():
    with np.errstate(invalid="ignore"):
        with pytest.raises(FloatingPointError):
            ad.log(Tensor([-1.0]))


# ---------------------------------------------------------------------------
# dtype: float32 stays float32


def test_tensor_keeps_float32_and_widens_everything_else():
    x = np.ones(3, dtype=np.float32)
    assert Tensor(x).data is x
    assert Tensor(np.ones(3)).data.dtype == np.float64
    for other in ([1, 2], 1.5, np.arange(3), np.ones(2, dtype=np.float16)):
        assert Tensor(other).data.dtype == np.float64


def test_every_op_computes_forward_and_backward_in_float32():
    rng = np.random.default_rng(30)

    def f32(*shape):
        return Tensor(rng.standard_normal(shape).astype(np.float32))

    x, y, w = f32(2, 5, 8), f32(2, 5, 8), f32(8, 8)
    b, g = f32(8), f32(8)
    qkv = f32(2, 5, 24)
    w1, b1, w2, b2 = f32(8, 16), f32(16), f32(16, 8), f32(8)
    leaves = [x, y, w, b, g, qkv, w1, b1, w2, b2]
    with Tape() as tape:
        h = ad.layer_norm(ad.add(ad.sub(x, y), ad.mul(x, y)), g, b)
        h = ad.linear(ad.gelu(ad.tanh(ad.scale(h, 0.5))), w, b)
        h = ad.add(h, ad.multi_head_attention(qkv, 2))
        h = ad.add(h, ad.mlp(ad.exp(ad.scale(x, 0.1)), w1, b1, w2, b2))
        h = ad.concat([ad.narrow(h, 1, 0, 2), ad.narrow(h, 1, 2, 3)], axis=1)
        h = ad.gather_rows(h, np.array([[4, 0, 1], [2, 3, 3]]))
        h = ad.matmul(ad.transpose(ad.reshape(h, (2, 3, 8)), (0, 2, 1)), h)
        h = ad.softmax(ad.broadcast_to(ad.mean(h, axis=1, keepdims=True), (2, 3, 8)))
        logits = ad.reshape(ad.log(h), (6, 8))
        labels, weights = np.arange(6), np.linspace(0.5, 2.0, 8)  # float64 weights
        loss = ad.add(
            ad.cross_entropy(logits, labels, weights=weights),
            ad.sum_(ad.log_softmax(logits)),
        )
        nodes = list(tape.nodes)  # held here, so they keep their grads
        tape.backward(loss)
    for t in nodes + leaves:
        assert t.data.dtype == np.float32 and t.grad.dtype == np.float32


def test_operator_sugar_wraps_constants_in_the_tensors_dtype():
    x = Tensor(np.ones(2, dtype=np.float32))
    for out in (x * 2.0, 2.0 * x, x + 1, 1 - x, x - np.ones(2), -x):
        assert out.data.dtype == np.float32


def test_debug_checks_catch_an_op_that_widens_its_inputs():
    x = Tensor(np.ones(2, dtype=np.float32))
    # a numpy float64 scalar is strong under NEP 50: the result is float64
    with pytest.raises(TypeError, match="scale widened its inputs to float64"):
        ad.scale(x, np.float64(2.0))
    ad.scale(x, 2.0)  # a Python float is weak and keeps float32
    ad.add(x, Tensor(np.ones(2)))  # mixed inputs promote, as numpy does


# ---------------------------------------------------------------------------
# finite-difference certification, many shapes per op


def _shapes(n=20, max_rank=3, rng=None):
    rng = rng or np.random.default_rng(1234)
    out = []
    for _ in range(n):
        rank = int(rng.integers(1, max_rank + 1))
        out.append(tuple(int(rng.integers(1, 5)) for _ in range(rank)))
    return out


def _check(fn, args, tol=TOL):
    err = max_relative_error(fn, args)
    assert err < tol, f"relative error {err:.3e} exceeds {tol}"


def test_grad_add_sub_mul_broadcast():
    rng = np.random.default_rng(2)
    for shape in _shapes(7, rng=rng):
        a = rng.standard_normal(shape)
        b = rng.standard_normal(shape[-1:])  # broadcast over leading axes
        _check(lambda x, y: ad.mean(ad.add(x, y)), [a, b])
        _check(lambda x, y: ad.mean(ad.sub(x, y)), [a, b])
        _check(lambda x, y: ad.mean(ad.mul(x, y)), [a, b])


def test_grad_unary_ops():
    rng = np.random.default_rng(3)
    for shape in _shapes(7, rng=rng):
        a = rng.standard_normal(shape)
        _check(lambda x: ad.mean(ad.exp(x)), [a])
        _check(lambda x: ad.mean(ad.tanh(x)), [a])
        _check(lambda x: ad.mean(ad.gelu(x)), [a])
        _check(lambda x: ad.mean(ad.log(x)), [np.abs(a) + 0.5])


def test_grad_matmul_shapes():
    rng = np.random.default_rng(4)
    cases = []
    for _ in range(10):
        m, k, n = (int(rng.integers(1, 5)) for _ in range(3))
        cases.append((rng.standard_normal((m, k)), rng.standard_normal((k, n))))
    for _ in range(10):
        b, m, k, n = (int(rng.integers(1, 4)) for _ in range(4))
        cases.append((rng.standard_normal((b, m, k)), rng.standard_normal((b, k, n))))
    # broadcast: batched lhs against unbatched rhs
    cases.append((rng.standard_normal((3, 2, 4)), rng.standard_normal((4, 2))))
    for a, b in cases:
        _check(lambda x, y: ad.mean(ad.matmul(x, y)), [a, b])


def test_grad_linear():
    rng = np.random.default_rng(5)
    for _ in range(6):
        b, n, din, dout = (int(rng.integers(1, 5)) for _ in range(4))
        x = rng.standard_normal((b, n, din))
        w = rng.standard_normal((din, dout))
        bias = rng.standard_normal(dout)
        _check(lambda t, u, v: ad.mean(ad.linear(t, u, v)), [x, w, bias])


def test_grad_softmax_and_log_softmax():
    rng = np.random.default_rng(6)
    for shape in _shapes(6, rng=rng):
        if len(shape) == 1 and shape[0] == 1:
            continue
        a = rng.standard_normal(shape)
        w = rng.standard_normal(shape)
        _check(lambda x: ad.mean(ad.mul(ad.softmax(x), Tensor(w))), [a])
        _check(lambda x: ad.mean(ad.mul(ad.log_softmax(x), Tensor(w))), [a])


def test_grad_layer_norm():
    rng = np.random.default_rng(7)
    for _ in range(6):
        b, n, d = (int(rng.integers(2, 5)) for _ in range(3))
        x = rng.standard_normal((b, n, d))
        g = rng.standard_normal(d)
        bias = rng.standard_normal(d)
        _check(lambda t, u, v: ad.mean(ad.layer_norm(t, u, v)), [x, g, bias], tol=1e-4)


def test_grad_structural_ops():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((2, 3, 4))
    b = rng.standard_normal((2, 2, 4))
    w = rng.standard_normal((2, 5, 4))
    _check(lambda x: ad.mean(ad.reshape(x, (6, 4))), [a])
    _check(lambda x: ad.mean(ad.transpose(x, (2, 0, 1))), [a])
    _check(lambda x: ad.mean(ad.narrow(x, 1, 1, 2)), [a])
    _check(
        lambda x, y: ad.mean(ad.mul(ad.concat([x, y], axis=1), Tensor(w))),
        [a, b],
    )
    _check(lambda x: ad.mean(ad.broadcast_to(x, (5, 2, 3, 4))), [a])
    _check(lambda x: ad.sum_(ad.mul(x, x)), [a])


def test_grad_pick():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((4, 3))
    rows = np.array([0, 1, 2, 3, 0])  # repeated row exercises accumulation
    cols = np.array([2, 0, 1, 2, 2])
    _check(lambda x: ad.mean(ad.pick(x, rows, cols)), [a])


def test_pick_distinct_pairs_match_scatter_add_bit_for_bit():
    # one label per row (cross_entropy's case) takes the fancy-index path
    rng = np.random.default_rng(10)
    a = Tensor(rng.standard_normal((6, 5)).astype(np.float32))
    rows, cols = np.arange(6), np.array([4, 0, 2, 2, 1, 3])
    w = rng.standard_normal(6).astype(np.float32)
    with Tape() as tape:
        tape.backward(ad.sum_(ad.mul(ad.pick(a, rows, cols), Tensor(w))))
    want = np.zeros_like(a.data)
    np.add.at(want, (rows, cols), w)
    assert a.grad.tobytes() == want.tobytes()


def test_grad_gather_rows():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((3, 5, 2))
    idx = np.array([[0, 4, 4], [1, 2, 3], [2, 2, 2]])  # repeats accumulate
    w = rng.standard_normal((3, 3, 2))
    _check(lambda x: ad.mean(ad.mul(ad.gather_rows(x, idx), Tensor(w))), [a])


def test_grad_gather_rows_distinct_indices():
    # every row distinct takes the fancy-index path instead of np.add.at
    rng = np.random.default_rng(12)
    a = rng.standard_normal((3, 5, 2))
    idx = np.array([[4, 0, 2], [1, 2, 3], [3, 1, 0]])
    w = rng.standard_normal((3, 3, 2))
    _check(lambda x: ad.mean(ad.mul(ad.gather_rows(x, idx), Tensor(w))), [a])
    # and adds onto the gradient of a consumer recorded later (so run first)
    _check(lambda x: ad.add(ad.sum_(ad.gather_rows(x, idx)), ad.mean(ad.mul(x, x))), [a])


def test_grad_narrow_pieces_add_into_one_gradient():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((2, 4, 3))
    w = rng.standard_normal((2, 2, 3))

    def fn(x):
        first = ad.mean(ad.mul(ad.narrow(x, 1, 0, 2), Tensor(w)))
        overlap = ad.sum_(ad.narrow(x, 1, 1, 2))
        return ad.add(ad.add(first, overlap), ad.mean(ad.mul(x, x)))

    _check(fn, [a])


def test_gather_rows_forward_and_shape_guard():
    a = Tensor(np.arange(24.0).reshape(2, 4, 3))
    out = ad.gather_rows(a, np.array([[3, 0], [1, 1]]))
    np.testing.assert_array_equal(out.data[0, 0], [9.0, 10.0, 11.0])
    np.testing.assert_array_equal(out.data[1, 0], out.data[1, 1])
    with pytest.raises(DimensionError):
        ad.gather_rows(a, np.array([0, 1]))


_ATTENTION_GRID = [(1, (1, 3, 4)), (2, (2, 4, 8)), (4, (1, 5, 8))]


def test_grad_attention_multi_head():
    rng = np.random.default_rng(10)
    for heads, (b, n, d) in _ATTENTION_GRID:
        qkv = rng.standard_normal((b, n, 3 * d))
        w = rng.standard_normal((b, n, d))  # weights outputs unevenly, as a downstream projection would
        _check(
            lambda t: ad.mean(ad.mul(ad.multi_head_attention(t, heads=heads), Tensor(w))),
            [qkv],
            tol=1e-4,
        )


def test_grad_mlp():
    rng = np.random.default_rng(12)
    for _, (b, n, d) in _ATTENTION_GRID:
        x = rng.standard_normal((b, n, d))
        w1 = rng.standard_normal((d, 2 * d))
        b1 = rng.standard_normal(2 * d)
        w2 = rng.standard_normal((2 * d, d))
        b2 = rng.standard_normal(d)
        w = rng.standard_normal((b, n, d))
        _check(
            lambda *args: ad.mean(ad.mul(ad.mlp(*args), Tensor(w))),
            [x, w1, b1, w2, b2],
            tol=1e-4,
        )


def test_mlp_rejects_mismatched_widths():
    x, w1, b1 = Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((4, 8))), Tensor(np.zeros(8))
    with pytest.raises(DimensionError):
        ad.mlp(x, w1, b1, Tensor(np.zeros((6, 4))), Tensor(np.zeros(4)))


def test_grad_cross_entropy():
    rng = np.random.default_rng(11)
    logits = rng.standard_normal((6, 5))
    labels = rng.integers(0, 5, size=6)
    weights = rng.uniform(0.2, 1.5, size=5)
    _check(lambda x: ad.cross_entropy(x, labels), [logits])
    _check(lambda x: ad.cross_entropy(x, labels, weights=weights), [logits])
