import math

import numpy as np
import pytest

from mmtlab import autodiff as ad
from mmtlab.autodiff import Tape, Tensor
from mmtlab.errors import ConfigError, DimensionError
from mmtlab.gradcheck import max_relative_error

from helpers import reference_attention

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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softmax_matches_a_float64_row_max_reference(dtype):
    # rows are shifted by their matrix's max, which rounds each logit to
    # about eps times its distance from that max; a row still above the
    # guard lies at most -log(guard) below it (44 in float32, 354 in float64)
    guard = math.sqrt(np.finfo(dtype).tiny)
    tol = np.finfo(dtype).eps * -math.log(guard)
    rng = np.random.default_rng(21)
    x = 3 * rng.standard_normal((2, 3, 6, 6))
    x[0, 1, 2] = 0.5  # a constant row
    # rows far below their matrix's max: each matrix shift leaves their
    # exponentials summing below the guard (200 does so in float32 only)
    x[1, 0, 4] = x[1, 0].max() - 200 + rng.standard_normal(6)
    x[1, 2, 1] = x[1, 2].max() - 1000 + rng.standard_normal(6)
    x2 = 3 * rng.standard_normal((5, 7))
    x2[3] = x2.max() - 200 + rng.standard_normal(7)
    guarded = 0
    for a in (x, x2, 3 * rng.standard_normal(7)):
        a = a.astype(dtype)
        wide = a.astype(np.float64)
        if a.ndim > 1:
            shifted = wide - wide.max(axis=(-2, -1), keepdims=True)
            guarded += int((np.exp(shifted.astype(dtype)).sum(axis=-1) < guard).sum())
        e = np.exp(wide - wide.max(axis=-1, keepdims=True))
        want = e / e.sum(axis=-1, keepdims=True)
        got = ad.softmax(Tensor(a)).data
        assert got.dtype == dtype
        np.testing.assert_allclose(got, want, rtol=0, atol=tol)
        np.testing.assert_allclose(got.sum(axis=-1), 1.0, rtol=0, atol=tol)
    constant = ad.softmax(Tensor(x.astype(dtype))).data[0, 1, 2]
    assert np.all(constant == constant[0])
    assert guarded == (3 if dtype == np.float32 else 1)


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


def test_layer_norm_in_place_matches_the_float64_expression():
    # the means are BLAS row sums, so they round in BLAS order, not numpy's
    rng = np.random.default_rng(13)
    inputs = (rng.standard_normal((3, 5, 8)), rng.standard_normal((3, 5, 8)))
    inputs += (rng.standard_normal(8), rng.standard_normal(8))
    for dtype in (np.float32, np.float64):
        tol = 8 * np.finfo(dtype).eps
        xt, g_out, gt, bt = (Tensor(a.astype(dtype)) for a in inputs)
        with Tape() as tape:
            out = ad.layer_norm(xt, gt, bt)
            tape.backward(ad.sum_(ad.mul(out, g_out)))
        # the same values, widened exactly
        x, g, gain, bias = (t.data.astype(np.float64) for t in (xt, g_out, gt, bt))
        xc = x - x.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + 1e-5)
        xhat = xc * inv
        gh = g * gain
        dx = inv * (gh - gh.mean(axis=-1, keepdims=True) - xhat * (gh * xhat).mean(axis=-1, keepdims=True))
        want = (xhat * gain + bias, dx, (g * xhat).sum(axis=(0, 1)), g.sum(axis=(0, 1)))
        for got, ref in zip((out.data, xt.grad, gt.grad, bt.grad), want):
            assert got.dtype == dtype
            np.testing.assert_allclose(got, ref, rtol=tol, atol=tol * np.abs(ref).max())


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
    big = Tensor(np.array([3e38], dtype=np.float32))
    with np.errstate(over="ignore"):
        with pytest.raises(FloatingPointError):
            ad.mul(big, big)  # overflows float32 to inf


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
        h = ad.linear(ad.gelu(ad.scale(h, 0.5)), w, b)
        h = ad.add(h, ad.multi_head_attention(qkv, 2))
        h = ad.add(h, ad.mlp(ad.scale(x, 0.1), w1, b1, w2, b2))
        h = ad.concat([ad.narrow(h, 1, 0, 2), ad.narrow(h, 1, 2, 3)], axis=1)
        h = ad.gather_rows(h, np.array([[4, 0, 1], [2, 3, 3]]))
        h = ad.matmul(ad.transpose(ad.reshape(h, (2, 3, 8)), (0, 2, 1)), h)
        h = ad.softmax(ad.add(ad.narrow(h, 1, 0, 3), ad.broadcast_to(ad.mean(h), (2, 3, 8))))
        logits = ad.reshape(h, (6, 8))
        labels, weights = np.arange(6), np.linspace(0.5, 2.0, 8)  # float64 weights
        loss = ad.add(
            ad.cross_entropy(logits, labels, weights=weights),
            ad.sum_(ad.log_softmax(logits)),
        )
        nodes = list(tape.nodes)  # held here, so they keep their grads
        tape.backward(loss)
    for t in nodes + leaves:
        assert t.data.dtype == np.float32 and t.grad.dtype == np.float32


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
        _check(lambda x: ad.mean(ad.gelu(x)), [a])


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


def test_narrow_and_broadcast_to_return_views():
    a = Tensor(np.arange(24.0).reshape(2, 3, 4))
    piece = ad.narrow(a, 1, 1, 2)
    assert np.shares_memory(piece.data, a.data)
    np.testing.assert_array_equal(piece.data, a.data[:, 1:3])
    row = Tensor(np.arange(4.0, dtype=np.float32))
    wide = ad.broadcast_to(row, (3, 4))
    assert wide.data.dtype == np.float32 and np.shares_memory(wide.data, row.data)
    np.testing.assert_array_equal(wide.data, np.tile(row.data, (3, 1)))
    with pytest.raises(ValueError):  # one element stands for a whole column
        wide.data[0, 0] = 1.0


def test_gradients_through_a_broadcast_view_match_a_copy_bit_for_bit():
    # the MAE encoder narrows and gathers rows of a broadcast positional
    # table; the gradient buffers behind the view must sum as a copy's do
    rng = np.random.default_rng(14)
    b, n, d = 64, 9, 16
    pos = rng.standard_normal((1, n, d)).astype(np.float32)
    idx = np.argsort(rng.uniform(size=(b, n)), axis=1)[:, :5]
    w1, w2 = (rng.standard_normal(s).astype(np.float32) for s in ((b, 1, d), (b, 5, d)))

    def pos_grad(copy: bool):
        p = Tensor(pos.copy())
        with Tape() as tape:
            full = ad.broadcast_to(p, (b, n, d))
            if copy:
                full = ad.add(full, Tensor(np.zeros((b, n, d), dtype=np.float32)))
            head = ad.mean(ad.mul(ad.narrow(full, 1, 0, 1), Tensor(w1)))
            rows = ad.mean(ad.mul(ad.gather_rows(full, idx), Tensor(w2)))
            loss = ad.add(head, rows)
        tape.backward(loss)
        return p.grad

    assert pos_grad(copy=False).tobytes() == pos_grad(copy=True).tobytes()


@pytest.mark.parametrize(
    "shape, target",
    [
        pytest.param((16,), (64, 1, 16), id="cls"),
        pytest.param((16,), (64, 21, 16), id="token"),
        pytest.param((4, 16), (64, 4, 16), id="bottleneck"),
        pytest.param((22, 16), (64, 22, 16), id="positions"),
    ],
)
def test_broadcasting_a_parameter_equals_reshape_then_broadcast(shape, target):
    # the model broadcasts its CLS, token, bottleneck and position
    # parameters as they are; numpy prepends the batch axes
    rng = np.random.default_rng(15)
    value = rng.standard_normal(shape).astype(np.float32)
    w = rng.standard_normal(target).astype(np.float32)

    def run(reshape_first: bool):
        p = Tensor(value.copy())
        with Tape() as tape:
            src = ad.reshape(p, (1,) * (len(target) - len(shape)) + shape) if reshape_first else p
            out = ad.broadcast_to(src, target)
            tape.backward(ad.sum_(ad.mul(out, Tensor(w))))
        return np.ascontiguousarray(out.data), p.grad

    (direct, g_direct), (via, g_via) = run(False), run(True)
    assert direct.tobytes() == via.tobytes()
    assert g_direct.shape == shape and g_direct.tobytes() == g_via.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("heads", [1, 2, 4])
def test_attention_equals_the_softmax_composite_bit_for_bit(heads, dtype):
    rng = np.random.default_rng(16)
    b, n = 3, 5
    d = heads * n

    def run(op, qkv, w):
        x = Tensor(qkv.copy())
        with Tape() as tape:
            out = op(x, heads)
            tape.backward(ad.sum_(ad.mul(out, Tensor(w))))
        return out.data, x.grad

    # values that are one-hot per head and key (head width n) make the
    # output the attention probabilities themselves, exactly
    qkv = rng.standard_normal((b, n, 3 * d)).astype(dtype)
    qkv[..., 2 * d :] = np.tile(np.eye(n, dtype=dtype), (1, heads))
    w = rng.standard_normal((b, n, d)).astype(dtype)
    fused, composite = run(ad.multi_head_attention, qkv, w), run(reference_attention, qkv, w)
    assert fused[0].tobytes() == composite[0].tobytes()
    assert np.allclose(fused[0].reshape(b, n, heads, n).sum(axis=-1), 1.0)
    assert fused[1].tobytes() == composite[1].tobytes()
    # and with random values, the output and the qkv gradient
    qkv = rng.standard_normal((b, n, 3 * d)).astype(dtype)
    fused, composite = run(ad.multi_head_attention, qkv, w), run(reference_attention, qkv, w)
    for got, want in zip(fused, composite):
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()


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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_mlp_equals_linear_gelu_linear_bit_for_bit(dtype):
    rng = np.random.default_rng(13)
    b, n, d, hidden = 3, 7, 16, 32
    shapes = [(b, n, d), (d, hidden), (hidden,), (hidden, d), (d,)]
    arrays = [rng.standard_normal(s).astype(dtype) for s in shapes]
    w = rng.standard_normal((b, n, d)).astype(dtype)

    def run(op):
        inputs = [Tensor(a.copy()) for a in arrays]
        with Tape() as tape:
            out = op(*inputs)
            loss = ad.mean(ad.mul(out, Tensor(w)))
        tape.backward(loss)
        return [out.data] + [t.grad for t in inputs]

    def composite(x, w1, b1, w2, b2):
        return ad.linear(ad.gelu(ad.linear(x, w1, b1)), w2, b2)

    fused, reference = run(ad.mlp), run(composite)
    for got, want in zip(fused, reference):  # output, then the five gradients
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()


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
