import math

import numpy as np
import pytest

from mmtlab.autodiff import Tensor
from mmtlab.errors import ConfigError
from mmtlab.optim import AdamW, lr_at_step

from helpers import LoopAdamW


def test_first_step_moves_unit_gradient_by_lr():
    # bias correction makes the very first update exactly lr * sign(g)
    p = Tensor([1.0])
    opt = AdamW([p], base_lr=0.1, warmup_steps=1, total_steps=10**9, weight_decay=0.0)
    p.grad = np.array([1.0])
    opt.step()
    np.testing.assert_allclose(p.data, [0.9], atol=1e-9)


def test_decoupled_decay_shrinks_before_update():
    p = Tensor([2.0])
    opt = AdamW([p], base_lr=0.5, warmup_steps=1, total_steps=10**9, weight_decay=0.1)
    p.grad = np.array([0.0])
    opt.step()
    # zero gradient: only the decay factor applies
    np.testing.assert_allclose(p.data, [2.0 * (1 - 0.5 * 0.1)], atol=1e-12)


def test_no_decay_set_exempts_parameter():
    p = Tensor([2.0])
    q = Tensor([2.0])
    opt = AdamW(
        [p, q], base_lr=0.5, warmup_steps=1, total_steps=10**9,
        weight_decay=0.1, no_decay=frozenset([id(q)]),
    )
    p.grad = np.array([0.0])
    q.grad = np.array([0.0])
    opt.step()
    assert p.data[0] < 2.0
    assert q.data[0] == 2.0


def test_none_grad_is_a_noop():
    p = Tensor([1.0])
    opt = AdamW([p], base_lr=0.1, warmup_steps=1, total_steps=100, weight_decay=0.1)
    opt.step()
    np.testing.assert_allclose(p.data, [1.0], atol=0)


def test_schedule_warmup_then_cosine():
    base, warm, total = 0.8, 10, 50
    # warmup is linear and hits base_lr on the last warmup step
    np.testing.assert_allclose(lr_at_step(0, base, warm, total), base / 10)
    np.testing.assert_allclose(lr_at_step(4, base, warm, total), base / 2)
    np.testing.assert_allclose(lr_at_step(9, base, warm, total), base)
    # midpoint of the cosine half-cycle is base/2, end is zero
    np.testing.assert_allclose(lr_at_step(30, base, warm, total), base / 2, atol=1e-12)
    np.testing.assert_allclose(lr_at_step(50, base, warm, total), 0.0, atol=1e-15)
    # monotone non-increasing across the decay phase
    lrs = [lr_at_step(s, base, warm, total) for s in range(10, 51)]
    assert all(a >= b for a, b in zip(lrs, lrs[1:]))


def test_schedule_rejects_bad_config():
    with pytest.raises(ConfigError):
        lr_at_step(0, 0.1, 10, 10)
    with pytest.raises(ConfigError):
        lr_at_step(0, 0.1, 0, 0)


def test_adamw_converges_on_quadratic():
    # minimize (p - 3)^2; a few hundred steps should land close
    p = Tensor([0.0])
    opt = AdamW([p], base_lr=0.1, warmup_steps=5, total_steps=400)
    for _ in range(400):
        p.grad = 2.0 * (p.data - 3.0)
        opt.step()
    np.testing.assert_allclose(p.data, [3.0], atol=1e-2)


def test_lr_used_follows_schedule():
    p = Tensor([0.0])
    opt = AdamW([p], base_lr=1.0, warmup_steps=2, total_steps=4)
    p.grad = np.array([1.0])
    used = [opt.step() for _ in range(4)]
    expected = [lr_at_step(s, 1.0, 2, 4) for s in range(4)]
    np.testing.assert_allclose(used, expected)
    assert math.isclose(used[0], 0.5) and math.isclose(used[1], 1.0)


def _params(rng, dtype):
    """Tensors of several shapes, decayed and no-decay alike."""
    shapes = [(3, 4), (4,), (2, 3, 2), (5,), (1,), (6, 2)]
    return [rng.standard_normal(s).astype(dtype) for s in shapes]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_flat_update_equals_the_per_tensor_loop_bit_for_bit(dtype):
    rng = np.random.default_rng(5)
    init = _params(rng, dtype)
    flat = [Tensor(a.copy()) for a in init]
    loop = [Tensor(a.copy()) for a in init]
    kw = dict(base_lr=0.05, warmup_steps=2, total_steps=9, weight_decay=0.1)
    opt = AdamW(flat, no_decay=frozenset(id(flat[i]) for i in (1, 3, 4)), **kw)
    oracle = LoopAdamW(loop, no_decay=frozenset(id(loop[i]) for i in (1, 3, 4)), **kw)
    for step in range(7):
        # tensor 2 (decayed) and tensor 4 (no decay) have no grad on some steps
        absent = {2, 4} if step in (1, 2) else {4} if step == 5 else set()
        before = [t.data.copy() for t in flat]
        for i, a in enumerate(init):
            g = None if i in absent else (rng.standard_normal(a.shape) * 10.0**i).astype(dtype)
            flat[i].grad = g
            loop[i].grad = None if g is None else g.copy()
        assert opt.step() == oracle.step()
        for i, (f, o) in enumerate(zip(flat, loop)):
            assert f.data.dtype == dtype and f.data.shape == init[i].shape
            assert np.array_equal(f.data, o.data), (step, i)
            if i in absent:
                assert np.array_equal(f.data, before[i])
        opt.zero_grad()
        assert all(t.grad is None for t in flat)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_the_parameters_become_views_of_one_buffer(dtype):
    a, b, c = (Tensor(np.ones(s, dtype)) for s in (3, 2, (2, 2)))
    opt = AdamW([a, b, c], base_lr=0.1, warmup_steps=1, total_steps=10, weight_decay=0.5)
    assert a.data.base is b.data.base is c.data.base is not None
    for t in (a, b, c):
        t.grad = np.ones_like(t.data)
    opt.step()
    # lr * m_hat / (sqrt(v_hat) + eps) with m_hat = v_hat = 1 after decay by lr * wd
    want = dtype(1.0 - 0.1 * 0.5) - dtype(0.1) / (dtype(1.0) + dtype(1e-8))
    assert a.data[0] == b.data[1] == c.data[0, 0] == want


def test_mixed_dtypes_fail_at_construction():
    a, b = Tensor(np.ones(3, np.float32)), Tensor(np.ones(2))
    with pytest.raises(TypeError, match="float32 and float64"):
        AdamW([a, b], base_lr=0.1, warmup_steps=1, total_steps=10)
    assert a.data.base is None and b.data.base is None  # neither was taken over
