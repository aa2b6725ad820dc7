"""Shared miniature configurations, reference ops and blocks, and dtype
probes for fast tests."""

import math
from dataclasses import replace

import numpy as np

from mmtlab import autodiff as ad
from mmtlab.autodiff import Tape, Tensor
from mmtlab.model import ModelConfig
from mmtlab.optim import _BETA1, _BETA2, _EPS, AdamW, lr_at_step
from mmtlab.synthdata import SynthConfig
from mmtlab.tokenizer import SpectrogramGeometry, VideoGeometry

MICRO_AUDIO = SpectrogramGeometry(bins=8, frames=8, patch_bins=4, patch_frames=4)
MICRO_VIDEO = VideoGeometry(frames=2, height=8, width=8, patch_t=2, patch_h=4, patch_w=4)


def micro_synth_config(**overrides) -> SynthConfig:
    base = dict(
        audio=MICRO_AUDIO,
        video=MICRO_VIDEO,
        n_classes=(4, 3),
        gains={"audio": (3.0, 0.8), "video": (1.6, 3.2)},
    )
    base.update(overrides)
    return SynthConfig(**base)


def micro_model_config(**overrides) -> ModelConfig:
    base = dict(
        audio=MICRO_AUDIO,
        video=MICRO_VIDEO,
        embed_dim=16,
        layers=2,
        heads=2,
        mlp_ratio=2,
        fusion_layer=1,
        bottleneck=2,
        n_classes=(4, 3),
    )
    base.update(overrides)
    return ModelConfig(**base)


def sum_(a: Tensor) -> Tensor:
    """Sum of every element: a scalar to run a tape's backward from in
    gradchecks and gradient tests."""
    out = Tensor(a.data.sum(), (a,))

    def backward(g):
        a.accumulate_owned(np.broadcast_to(g, a.shape).copy())

    out._backward = backward
    return ad._record(out)


def select_rows(x, rows):
    """Rows ``rows`` (1-D) of every sample of a (batch, n, d) tensor, as one
    ``gather_rows``."""
    return ad.gather_rows(x, np.broadcast_to(rows, (x.shape[0], len(rows))))


def reference_attention(qkv, heads: int, rows=None):
    """Packed multi-head attention built from autodiff primitives.

    Narrows q, k and v out of the (batch, n, 3d) projection, splits heads
    with reshape/transpose, then matmul/scale/softmax/matmul and merges the
    heads back: the unfused composite that ``ad.multi_head_attention``
    must reproduce bit for bit. With ``rows``, the queries are those rows
    of q, selected before the heads are split.
    """
    d = qkv.shape[-1] // 3
    hd = d // heads

    def split(t):
        # (..., n, d) -> (..., heads, n, hd)
        n = t.shape[-2]
        r = ad.reshape(t, t.shape[:-2] + (n, heads, hd))
        order = tuple(range(r.data.ndim))
        return ad.transpose(r, order[:-3] + (order[-2], order[-3], order[-1]))

    q, k, v = (ad.narrow(qkv, -1, i * d, d) for i in range(3))
    if rows is not None:
        q = select_rows(q, rows)
    qh, kh, vh = split(q), split(k), split(v)
    nd = kh.data.ndim
    kt = ad.transpose(kh, tuple(range(nd - 2)) + (nd - 1, nd - 2))
    att = ad.softmax(ad.scale(ad.matmul(qh, kt), 1.0 / math.sqrt(hd)))
    mixed = ad.matmul(att, vh)  # (..., heads, n, hd)
    order = tuple(range(mixed.data.ndim))
    merged = ad.transpose(mixed, order[:-3] + (order[-2], order[-3], order[-1]))
    return ad.reshape(merged, merged.shape[:-2] + (d,))


def reference_block(p, prefix: str, x, heads: int, eps: float, rows=None):
    """``model.run_block`` built from autodiff primitives, without fused ops."""
    h = ad.layer_norm(x, p[f"{prefix}.ln1.g"], p[f"{prefix}.ln1.b"], eps=eps)
    qkv = ad.linear(h, p[f"{prefix}.wqkv"], p[f"{prefix}.bqkv"])
    att = ad.linear(reference_attention(qkv, heads, rows), p[f"{prefix}.wo"])
    if rows is not None:
        x = select_rows(x, rows)
    x = ad.add(x, ad.add(att, p[f"{prefix}.bo"]))
    h = ad.layer_norm(x, p[f"{prefix}.ln2.g"], p[f"{prefix}.ln2.b"], eps=eps)
    h = ad.linear(h, p[f"{prefix}.mlp.w1"], p[f"{prefix}.mlp.b1"])
    h = ad.gelu(h)
    h = ad.linear(h, p[f"{prefix}.mlp.w2"], p[f"{prefix}.mlp.b2"])
    return ad.add(x, h)


class LoopAdamW:
    """AdamW as a Python loop over the tensors, one update each: the
    oracle the flat :class:`~mmtlab.optim.AdamW` must equal bit for bit.
    Same arguments; a tensor whose grad is None is skipped, moments and
    all."""

    def __init__(self, params, base_lr, warmup_steps, total_steps, weight_decay=0.0,
                 no_decay=frozenset()):
        self.params, self.weight_decay, self.no_decay = params, weight_decay, no_decay
        self.schedule = (base_lr, warmup_steps, total_steps)
        self.step_count = 0
        self._m = [np.zeros_like(p.data) for p in params]
        self._v = [np.zeros_like(p.data) for p in params]

    @property
    def lr(self) -> float:
        return lr_at_step(self.step_count, *self.schedule)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> float:
        lr = self.lr
        t = self.step_count + 1
        bc1 = 1.0 - _BETA1**t
        bc2 = 1.0 - _BETA2**t
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay and id(p) not in self.no_decay:
                p.data *= 1.0 - lr * self.weight_decay
            m = self._m[i]
            v = self._v[i]
            m *= _BETA1
            m += (1.0 - _BETA1) * g
            v *= _BETA2
            v += (1.0 - _BETA2) * g * g
            p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + _EPS)
        self.step_count = t
        return lr


def float64_params(ps):
    """``ps`` with every tensor widened to float64, an exact copy of its
    values: exact-value tests compare against float64 arithmetic."""
    wide = {k: Tensor(t.data.astype(np.float64)) for k, t in ps.tensors.items()}
    return replace(ps, tensors=wide)


def record_dtypes(monkeypatch) -> set:
    """Turn on debug checks and spy on ``Tape.backward`` and ``AdamW.step``
    for the rest of a test.

    An op that widens its inputs then raises, and the returned set fills
    with the dtype of every tape node and each of its inputs, every
    gradient they hold after backward, and every parameter and AdamW
    moment after each step.
    """
    monkeypatch.setattr(ad, "_DEBUG_CHECKS", True)
    seen = set()
    backward, step = Tape.backward, AdamW.step

    def spy_backward(tape, loss):
        # backward consumes the tape, so hold every node and input first
        held = [t for node in tape.nodes for t in (node, *node.inputs)]
        backward(tape, loss)
        for t in held:
            seen.add(t.data.dtype)
            if t.grad is not None:
                seen.add(t.grad.dtype)

    def spy_step(opt):
        seen.update(p.grad.dtype for p in opt.params if p.grad is not None)
        lr = step(opt)
        seen.update((opt._m.dtype, opt._v.dtype))
        seen.update(p.data.dtype for p in opt.params)
        return lr

    monkeypatch.setattr(Tape, "backward", spy_backward)
    monkeypatch.setattr(AdamW, "step", spy_step)
    return seen


def record_dead_nodes(monkeypatch) -> list:
    """Spy on ``Tape.backward`` for the rest of a test.

    Before each backward, the returned list gets the op names of the tape
    nodes that the loss does not depend on, found by walking the graph
    back from the loss: work recorded for nothing.
    """
    dead = []
    backward = Tape.backward

    def spy(tape, loss):
        live, stack = set(), [loss]
        while stack:
            t = stack.pop()
            if id(t) not in live:
                live.add(id(t))
                stack.extend(t.inputs)
        unread = [n for n in tape.nodes if id(n) not in live]
        dead.append([n._backward.__qualname__.split(".")[0] for n in unread])
        backward(tape, loss)

    monkeypatch.setattr(Tape, "backward", spy)
    return dead


def record_constants(monkeypatch, plain: bool = False) -> list:
    """Spy on ``autodiff.Constant`` for the rest of a test.

    The returned list fills with every data leaf made (input patches, blend
    masks, targets, class weights). With ``plain`` they are made as
    ordinary tensors, which take a gradient like any other.
    """
    made = []
    cls = Tensor if plain else ad.Constant

    def make(data):
        t = cls(data)
        made.append(t)
        return t

    monkeypatch.setattr(ad, "Constant", make)
    return made


def record_step_grads(monkeypatch) -> list:
    """Spy on ``AdamW.step`` for the rest of a test: before each step, the
    returned list gets a copy of every parameter's gradient, in the
    optimizer's order (None where a parameter has none)."""
    grads = []
    step = AdamW.step

    def spy(opt):
        grads.append([None if p.grad is None else p.grad.copy() for p in opt.params])
        return step(opt)

    monkeypatch.setattr(AdamW, "step", spy)
    return grads
