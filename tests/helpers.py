"""Shared miniature configurations, reference blocks and dtype probes for
fast tests."""

import math
from dataclasses import replace

import numpy as np

from mmtlab import autodiff as ad
from mmtlab.autodiff import Tape, Tensor
from mmtlab.model import ModelConfig
from mmtlab.optim import AdamW
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


def reference_attention(qkv, heads: int):
    """Packed multi-head attention built from autodiff primitives.

    Narrows q, k and v out of the (..., n, 3d) projection, splits heads
    with reshape/transpose, then matmul/scale/softmax/matmul and merges the
    heads back: the unfused composite that ``ad.multi_head_attention``
    must reproduce bit for bit.
    """
    d = qkv.shape[-1] // 3
    hd = d // heads

    def split(t):
        # (..., n, d) -> (..., heads, n, hd)
        n = t.shape[-2]
        r = ad.reshape(t, t.shape[:-2] + (n, heads, hd))
        order = tuple(range(r.data.ndim))
        return ad.transpose(r, order[:-3] + (order[-2], order[-3], order[-1]))

    qh, kh, vh = (split(ad.narrow(qkv, -1, i * d, d)) for i in range(3))
    nd = kh.data.ndim
    kt = ad.transpose(kh, tuple(range(nd - 2)) + (nd - 1, nd - 2))
    att = ad.softmax(ad.scale(ad.matmul(qh, kt), 1.0 / math.sqrt(hd)), axis=-1)
    mixed = ad.matmul(att, vh)  # (..., heads, n, hd)
    order = tuple(range(mixed.data.ndim))
    merged = ad.transpose(mixed, order[:-3] + (order[-2], order[-3], order[-1]))
    return ad.reshape(merged, qkv.shape[:-1] + (d,))


def reference_block(p, prefix: str, x, heads: int, eps: float):
    """``model.run_block`` built from autodiff primitives, without fused ops."""
    h = ad.layer_norm(x, p[f"{prefix}.ln1.g"], p[f"{prefix}.ln1.b"], eps=eps)
    qkv = ad.linear(h, p[f"{prefix}.wqkv"], p[f"{prefix}.bqkv"])
    att = ad.linear(reference_attention(qkv, heads), p[f"{prefix}.wo"])
    x = ad.add(x, ad.add(att, p[f"{prefix}.bo"]))
    h = ad.layer_norm(x, p[f"{prefix}.ln2.g"], p[f"{prefix}.ln2.b"], eps=eps)
    h = ad.linear(h, p[f"{prefix}.mlp.w1"], p[f"{prefix}.mlp.b1"])
    h = ad.gelu(h)
    h = ad.linear(h, p[f"{prefix}.mlp.w2"], p[f"{prefix}.mlp.b2"])
    return ad.add(x, h)


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
        seen.update(a.dtype for a in opt._m + opt._v + [p.data for p in opt.params])
        return lr

    monkeypatch.setattr(Tape, "backward", spy_backward)
    monkeypatch.setattr(AdamW, "step", spy_step)
    return seen
