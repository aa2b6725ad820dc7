"""Bottleneck fusion: where the two streams talk, and through how little.

Below the fusion layer each modality runs its own encoder stack. From
the fusion layer on, every block also sees a handful of shared
bottleneck tokens; those tokens are the only cross-modal channel. The
demo isolates that channel behaviorally, counts how much attention the
bottleneck saves over full self-attention, and runs both archs on the
same inputs and weights: ``ModelConfig.arch`` picks the forward pass.
"""

from dataclasses import replace

import numpy as np

from mmtlab.model import (
    MbtParameters,
    ModelConfig,
    attention_pairs,
    embed_content,
    forward,
)
from mmtlab.synthdata import SynthConfig, generate

scfg = SynthConfig()
ds = generate(scfg, seed=3, n=4, split="train")


def video_reaches_logits_via_exchange(fusion_layer: int) -> bool:
    """Silence the video head, then wiggle the video input.

    With the head silenced, logits can depend on video only through the
    bottleneck exchange into the audio branch. Noise (not a constant
    shift, which layer norm would absorb) makes the dependence visible.
    """
    cfg = ModelConfig(scfg.audio, scfg.video, fusion_layer=fusion_layer)
    p = MbtParameters.init(cfg, seed=7)
    for h in range(len(cfg.n_classes)):
        p[f"video.head.{h}.w"].data[:] = 0.0
        p[f"video.head.{h}.b"].data[:] = 0.0
    content = {m: embed_content(p, m, ds.patches(m)) for m in ("audio", "video")}
    base = [t.data.copy() for t in forward(p, content)]
    content["video"].data[:] += np.random.default_rng(99).standard_normal(
        content["video"].shape
    )
    moved = forward(p, content)
    return any(np.abs(b - m.data).max() > 1e-9 for b, m in zip(base, moved))


print("with the video head silenced, does video still move the logits?")
for lf in (0, 2, 4):
    layers_talking = max(0, 4 - lf)
    verdict = "yes, through the bottleneck" if video_reaches_logits_via_exchange(lf) else "no"
    print(f"  L_f={lf} ({layers_talking} exchanging layers): {verdict}")
print("L_f equal to the depth means the streams never meet, so the answer")
print("flips to no: all cross-modal traffic rides the bottleneck tokens.")

# --- the price of talking: attention pairs per forward -------------------
cfg = ModelConfig(scfg.audio, scfg.video, fusion_layer=0)
sa_cfg = replace(cfg, arch="full_sa")
bn = attention_pairs(cfg)
full = attention_pairs(sa_cfg)
print(f"\nattention pairs over {cfg.layers} layers: bottleneck {bn}, "
      f"full self-attention {full} ({full/bn:.2f}x)")
print(f"per fused layer: (1+16+{cfg.bottleneck})^2 + (1+32+{cfg.bottleneck})^2 "
      f"vs one (1+16+1+32)^2 sequence")

# --- both archs produce head-shaped logits on the same inputs ------------
p = MbtParameters.init(cfg, seed=0)
content = {m: embed_content(p, m, ds.patches(m)) for m in ("audio", "video")}
mbt_logits = forward(p, content)
sa_logits = forward(MbtParameters(sa_cfg, p.tensors), content)
for h, (a, b) in enumerate(zip(mbt_logits, sa_logits)):
    print(f"head {h}: bottleneck logits {a.shape}, full-SA logits {b.shape}")
