"""Missingness schedules and the three substitution methods, side by side.

A test variant at rate r marks r% of samples as lacking the designated
modality, and higher rates strictly extend lower ones, so accuracy
changes along the grid come from more missing data rather than a
reshuffled pattern. At the forward pass a missing modality is either
zero-filled raw input, a learned token at every position, or dropped
from the computation entirely.
"""

import numpy as np

from mmtlab.missing import MmtBank, SubstitutionMethod
from mmtlab.model import MbtParameters, ModelConfig
from mmtlab.protocol import evaluate, make_test_variants
from mmtlab.synthdata import SynthConfig, build_schedule, generate
from mmtlab.training import TrainConfig, train

scfg = SynthConfig()

# --- 1. cumulative schedules nest ----------------------------------------
natural = np.zeros(1000, dtype=bool)
schedule = build_schedule(natural, seed=5, stream="demo/video")
rates = [0.0, 0.25, 0.5, 0.75, 1.0]
masks = {r: schedule.mask_at(r) for r in rates}
for lo, hi in zip(rates, rates[1:]):
    assert masks[hi][masks[lo]].all()
print("nesting: every sample missing at rate r stays missing at every higher rate")
print("counts along the grid:", [int(masks[r].sum()) for r in rates])

# --- 2. a quick model to compare methods on ------------------------------
train_ds = generate(scfg, seed=1, n=1500, split="train")
test_ds = generate(scfg, seed=1, n=400, split="test")
mcfg = ModelConfig(scfg.audio, scfg.video)
params = MbtParameters.init(mcfg, seed=1)
bank = MmtBank.init(mcfg.embed_dim, seed=1)
print("\ntraining a small model with random-replace (p=0.25, ~1 min)...")
train(params, bank, train_ds, TrainConfig(epochs=12, replace_probs={"video": 0.25}), seed=1)

variants = make_test_variants(test_ds.missing["video"], rates, seed=1)
print(f"{'r_test':>8} {'zeros':>8} {'mmt':>8} {'skip':>8}")
for r in rates:
    missing = {"audio": test_ds.missing["audio"], "video": variants[r]}
    row = []
    for method in ("zeros", "mmt", "skip"):
        res = evaluate(params, bank, test_ds, missing, SubstitutionMethod.parse(method))
        row.append(res["mean"])
    print(f"{int(r*100):>7}% {row[0]:>8.3f} {row[1]:>8.3f} {row[2]:>8.3f}")
print("zeros collapses toward chance as the rate grows; the trained token")
print("and skip both preserve the present modality's value, and the token")
print("does it without changing the computation graph.")

# --- 3. what each method actually feeds the encoder ----------------------
from mmtlab.missing import replace_with_mmt, substitute
from mmtlab.model import embed_content

patches = test_ds.patches("video")[:2]
flags = {"video": np.array([True, False])}
emb = embed_content(params, "video", patches)
zeros = substitute(params, bank, {"video": patches}, flags, SubstitutionMethod.ZEROS)["video"].data
silent = embed_content(params, "video", np.zeros_like(patches)).data
print(f"\nzeros: sample 0 embeds as all-zero patches would (max delta "
      f"{np.abs(zeros[0] - silent[0]).max():.0f}), which is the embedding bias at every "
      f"position; sample 1 unchanged (max delta {np.abs(zeros[1] - emb.data[1]).max():.0f})")
swapped = replace_with_mmt(bank, "video", emb, flags["video"])
tok = swapped.data[0]
print(f"mmt: every position of sample 0 becomes the token (spread over positions "
      f"{np.ptp(tok, axis=0).max():.4f}; positions are added afterwards), "
      f"sample 1 unchanged (max delta {np.abs(swapped.data[1] - emb.data[1]).max():.0f})")
