"""Random-replace training: the difference between collapsing and coping.

Two identical models train on identical data. One never sees a missing
modality; the other has its dominant modality swapped for the learned
token on a quarter of the samples each epoch. At test time the video
stream goes away for increasing fractions of the set, and the two
models part ways exactly as advertised: the baseline slides toward
chance while the token model holds most of its accuracy.

Runs the real desk configuration; expect a few minutes of CPU time.
"""

import numpy as np

from mmtlab.missing import MmtBank, SubstitutionMethod
from mmtlab.model import MbtParameters, ModelConfig
from mmtlab.protocol import evaluate, make_test_variants
from mmtlab.synthdata import SynthConfig, expected_accuracy, generate
from mmtlab.training import TrainConfig, train

SEED = 1
scfg = SynthConfig()
train_ds = generate(scfg, SEED, 2000, split="train")
test_ds = generate(scfg, SEED, 500, split="test")
mcfg = ModelConfig(scfg.audio, scfg.video)
rates = [0.0, 0.25, 0.5, 0.75, 1.0]
variants = make_test_variants(test_ds.missing["video"], rates, SEED)


def fit(tcfg):
    params = MbtParameters.init(mcfg, SEED)
    bank = MmtBank.init(mcfg.embed_dim, SEED)
    result = train(params, bank, train_ds, tcfg, SEED)
    print(f"  {result.steps} steps in {result.seconds:.0f}s, "
          f"final epoch loss {result.history[-1]['loss']:.4f}")
    return params, bank


print("training the modal-complete baseline...")
base, base_bank = fit(TrainConfig())
print("training with random-replace at p=0.25...")
mmt, mmt_bank = fit(TrainConfig(replace_probs={"video": 0.25}))

audio_bound = float(np.mean(expected_accuracy(scfg, ("audio",))))
print(f"\n{'r_test':>8} {'baseline(zeros)':>16} {'mmt model':>10}")
for r in rates:
    missing = {"audio": test_ds.missing["audio"], "video": variants[r]}
    b = evaluate(base, base_bank, test_ds, missing, SubstitutionMethod.ZEROS)["mean"]
    m = evaluate(mmt, mmt_bank, test_ds, missing, SubstitutionMethod.MMT)["mean"]
    print(f"{int(r*100):>7}% {b:>16.3f} {m:>10.3f}")
print(f"\nfor reference, the audio-only analytic ceiling is {audio_bound:.3f}:")
print("with video gone entirely, the token model keeps most of what the")
print("surviving modality supports, and the baseline does not.")
