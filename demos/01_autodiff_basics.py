"""Tour of the tensor core: tapes, gradients, and a two-line sanity oracle.

Everything downstream (attention, fusion, the MMT) runs on this engine,
so the demo shows the three things worth trusting early: reverse-mode
gradients agree with finite differences, fan-out accumulates additively,
and the AdamW + cosine schedule drives a tiny regression to near zero.
"""

import numpy as np

from mmtlab import autodiff as ad
from mmtlab.autodiff import Tape, Tensor
from mmtlab.gradcheck import max_relative_error
from mmtlab.optim import AdamW

rng = np.random.default_rng(0)

# --- 1. a tape records forward ops; backward replays it in reverse -------
x = Tensor(rng.normal(size=(3, 4)))
w = Tensor(rng.normal(size=(4, 2)))
with Tape() as tape:
    y = ad.matmul(x, w)
    loss = ad.mean(ad.mul(y, y))
    tape.backward(loss)
print(f"loss {loss.data.item():.6f}")
print(f"dL/dw has shape {w.grad.shape}, first row {np.round(w.grad[0], 4)}")

# --- 2. the finite-difference oracle catches wrong backward rules --------
err = max_relative_error(
    lambda a, b: ad.mean(ad.gelu(ad.matmul(a, b))),
    [rng.normal(size=(5, 3)), rng.normal(size=(3, 6))],
)
print(f"gelu(matmul) max relative error vs central differences: {err:.2e}")

# --- 3. fan-out: one tensor feeding two ops accumulates both gradients ---
a = Tensor([2.0])
with Tape() as tape:
    double_use = ad.add(ad.mul(a, a), ad.scale(a, 3.0))  # a^2 + 3a
    tape.backward(double_use)
print(f"d(a^2 + 3a)/da at a=2: {a.grad.item():.1f} (expect 7.0)")

# --- 4. minimal training loop: fit y = x @ w_true with AdamW -------------
w_true = rng.normal(size=(4, 1))
inputs = rng.normal(size=(64, 4))
targets = inputs @ w_true
w_hat = Tensor(np.zeros((4, 1)))
opt = AdamW([w_hat], base_lr=0.1, warmup_steps=5, total_steps=200)
for step in range(200):
    with Tape() as tape:
        pred = ad.matmul(Tensor(inputs), w_hat)
        diff = ad.sub(pred, Tensor(targets))
        loss = ad.mean(ad.mul(diff, diff))
        tape.backward(loss)
    opt.step()
    opt.zero_grad()
print(f"regression loss after 200 steps: {loss.data.item():.2e}")
print(f"recovered weights within {np.abs(w_hat.data - w_true).max():.2e} of the truth")
