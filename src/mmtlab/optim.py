"""AdamW with decoupled weight decay and a warmup + cosine-decay schedule,
and :func:`fit`, the one minibatch loop that supervised training and
masked-autoencoder pretraining share.

AdamW keeps its parameters and moments in one flat buffer each, as
multi-tensor optimizers do, so a step is a dozen vectorised numpy calls
rather than a dozen per tensor; it equals the per-tensor update bit for
bit."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .autodiff import Tape, Tensor
from .errors import ConfigError
from .rng import Stream


def lr_at_step(step: int, base_lr: float, warmup_steps: int, total_steps: int) -> float:
    """Linear warmup to base_lr, then half-cycle cosine decay to zero.

    ``step`` counts completed updates, so the first update uses step 0 and
    the schedule reaches exactly zero at ``total_steps``.
    """
    if total_steps <= 0:
        raise ConfigError("total_steps must be positive")
    if warmup_steps >= total_steps:
        raise ConfigError("warmup_steps must be smaller than total_steps")
    if step < warmup_steps:
        return base_lr * (step + 1) / warmup_steps
    progress = (step - warmup_steps) / (total_steps - warmup_steps)
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * min(progress, 1.0)))


_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # Adam's usual moment decays and guard


@dataclass
class AdamW:
    """Decoupled-weight-decay Adam over a fixed list of parameter tensors.

    Weight decay multiplies each parameter by (1 - lr*wd) before the Adam
    update; it never enters the moment estimates. Parameters listed in
    ``no_decay`` (gains, biases, single tokens) skip the decay term. A
    parameter whose grad is None does not move, and its moments do not
    decay.

    The optimizer takes over its parameters' storage: they live in one
    flat buffer (each tensor's ``data`` a view of it), decayed parameters
    first so weight decay is one slice, beside flat moments, and a step is
    one vectorised update instead of a Python loop over the tensors. Every
    element sees the same operations, in the same order and dtype, as the
    per-tensor update, so the result is the same bit for bit. The
    parameters must share one dtype; a mixed list raises ``TypeError``.
    """

    params: list[Tensor]
    base_lr: float
    warmup_steps: int
    total_steps: int
    weight_decay: float = 0.0
    no_decay: frozenset[int] = frozenset()
    step_count: int = 0

    def __post_init__(self):
        dtypes = sorted({str(p.data.dtype) for p in self.params})
        if len(dtypes) > 1:
            raise TypeError(f"AdamW needs one parameter dtype, got {' and '.join(dtypes)}")
        self._order = sorted(self.params, key=lambda p: id(p) in self.no_decay)
        self._n_decay = sum(p.data.size for p in self._order if id(p) not in self.no_decay)
        ends = np.cumsum([p.data.size for p in self._order])
        self._spans = [slice(int(e) - p.data.size, int(e)) for p, e in zip(self._order, ends)]
        self._p = np.concatenate([p.data.ravel() for p in self._order])
        for p, span in zip(self._order, self._spans):
            p.data = self._p[span].reshape(p.data.shape)
        self._m = np.zeros_like(self._p)
        self._v = np.zeros_like(self._p)

    @property
    def lr(self) -> float:
        return lr_at_step(self.step_count, self.base_lr, self.warmup_steps, self.total_steps)

    def step(self) -> float:
        """Apply one update from accumulated grads; returns the lr used."""
        lr = self.lr
        self.step_count += 1
        bc1 = 1.0 - _BETA1**self.step_count
        bc2 = 1.0 - _BETA2**self.step_count
        grads = [p.grad for p in self._order]
        absent = [span for span, g in zip(self._spans, grads) if g is None]
        if len(absent) == len(grads):
            return lr
        p, m, v = self._p, self._m, self._v
        # an absent grad's span is updated from zeros, then put back
        saved = [(span, p[span].copy(), m[span].copy(), v[span].copy()) for span in absent]
        g = np.concatenate(
            [np.zeros_like(p[span]) if gi is None else gi.ravel() for span, gi in zip(self._spans, grads)]
        )
        tmp = np.empty_like(p)
        if self.weight_decay:
            p[: self._n_decay] *= 1.0 - lr * self.weight_decay
        # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g
        m *= _BETA1
        m += np.multiply(g, 1.0 - _BETA1, out=tmp)
        v *= _BETA2
        np.multiply(g, 1.0 - _BETA2, out=tmp)
        tmp *= g
        v += tmp
        # p -= lr (m / bc1) / (sqrt(v / bc2) + eps)
        np.divide(v, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += _EPS
        np.divide(m, bc1, out=g)
        g *= lr
        g /= tmp
        p -= g
        for span, p0, m0, v0 in saved:
            p[span], m[span], v[span] = p0, m0, v0
        return lr

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None


def check_fit_settings(cfg) -> None:
    """Reject settings :func:`fit` cannot run: it reads epochs, batch_size,
    base_lr, weight_decay and warmup_frac from its config."""
    if cfg.epochs < 1 or cfg.batch_size < 1:
        raise ConfigError("epochs and batch_size must be positive")
    if cfg.base_lr <= 0.0:
        raise ConfigError("base_lr must be positive")
    if cfg.weight_decay < 0.0:
        raise ConfigError("weight_decay cannot be negative")
    if not 0.0 <= cfg.warmup_frac < 1.0:
        raise ConfigError("warmup_frac outside [0, 1)")


@dataclass
class FitResult:
    history: list  # per-epoch {"epoch", "loss", "lr"}
    steps: int
    kept: int  # samples visited per epoch
    seconds: float


def fit(
    param_sets: list,
    n: int,
    cfg,
    seed: int,
    batch_loss,
    new_epoch=None,
) -> FitResult:
    """Minimize ``batch_loss`` over ``n`` samples with AdamW.

    ``param_sets`` are the :class:`~mmtlab.model.ParamSet` objects to
    update. ``cfg`` supplies epochs, batch_size, base_lr, weight_decay and
    warmup_frac. Each epoch visits the samples in a fresh order from the
    "batch-order" stream of ``seed``, calls ``new_epoch(perm)`` if given,
    then for every batch records ``batch_loss(sel, span)`` on a tape and
    steps, where ``sel = perm[span]`` are the batch's sample positions.
    A non-finite loss raises ``FloatingPointError`` before any update.
    """
    started = time.time()
    plist, no_decay = [], set()
    for ps in param_sets:
        plist += ps.parameter_list()
        no_decay |= ps.no_decay_ids()
    total_steps = cfg.epochs * math.ceil(n / cfg.batch_size)
    opt = AdamW(
        plist,
        base_lr=cfg.base_lr,
        warmup_steps=min(max(1, int(cfg.warmup_frac * total_steps)), total_steps - 1),
        total_steps=total_steps,
        weight_decay=cfg.weight_decay,
        no_decay=frozenset(no_decay),
    )

    order_stream = Stream(seed, "batch-order")
    history = []
    for epoch in range(cfg.epochs):
        perm = list(range(n))
        order_stream.shuffle(perm)
        perm = np.asarray(perm)
        if new_epoch is not None:
            new_epoch(perm)
        epoch_loss = 0.0
        lr = opt.lr
        for lo in range(0, n, cfg.batch_size):
            span = slice(lo, lo + cfg.batch_size)
            sel = perm[span]
            with Tape() as tape:
                loss = batch_loss(sel, span)
                tape.backward(loss)
            if not np.isfinite(loss.data):
                raise FloatingPointError(f"non-finite loss at epoch {epoch}")
            lr = opt.step()
            opt.zero_grad()
            epoch_loss += float(loss.data) * len(sel)
        history.append({"epoch": epoch, "loss": epoch_loss / n, "lr": lr})
    return FitResult(history, total_steps, n, time.time() - started)
