"""AdamW with decoupled weight decay and a warmup + cosine-decay schedule,
and :func:`fit`, the one minibatch loop that supervised training and
masked-autoencoder pretraining share."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

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


@dataclass
class AdamW:
    """Decoupled-weight-decay Adam over a fixed list of parameter tensors.

    Weight decay multiplies each parameter by (1 - lr*wd) before the Adam
    update; it never enters the moment estimates. Parameters listed in
    ``no_decay`` (gains, biases, single tokens) skip the decay term.
    """

    params: list[Tensor]
    base_lr: float
    warmup_steps: int
    total_steps: int
    weight_decay: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    no_decay: frozenset[int] = frozenset()
    step_count: int = 0
    _m: list[np.ndarray] = field(default_factory=list)
    _v: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    @property
    def lr(self) -> float:
        return lr_at_step(self.step_count, self.base_lr, self.warmup_steps, self.total_steps)

    def step(self) -> float:
        """Apply one update from accumulated grads; returns the lr used."""
        lr = self.lr
        t = self.step_count + 1
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay and id(p) not in self.no_decay:
                p.data *= 1.0 - lr * self.weight_decay
            m = self._m[i]
            v = self._v[i]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
        self.step_count = t
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
