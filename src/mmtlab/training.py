"""Supervised training loop for the two-stream classifier.

One call to :func:`train` owns all randomness for a run through named
streams of the run seed: "batch-order" shuffles epochs, "train-missing/*"
fixes which samples count as incomplete under an induced rate, and
"random-replace" draws the per-epoch substitutions. Two calls with the
same arguments produce bit-identical parameters.

Only the modalities the model's arch reads are embedded. Content comes
from :func:`mmtlab.missing.substitute` and logits from
:func:`mmtlab.model.forward`, the same two calls evaluation makes.
Samples flagged incomplete (naturally or by schedule) always have the
absent modality substituted with its learned token; complete samples are
substituted at random per ``replace_probs``, re-drawn every epoch, so the
model sees the same sample both ways across epochs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, DataError
from .missing import MmtBank, SubstitutionMethod, check_replace_probs, random_replace, substitute
from .model import MODALITIES, MbtParameters, forward
from .optim import FitResult, check_fit_settings, fit
from .protocol import build_schedule, class_weights
from .rng import Stream
from .synthdata import SynthDataset


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings for one supervised run."""

    epochs: int = 16
    batch_size: int = 64
    base_lr: float = 3e-3
    weight_decay: float = 0.02
    warmup_frac: float = 0.1
    replace_probs: dict[str, float] = field(default_factory=dict)
    induced_missing: dict[str, float] = field(default_factory=dict)
    use_class_weights: bool = False
    filter_incomplete: bool = False

    def __post_init__(self):
        check_fit_settings(self)
        for m, r in self.induced_missing.items():
            if m not in MODALITIES:
                raise ConfigError(f"unknown modality {m!r} in induced_missing")
            if not 0.0 <= r <= 1.0:
                raise ConfigError(f"induced_missing[{m!r}] = {r} outside [0, 1]")
        check_replace_probs(self.replace_probs)


def training_missing_masks(ds: SynthDataset, tcfg: TrainConfig, seed: int) -> dict:
    """Which samples count as incomplete during training, per modality.

    Natural absences are always included; an induced rate extends them
    through a cumulative schedule on its own named stream.
    """
    masks = {}
    for m in MODALITIES:
        rate = tcfg.induced_missing.get(m)
        if rate is None:
            masks[m] = ds.missing[m].copy()
        else:
            schedule = build_schedule(ds.missing[m], seed, f"train-missing/{m}")
            masks[m] = schedule.mask_at(rate)
    return masks


def train(
    params: MbtParameters,
    bank: MmtBank,
    ds: SynthDataset,
    tcfg: TrainConfig,
    seed: int,
) -> FitResult:
    """Fit the classifier and its token bank; ``kept`` counts the samples
    left after filtering."""
    cfg = params.config
    masks = training_missing_masks(ds, tcfg, seed)

    ids = np.arange(len(ds))
    if tcfg.filter_incomplete:
        keep = np.ones(len(ds), dtype=bool)
        for m in MODALITIES:
            keep &= ~masks[m]
        ids = ids[keep]
        if len(ids) == 0:
            raise DataError("filtering incomplete samples left nothing to train on")

    labels = ds.labels[ids]
    natural = {m: masks[m][ids] for m in MODALITIES}

    weights = None
    if tcfg.use_class_weights:
        weights = [
            class_weights(labels[:, h], c) for h, c in enumerate(cfg.n_classes)
        ]

    replace_stream = Stream(seed, "random-replace")
    replaced = {}

    def new_epoch(perm):
        epoch_natural = {m: natural[m][perm] for m in MODALITIES}
        replaced.update(random_replace(tcfg.replace_probs, replace_stream, epoch_natural))

    def batch_loss(sel, span):
        batch_ids = ids[sel]
        patches = {m: ds.patches(m)[batch_ids] for m in cfg.input_modalities}
        flags = {m: replaced[m][span] for m in cfg.input_modalities}
        content = substitute(params, bank, patches, flags, SubstitutionMethod.MMT)
        logits = forward(params, content)
        loss = None
        for h in range(len(cfg.n_classes)):
            y = labels[sel][:, h]
            part = ad.cross_entropy(logits[h], y, weights[h] if weights else None)
            loss = part if loss is None else ad.add(loss, part)
        return loss

    return fit([params, bank], len(ids), tcfg, seed, batch_loss, new_epoch)
