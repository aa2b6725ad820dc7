"""Masked-autoencoder pretraining for the bottleneck fusion encoder.

Each modality independently hides a fixed fraction of its tokens; only
the visible tokens are encoded (bottleneck exchange included), then a
small per-modality decoder fills the gaps with a learned mask token plus
positional embeddings and reconstructs raw patch values. The loss is
mean squared error over masked positions only, so reconstructions at
visible positions receive exactly zero gradient.

The mask token here is a pretraining placeholder appended after
encoding; it is a different parameter from the substitution token used
at fine-tuning time, which replaces content before encoding.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .errors import CheckpointError, ConfigError, DataError
from .missing import MmtBank
from .model import (
    _DECAY_SUFFIXES,
    MODALITIES,
    MbtParameters,
    ModelConfig,
    encode_sequences,
    load_checkpoint,
    run_block,
    save_checkpoint,
)
from .optim import AdamW
from .rng import Stream
from .synthdata import SynthDataset

_DEC_MLP_RATIO = 4


@dataclass(frozen=True)
class MaeConfig:
    """Masking and decoder settings for one pretraining run.

    Defaults are desk scale; the reference-scale decoder (depth 4, 16
    heads, dim 512) stays expressible through the same fields. Mask
    ratios are asymmetric because the denser modality tolerates heavier
    masking.
    """

    mask_ratio_audio: float = 0.70
    mask_ratio_video: float = 0.90
    decoder_depth: int = 2
    decoder_heads: int = 4
    decoder_dim: int = 16
    epochs: int = 8
    batch_size: int = 64
    base_lr: float = 1.5e-3
    weight_decay: float = 0.02
    warmup_frac: float = 0.1

    def __post_init__(self):
        for name in ("mask_ratio_audio", "mask_ratio_video"):
            r = getattr(self, name)
            if not 0.0 < r < 1.0:
                raise ConfigError(f"{name} = {r} outside (0, 1)")
        if self.decoder_depth < 1 or self.decoder_heads < 1 or self.decoder_dim < 1:
            raise ConfigError("decoder_depth, decoder_heads, decoder_dim must be positive")
        if self.decoder_dim % self.decoder_heads:
            raise ConfigError(
                f"decoder_dim {self.decoder_dim} not divisible by {self.decoder_heads} heads"
            )
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be positive")
        if self.base_lr <= 0.0:
            raise ConfigError("base_lr must be positive")
        if not 0.0 <= self.warmup_frac < 1.0:
            raise ConfigError("warmup_frac outside [0, 1)")

    def mask_ratio(self, modality: str) -> float:
        if modality == "audio":
            return self.mask_ratio_audio
        if modality == "video":
            return self.mask_ratio_video
        raise ConfigError(f"no mask ratio for modality {modality!r}")

    def to_dict(self) -> dict:
        from dataclasses import asdict

        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "MaeConfig":
        return cls(**d)


@dataclass
class MaeResult:
    history: list  # per-epoch {"epoch", "loss", "lr"}
    steps: int
    kept: int  # modal-complete samples used
    seconds: float


# ---------------------------------------------------------------------------
# masking


def mask_tokens(n: int, ratio: float, rng: np.random.Generator):
    """Split ``range(n)`` into (visible, masked) index arrays, both sorted.

    ``floor(ratio * n)`` indices are masked, chosen uniformly without
    replacement; sorting keeps the visible subsequence in original
    positional order.
    """
    vis, msk = mask_batch(1, n, ratio, rng)
    return vis[0], msk[0]


def mask_batch(batch: int, n: int, ratio: float, rng: np.random.Generator):
    """Per-sample masking: (batch, n-k) visible and (batch, k) masked indices."""
    if not 0.0 < ratio < 1.0:
        raise ConfigError(f"mask ratio {ratio} outside (0, 1)")
    k = int(ratio * n)
    if k == 0 or k == n:
        raise ConfigError(
            f"mask ratio {ratio} on {n} tokens leaves {'nothing masked' if k == 0 else 'nothing visible'}"
        )
    # argsort of iid uniforms is a uniform permutation, vectorized per row
    order = np.argsort(rng.random((batch, n)), axis=1)
    return np.sort(order[:, k:], axis=1), np.sort(order[:, :k], axis=1)


# ---------------------------------------------------------------------------
# decoder parameters


def _is_encoder_name(name: str) -> bool:
    return (
        name == "z"
        or ".layers." in name
        or ".embed." in name
        or name.endswith(".cls")
        or name.endswith(".pos")
    )


class MaeDecoders:
    """Per-modality reconstruction decoders, unshared across modalities.

    Names live under "{modality}.dec.*" so they never collide with
    encoder names when both go into one checkpoint.
    """

    def __init__(self, config: ModelConfig, mae: MaeConfig, tensors: dict[str, Tensor]):
        self.config = config
        self.mae = mae
        self.tensors = tensors

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def parameter_list(self) -> list[Tensor]:
        return [self.tensors[k] for k in sorted(self.tensors)]

    def no_decay_ids(self) -> frozenset[int]:
        return frozenset(
            id(t) for name, t in self.tensors.items()
            if not name.endswith(_DECAY_SUFFIXES)
        )

    def as_arrays(self) -> dict[str, np.ndarray]:
        return {k: t.data for k, t in self.tensors.items()}

    @classmethod
    def init(cls, config: ModelConfig, mae: MaeConfig, seed: int) -> "MaeDecoders":
        rng = Stream(seed, "mae-init").numpy_rng()
        d, dd = config.embed_dim, mae.decoder_dim
        t: dict[str, Tensor] = {}

        def normal(*shape):
            return Tensor(rng.normal(0.0, 0.02, size=shape))

        for m in MODALITIES:
            n, pd = config.tokens(m), config.patch_dim(m)
            t[f"{m}.dec.proj.w"] = normal(d, dd)
            t[f"{m}.dec.proj.b"] = Tensor(np.zeros(dd))
            t[f"{m}.dec.mask"] = normal(dd)
            t[f"{m}.dec.pos"] = normal(n, dd)
            for l in range(mae.decoder_depth):
                pre = f"{m}.dec.layers.{l}"
                t[f"{pre}.ln1.g"] = Tensor(np.ones(dd))
                t[f"{pre}.ln1.b"] = Tensor(np.zeros(dd))
                t[f"{pre}.wqkv"] = normal(dd, 3 * dd)
                t[f"{pre}.bqkv"] = Tensor(np.zeros(3 * dd))
                t[f"{pre}.wo"] = normal(dd, dd)
                t[f"{pre}.bo"] = Tensor(np.zeros(dd))
                t[f"{pre}.ln2.g"] = Tensor(np.ones(dd))
                t[f"{pre}.ln2.b"] = Tensor(np.zeros(dd))
                t[f"{pre}.mlp.w1"] = normal(dd, _DEC_MLP_RATIO * dd)
                t[f"{pre}.mlp.b1"] = Tensor(np.zeros(_DEC_MLP_RATIO * dd))
                t[f"{pre}.mlp.w2"] = normal(_DEC_MLP_RATIO * dd, dd)
                t[f"{pre}.mlp.b2"] = Tensor(np.zeros(dd))
            t[f"{m}.dec.out_ln.g"] = Tensor(np.ones(dd))
            t[f"{m}.dec.out_ln.b"] = Tensor(np.zeros(dd))
            t[f"{m}.dec.head.w"] = normal(dd, pd)
            t[f"{m}.dec.head.b"] = Tensor(np.zeros(pd))
        return cls(config, mae, t)

    @classmethod
    def from_arrays(
        cls, config: ModelConfig, mae: MaeConfig, arrays: dict[str, np.ndarray]
    ) -> "MaeDecoders":
        template = cls.init(config, mae, seed=0)
        missing = set(template.tensors) - set(arrays)
        extra = set(arrays) - set(template.tensors)
        if missing or extra:
            raise CheckpointError(
                f"decoder names do not match config (missing {sorted(missing)[:4]}, "
                f"unexpected {sorted(extra)[:4]})"
            )
        out = {}
        for name, ref in template.tensors.items():
            arr = np.asarray(arrays[name], dtype=np.float64)
            if arr.shape != ref.shape:
                raise CheckpointError(f"{name}: shape {arr.shape} != {ref.shape}")
            out[name] = Tensor(arr)
        return cls(config, mae, out)


# ---------------------------------------------------------------------------
# reconstruction


def mae_forward(
    params: MbtParameters,
    dec: MaeDecoders,
    cfg: MaeConfig,
    patches: dict[str, np.ndarray],
    masks: dict,
    targets: dict | None = None,
):
    """Encode visible tokens, decode full sequences, score masked positions.

    ``masks`` maps modality to (visible, masked) per-sample index arrays
    from :func:`mask_batch`. Returns (reconstructions, losses), both
    per-modality dicts of tensors; reconstructions are (batch, tokens,
    patch_dim). ``targets`` defaults to the input patches; it exists so
    tests can show the loss ignores targets at visible positions.
    """
    mcfg = params.config
    present = [m for m in MODALITIES if m in patches]
    if not present:
        raise ConfigError("mae_forward needs at least one modality")
    d = mcfg.embed_dim
    batch = patches[present[0]].shape[0]
    batch_ix = np.arange(batch)[:, None]

    seqs = {}
    for m in present:
        n = mcfg.tokens(m)
        vis, _ = masks[m]
        pos = ad.broadcast_to(
            ad.reshape(params[f"{m}.pos"], (1, n + 1, d)), (batch, n + 1, d)
        )
        cls = ad.broadcast_to(ad.reshape(params[f"{m}.cls"], (1, 1, d)), (batch, 1, d))
        content = ad.linear(
            Tensor(patches[m][batch_ix, vis]),
            params[f"{m}.embed.w"],
            params[f"{m}.embed.b"],
        )
        # visible tokens keep their original positional rows (+1 skips CLS)
        seqs[m] = ad.concat(
            [
                ad.add(cls, ad.narrow(pos, 1, 0, 1)),
                ad.add(content, ad.gather_rows(pos, vis + 1)),
            ],
            axis=1,
        )
    feats = encode_sequences(params, seqs)

    recons: dict[str, Tensor] = {}
    losses: dict[str, Tensor] = {}
    dd = cfg.decoder_dim
    for m in present:
        vis, msk = masks[m]
        v, k = vis.shape[1], msk.shape[1]
        enc = ad.narrow(feats[m], 1, 1, v)  # drop CLS
        x = ad.linear(enc, dec[f"{m}.dec.proj.w"], dec[f"{m}.dec.proj.b"])
        tok = ad.broadcast_to(ad.reshape(dec[f"{m}.dec.mask"], (1, 1, dd)), (batch, k, dd))
        # concat visible-first, then permute back to original token order
        cat = ad.concat([x, tok], axis=1)
        inverse = np.argsort(np.concatenate([vis, msk], axis=1), axis=1)
        full = ad.add(ad.gather_rows(cat, inverse), dec[f"{m}.dec.pos"])
        for l in range(cfg.decoder_depth):
            full = run_block(dec, f"{m}.dec.layers.{l}", full, cfg.decoder_heads, mcfg.ln_eps)
        full = ad.layer_norm(
            full, dec[f"{m}.dec.out_ln.g"], dec[f"{m}.dec.out_ln.b"], eps=mcfg.ln_eps
        )
        recon = ad.linear(full, dec[f"{m}.dec.head.w"], dec[f"{m}.dec.head.b"])
        recons[m] = recon
        target = (targets or patches)[m][batch_ix, msk]
        diff = ad.sub(ad.gather_rows(recon, msk), Tensor(target))
        losses[m] = ad.mean(ad.mul(diff, diff))
    return recons, losses


def mae_step(
    params: MbtParameters,
    dec: MaeDecoders,
    cfg: MaeConfig,
    patches: dict[str, np.ndarray],
    rng: np.random.Generator | None = None,
    masks: dict | None = None,
):
    """One reconstruction loss over a batch; masks drawn here unless given.

    Masking is independent per modality. Returns the total loss tensor
    (sum over modalities) and the per-modality loss values.
    """
    present = [m for m in MODALITIES if m in patches]
    if masks is None:
        if rng is None:
            raise ConfigError("mae_step needs an rng when masks are not given")
        batch = patches[present[0]].shape[0]
        masks = {
            m: mask_batch(batch, params.config.tokens(m), cfg.mask_ratio(m), rng)
            for m in present
        }
    _, losses = mae_forward(params, dec, cfg, patches, masks)
    total = None
    for m in present:
        total = losses[m] if total is None else ad.add(total, losses[m])
    return total, {m: float(losses[m].data) for m in present}


# ---------------------------------------------------------------------------
# pretraining loop


def mae_train(
    params: MbtParameters,
    dec: MaeDecoders,
    ds: SynthDataset,
    cfg: MaeConfig,
    seed: int,
) -> MaeResult:
    """Pretrain encoder and decoders; heads and readout norms never move.

    Modal-incomplete samples are dropped: their absent modality is all
    zeros, which would turn reconstruction into memorizing a constant.
    """
    started = time.time()
    ids = np.flatnonzero(ds.complete_mask())
    if len(ids) == 0:
        raise DataError("no modal-complete samples to pretrain on")
    n = len(ids)

    plist = params.parameter_list() + dec.parameter_list()
    no_decay = params.no_decay_ids() | dec.no_decay_ids()
    steps_per_epoch = math.ceil(n / cfg.batch_size)
    total_steps = cfg.epochs * steps_per_epoch
    opt = AdamW(
        plist,
        base_lr=cfg.base_lr,
        warmup_steps=min(max(1, int(cfg.warmup_frac * total_steps)), total_steps - 1),
        total_steps=total_steps,
        weight_decay=cfg.weight_decay,
        no_decay=frozenset(no_decay),
    )

    order_stream = Stream(seed, "batch-order")
    mask_rng = Stream(seed, "mae-mask").numpy_rng()
    history = []
    for epoch in range(cfg.epochs):
        perm = list(range(n))
        order_stream.shuffle(perm)
        perm = np.asarray(perm)
        epoch_loss = 0.0
        lr = opt.lr
        for lo in range(0, n, cfg.batch_size):
            batch_ids = ids[perm[lo : lo + cfg.batch_size]]
            batch_patches = {m: ds.patches(m)[batch_ids] for m in MODALITIES}
            with Tape() as tape:
                loss, _ = mae_step(params, dec, cfg, batch_patches, rng=mask_rng)
                tape.backward(loss)
            if not np.isfinite(loss.data):
                raise FloatingPointError(f"non-finite reconstruction loss at epoch {epoch}")
            lr = opt.step()
            opt.zero_grad()
            epoch_loss += float(loss.data) * len(batch_ids)
        history.append({"epoch": epoch, "loss": epoch_loss / n, "lr": lr})
    return MaeResult(history, total_steps, n, time.time() - started)


# ---------------------------------------------------------------------------
# checkpoint glue and encoder transfer


def save_pretrained(path: str, params: MbtParameters, dec: MaeDecoders) -> None:
    arrays = {**params.as_arrays(), **dec.as_arrays()}
    config = {"model": params.config.to_dict(), "mae": dec.mae.to_dict()}
    save_checkpoint(path, arrays, config, stage="pretrain")


def load_pretrained(path: str) -> tuple[MbtParameters, MaeDecoders]:
    arrays, config, stage = load_checkpoint(path)
    if stage != "pretrain":
        raise CheckpointError(f"expected a pretrain checkpoint, got stage {stage!r}")
    mcfg = ModelConfig.from_dict(config["model"])
    acfg = MaeConfig.from_dict(config["mae"])
    enc = {k: v for k, v in arrays.items() if ".dec." not in k}
    rest = {k: v for k, v in arrays.items() if ".dec." in k}
    return MbtParameters.from_arrays(mcfg, enc), MaeDecoders.from_arrays(mcfg, acfg, rest)


def transfer_encoder(
    pretrained: MbtParameters, config: ModelConfig, seed: int
) -> tuple[MbtParameters, MmtBank]:
    """Fresh fine-tuning parameters with the pretrained encoder copied in.

    The decoder is left behind; classifier heads, readout norms, and the
    substitution-token bank start fresh from ``seed``.
    """
    if pretrained.config.to_dict() != config.to_dict():
        raise CheckpointError(
            "pretrained encoder architecture does not match the requested config"
        )
    fresh = MbtParameters.init(config, seed)
    for name, t in pretrained.tensors.items():
        if _is_encoder_name(name):
            fresh.tensors[name] = Tensor(t.data.copy())
    return fresh, MmtBank.init(config.embed_dim, seed)
