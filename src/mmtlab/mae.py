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

from dataclasses import asdict, dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import CheckpointError, ConfigError, DataError
from .model import (
    MODALITIES,
    MbtParameters,
    ModelConfig,
    ParamSet,
    decode_header,
    encode_sequences,
    init_block,
    load_checkpoint,
    normal_init,
    ones,
    run_block,
    save_checkpoint,
    zeros,
)
from .optim import FitResult, check_fit_settings, fit
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
        check_fit_settings(self)

    def mask_ratio(self, modality: str) -> float:
        if modality == "audio":
            return self.mask_ratio_audio
        if modality == "video":
            return self.mask_ratio_video
        raise ConfigError(f"no mask ratio for modality {modality!r}")


# ---------------------------------------------------------------------------
# masking


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


@dataclass(eq=False)
class MaeDecoders(ParamSet):
    """Per-modality reconstruction decoders, unshared across modalities.

    Names live under "{modality}.dec.*" so they never collide with
    encoder names when both go into one checkpoint.
    """

    config: ModelConfig
    mae: MaeConfig
    tensors: dict[str, Tensor]

    @classmethod
    def init(cls, config: ModelConfig, mae: MaeConfig, seed: int) -> "MaeDecoders":
        normal = normal_init(Stream(seed, "mae-init").numpy_rng())
        d, dd = config.embed_dim, mae.decoder_dim
        t: dict[str, Tensor] = {}
        for m in MODALITIES:
            n, pd = config.tokens(m), config.patch_dim(m)
            t[f"{m}.dec.proj.w"] = normal(d, dd)
            t[f"{m}.dec.proj.b"] = zeros(dd)
            t[f"{m}.dec.mask"] = normal(dd)
            t[f"{m}.dec.pos"] = normal(n, dd)
            for l in range(mae.decoder_depth):
                init_block(t, f"{m}.dec.layers.{l}", dd, _DEC_MLP_RATIO * dd, normal)
            t[f"{m}.dec.out_ln.g"] = ones(dd)
            t[f"{m}.dec.out_ln.b"] = zeros(dd)
            t[f"{m}.dec.head.w"] = normal(dd, pd)
            t[f"{m}.dec.head.b"] = zeros(pd)
        return cls(config, mae, t)


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
    dtype = params["z"].data.dtype  # inputs and targets take the parameters' dtype

    seqs = {}
    for m in present:
        n = mcfg.tokens(m)
        vis, _ = masks[m]
        pos = ad.broadcast_to(
            ad.reshape(params[f"{m}.pos"], (1, n + 1, d)), (batch, n + 1, d)
        )
        cls = ad.broadcast_to(ad.reshape(params[f"{m}.cls"], (1, 1, d)), (batch, 1, d))
        content = ad.linear(
            Tensor(patches[m][batch_ix, vis].astype(dtype, copy=False)),
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
        target = (targets or patches)[m][batch_ix, msk].astype(dtype, copy=False)
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
) -> FitResult:
    """Pretrain encoder and decoders; heads and readout norms never move.

    Modal-incomplete samples are dropped: their absent modality is all
    zeros, which would turn reconstruction into memorizing a constant.
    ``kept`` counts the modal-complete samples used.
    """
    ids = np.flatnonzero(ds.complete_mask())
    if len(ids) == 0:
        raise DataError("no modal-complete samples to pretrain on")
    mask_rng = Stream(seed, "mae-mask").numpy_rng()

    def batch_loss(sel, span):
        batch_patches = {m: ds.patches(m)[ids[sel]] for m in MODALITIES}
        loss, _ = mae_step(params, dec, cfg, batch_patches, rng=mask_rng)
        return loss

    return fit([params, dec], len(ids), cfg, seed, batch_loss)


# ---------------------------------------------------------------------------
# checkpoint glue and encoder transfer


def save_pretrained(path: str, params: MbtParameters, dec: MaeDecoders) -> None:
    arrays = {**params.as_arrays(), **dec.as_arrays()}
    config = {"model": asdict(params.config), "mae": asdict(dec.mae)}
    save_checkpoint(path, arrays, config, stage="pretrain")


def load_pretrained(path: str) -> tuple[MbtParameters, MaeDecoders]:
    arrays, config, stage = load_checkpoint(path)
    if stage != "pretrain":
        raise CheckpointError(f"expected a pretrain checkpoint, got stage {stage!r}")
    mcfg = decode_header(ModelConfig, config, "model", path)
    acfg = decode_header(MaeConfig, config, "mae", path)
    enc = {k: v for k, v in arrays.items() if ".dec." not in k}
    rest = {k: v for k, v in arrays.items() if ".dec." in k}
    return MbtParameters.from_arrays(mcfg, enc), MaeDecoders.from_arrays(mcfg, acfg, rest)


def transfer_encoder(
    pretrained: MbtParameters, config: ModelConfig, seed: int
) -> MbtParameters:
    """Fresh fine-tuning parameters with the pretrained encoder copied in.

    The decoder is left behind; classifier heads and readout norms start
    fresh from ``seed``, as does the caller's token bank. The arch may differ:
    every arch has the same parameters, and pretraining always encodes
    through the bottleneck.
    """
    if replace(pretrained.config, arch=config.arch) != config:
        raise CheckpointError(
            "pretrained encoder architecture does not match the requested config"
        )
    fresh = MbtParameters.init(config, seed)
    for name, t in pretrained.tensors.items():
        if _is_encoder_name(name):
            fresh.tensors[name] = Tensor(t.data.copy())
    return fresh
