"""Two-stream transformer classifier with bottleneck fusion.

Each modality owns an unshared stack of pre-norm transformer blocks. Layers
below ``fusion_layer`` run independently. From ``fusion_layer`` on, every
block sees its modality's sequence with a small set of shared bottleneck
tokens appended; each block emits an updated copy of those tokens and the
copies are averaged across modalities before the next layer. All cross-modal
traffic flows through that bottleneck. ``fusion_layer = 0`` exchanges at
every layer, ``fusion_layer = layers`` never exchanges.

Readout takes each modality's CLS vector through a per-modality linear head
for every classification task and averages the logits over the modalities
that took part.

A plain concatenated-sequence variant (:func:`forward_full_sa`) is kept for
cost and accuracy comparisons; it shares one stack over all tokens from the
fusion layer upward instead of exchanging bottlenecks.
"""

from __future__ import annotations

import io
import json
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import CheckpointError, ConfigError, DimensionError
from .rng import Stream
from .tokenizer import SpectrogramGeometry, VideoGeometry

MODALITIES = ("audio", "video")


@dataclass(frozen=True)
class ModelConfig:
    """Geometry and width of the two-stream classifier."""

    audio: SpectrogramGeometry
    video: VideoGeometry
    embed_dim: int = 32
    layers: int = 4
    heads: int = 4
    mlp_ratio: int = 4
    fusion_layer: int = 0
    bottleneck: int = 4
    n_classes: tuple[int, ...] = (4, 3)
    head_names: tuple[str, ...] = ("A", "B")
    fusion_mode: str = "bottleneck"
    ln_eps: float = 1e-5

    def __post_init__(self):
        if self.embed_dim % self.heads != 0:
            raise ConfigError(f"embed_dim {self.embed_dim} not divisible by {self.heads} heads")
        if not 0 <= self.fusion_layer <= self.layers:
            raise ConfigError(
                f"fusion_layer {self.fusion_layer} outside [0, {self.layers}]"
            )
        if self.bottleneck < 1:
            raise ConfigError("need at least one bottleneck token")
        if not self.n_classes or any(c < 2 for c in self.n_classes):
            raise ConfigError("every classification head needs at least two classes")
        if len(self.head_names) != len(self.n_classes):
            raise ConfigError("head_names must match n_classes in length")
        if self.fusion_mode not in ("bottleneck", "full_sa"):
            raise ConfigError(f"unknown fusion_mode {self.fusion_mode!r}")

    def tokens(self, modality: str) -> int:
        return self.geometry(modality).tokens

    def patch_dim(self, modality: str) -> int:
        return self.geometry(modality).patch_dim

    def geometry(self, modality: str):
        if modality == "audio":
            return self.audio
        if modality == "video":
            return self.video
        raise ConfigError(f"unknown modality {modality!r}")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["n_classes"] = list(self.n_classes)
        d["head_names"] = list(self.head_names)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = dict(d)
        d["audio"] = SpectrogramGeometry(**d["audio"])
        d["video"] = VideoGeometry(**d["video"])
        d["n_classes"] = tuple(d["n_classes"])
        d["head_names"] = tuple(d["head_names"])
        return cls(**d)

    def parameter_count(self) -> int:
        """Closed-form size of an :class:`MbtParameters` instance."""
        d, r = self.embed_dim, self.mlp_ratio
        per_layer = (4 + 2 * r) * d * d + (9 + r) * d
        total = self.bottleneck * d
        for m in MODALITIES:
            n = self.tokens(m)
            total += self.patch_dim(m) * d + d  # projection
            total += d + (n + 1) * d  # cls + positions
            total += self.layers * per_layer
            total += 2 * d  # final norm
            total += sum(d * c + c for c in self.n_classes)
        return total


_DECAY_SUFFIXES = (".w", ".w1", ".w2", ".wqkv", ".wo")


class MbtParameters:
    """Named parameter tensors for one model instance.

    Names are dotted paths ("audio.layers.2.wqkv", "z", ...) so the set can
    be checkpointed flat and partially transplanted (encoder transfer after
    pretraining matches on name prefixes).
    """

    def __init__(self, config: ModelConfig, tensors: dict[str, Tensor]):
        self.config = config
        self.tensors = tensors

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def parameter_list(self) -> list[Tensor]:
        return [self.tensors[k] for k in sorted(self.tensors)]

    def no_decay_ids(self) -> frozenset[int]:
        """Weight decay applies to linear weights only; everything else
        (gains, biases, positional tables, class and bottleneck tokens) is
        exempt."""
        return frozenset(
            id(t) for name, t in self.tensors.items()
            if not name.endswith(_DECAY_SUFFIXES)
        )

    def as_arrays(self) -> dict[str, np.ndarray]:
        return {k: t.data for k, t in self.tensors.items()}

    @classmethod
    def init(cls, config: ModelConfig, seed: int) -> "MbtParameters":
        rng = Stream(seed, "init").numpy_rng()
        d = config.embed_dim
        t: dict[str, Tensor] = {}

        def normal(*shape):
            return Tensor(rng.normal(0.0, 0.02, size=shape))

        for m in MODALITIES:
            n = config.tokens(m)
            t[f"{m}.embed.w"] = normal(config.patch_dim(m), d)
            t[f"{m}.embed.b"] = Tensor(np.zeros(d))
            t[f"{m}.cls"] = normal(d)
            t[f"{m}.pos"] = normal(n + 1, d)
            for l in range(config.layers):
                p = f"{m}.layers.{l}"
                t[f"{p}.ln1.g"] = Tensor(np.ones(d))
                t[f"{p}.ln1.b"] = Tensor(np.zeros(d))
                t[f"{p}.wqkv"] = normal(d, 3 * d)
                t[f"{p}.bqkv"] = Tensor(np.zeros(3 * d))
                t[f"{p}.wo"] = normal(d, d)
                t[f"{p}.bo"] = Tensor(np.zeros(d))
                t[f"{p}.ln2.g"] = Tensor(np.ones(d))
                t[f"{p}.ln2.b"] = Tensor(np.zeros(d))
                t[f"{p}.mlp.w1"] = normal(d, config.mlp_ratio * d)
                t[f"{p}.mlp.b1"] = Tensor(np.zeros(config.mlp_ratio * d))
                t[f"{p}.mlp.w2"] = normal(config.mlp_ratio * d, d)
                t[f"{p}.mlp.b2"] = Tensor(np.zeros(d))
            t[f"{m}.out_ln.g"] = Tensor(np.ones(d))
            t[f"{m}.out_ln.b"] = Tensor(np.zeros(d))
            for h, n_cls in enumerate(config.n_classes):
                t[f"{m}.head.{h}.w"] = normal(d, n_cls)
                t[f"{m}.head.{h}.b"] = Tensor(np.zeros(n_cls))
        t["z"] = normal(config.bottleneck, d)
        return cls(config, t)

    @classmethod
    def from_arrays(cls, config: ModelConfig, arrays: dict[str, np.ndarray]) -> "MbtParameters":
        template = cls.init(config, seed=0)
        missing = set(template.tensors) - set(arrays)
        extra = set(arrays) - set(template.tensors)
        if missing or extra:
            raise CheckpointError(
                f"parameter names do not match config (missing {sorted(missing)[:4]}, "
                f"unexpected {sorted(extra)[:4]})"
            )
        out = {}
        for name, ref in template.tensors.items():
            arr = np.asarray(arrays[name], dtype=np.float64)
            if arr.shape != ref.shape:
                raise CheckpointError(f"{name}: shape {arr.shape} != expected {ref.shape}")
            out[name] = Tensor(arr)
        return cls(config, out)


# ---------------------------------------------------------------------------
# forward passes


def run_block(p, prefix: str, x: Tensor, heads: int, eps: float) -> Tensor:
    """Pre-norm transformer block: attention then MLP, both residual.

    ``p`` is anything indexable by dotted parameter name; the pretraining
    decoders reuse this with their own (smaller) widths, which the ops read
    from the parameters.
    """
    h = ad.layer_norm(x, p[f"{prefix}.ln1.g"], p[f"{prefix}.ln1.b"], eps=eps)
    h = ad.linear(h, p[f"{prefix}.wqkv"], p[f"{prefix}.bqkv"])
    h = ad.multi_head_attention(h, heads)
    x = ad.add(x, ad.linear(h, p[f"{prefix}.wo"], p[f"{prefix}.bo"]))
    h = ad.layer_norm(x, p[f"{prefix}.ln2.g"], p[f"{prefix}.ln2.b"], eps=eps)
    h = ad.mlp(
        h,
        p[f"{prefix}.mlp.w1"],
        p[f"{prefix}.mlp.b1"],
        p[f"{prefix}.mlp.w2"],
        p[f"{prefix}.mlp.b2"],
    )
    return ad.add(x, h)


def _block(p: MbtParameters, prefix: str, x: Tensor) -> Tensor:
    cfg = p.config
    return run_block(p, prefix, x, cfg.heads, cfg.ln_eps)


def embed_content(p: MbtParameters, modality: str, patches: np.ndarray) -> Tensor:
    """Project flattened patches to content embeddings (no position yet)."""
    n, pd = p.config.tokens(modality), p.config.patch_dim(modality)
    if patches.ndim != 3 or patches.shape[1:] != (n, pd):
        raise DimensionError(
            f"{modality}: expected (batch, {n}, {pd}) patches, got {patches.shape}"
        )
    return ad.linear(Tensor(patches), p[f"{modality}.embed.w"], p[f"{modality}.embed.b"])


def _with_cls_and_pos(p: MbtParameters, modality: str, content: Tensor) -> Tensor:
    """Prepend the CLS token and add the positional table."""
    batch = content.shape[0]
    d = p.config.embed_dim
    cls = ad.broadcast_to(ad.reshape(p[f"{modality}.cls"], (1, 1, d)), (batch, 1, d))
    seq = ad.concat([cls, content], axis=1)
    return ad.add(seq, p[f"{modality}.pos"])


def _readout(p: MbtParameters, feats: dict[str, Tensor]) -> list[Tensor]:
    """Per-modality CLS -> norm -> heads; average logits over modalities."""
    logits: list[Tensor] = []
    for h in range(len(p.config.n_classes)):
        parts = []
        for m, x in feats.items():
            cls = ad.narrow(x, 1, 0, 1)
            cls = ad.reshape(cls, (x.shape[0], p.config.embed_dim))
            cls = ad.layer_norm(cls, p[f"{m}.out_ln.g"], p[f"{m}.out_ln.b"], eps=p.config.ln_eps)
            parts.append(ad.linear(cls, p[f"{m}.head.{h}.w"], p[f"{m}.head.{h}.b"]))
        acc = parts[0]
        for extra in parts[1:]:
            acc = ad.add(acc, extra)
        logits.append(ad.scale(acc, 1.0 / len(parts)))
    return logits


def encode_sequences(p: MbtParameters, x: dict[str, Tensor]) -> dict[str, Tensor]:
    """Run the modality stacks with bottleneck exchange on built sequences.

    ``x`` maps modality name to (batch, seq, dim) sequences that already
    carry CLS and positions. Sequence lengths may be shorter than the full
    token count; that is how masked pretraining encodes only the visible
    tokens. Returns the final sequences (bottleneck rows stripped).
    """
    cfg = p.config
    if not x:
        raise DimensionError("encode needs at least one modality")
    present = [m for m in MODALITIES if m in x]
    x = {m: x[m] for m in present}
    batch = x[present[0]].shape[0]

    for l in range(min(cfg.fusion_layer, cfg.layers)):
        x = {m: _block(p, f"{m}.layers.{l}", x[m]) for m in present}

    if cfg.fusion_layer < cfg.layers:
        z = ad.broadcast_to(
            ad.reshape(p["z"], (1, cfg.bottleneck, cfg.embed_dim)),
            (batch, cfg.bottleneck, cfg.embed_dim),
        )
        for l in range(cfg.fusion_layer, cfg.layers):
            zhats = []
            for m in present:
                seq = ad.concat([x[m], z], axis=1)
                out = _block(p, f"{m}.layers.{l}", seq)
                n = seq.shape[1] - cfg.bottleneck
                x[m] = ad.narrow(out, 1, 0, n)
                zhats.append(ad.narrow(out, 1, n, cfg.bottleneck))
            acc = zhats[0]
            for extra in zhats[1:]:
                acc = ad.add(acc, extra)
            z = ad.scale(acc, 1.0 / len(zhats))

    return x


def forward(p: MbtParameters, content: dict[str, Tensor]) -> list[Tensor]:
    """Bottleneck-fusion forward over the modalities present in ``content``.

    ``content`` maps modality name to (batch, tokens, dim) content
    embeddings (substitution already applied by the caller when needed).
    Returns one (batch, n_classes[h]) logit tensor per head. With a single
    modality present the bottleneck still runs but exchanges with nothing,
    which is the evaluation path for samples whose other modality is
    skipped.
    """
    if not content:
        raise DimensionError("forward needs at least one modality")
    present = [m for m in MODALITIES if m in content]
    x = {m: _with_cls_and_pos(p, m, content[m]) for m in present}
    return _readout(p, encode_sequences(p, x))


def forward_full_sa(p: MbtParameters, content: dict[str, Tensor]) -> list[Tensor]:
    """Concatenated-sequence fusion: one shared stack from the fusion layer.

    Layers below ``fusion_layer`` run per modality as usual; from there the
    sequences are joined and the audio-stack blocks process every token
    jointly (the video stack's upper blocks are simply unused in this
    mode). No bottleneck tokens take part.
    """
    cfg = p.config
    present = [m for m in MODALITIES if m in content]
    if present != list(MODALITIES):
        raise DimensionError("full self-attention fusion needs every modality present")
    x = {m: _with_cls_and_pos(p, m, content[m]) for m in present}

    for l in range(min(cfg.fusion_layer, cfg.layers)):
        x = {m: _block(p, f"{m}.layers.{l}", x[m]) for m in present}

    if cfg.fusion_layer < cfg.layers:
        joint = ad.concat([x[m] for m in present], axis=1)
        for l in range(cfg.fusion_layer, cfg.layers):
            joint = _block(p, f"{present[0]}.layers.{l}", joint)
        offset = 0
        for m in present:
            n = cfg.tokens(m) + 1
            x[m] = ad.narrow(joint, 1, offset, n)
            offset += n

    return _readout(p, x)


def unimodal_forward(p: MbtParameters, modality: str, content: Tensor) -> list[Tensor]:
    """Single-stream baseline: one modality, full stack, no bottleneck."""
    x = _with_cls_and_pos(p, modality, content)
    for l in range(p.config.layers):
        x = _block(p, f"{modality}.layers.{l}", x)
    return _readout(p, {modality: x})


# ---------------------------------------------------------------------------
# cost accounting


def attention_pairs_per_layer(cfg: ModelConfig, mode: str = "bottleneck") -> list[int]:
    """Query-key pairs scored at each layer; the quadratic cost driver.

    Bottleneck mode runs one attention per modality over its own sequence
    (plus bottleneck tokens at fused layers); full self-attention runs one
    attention over the concatenation at fused layers.
    """
    lens = {m: cfg.tokens(m) + 1 for m in MODALITIES}
    counts = []
    for l in range(cfg.layers):
        fused = l >= cfg.fusion_layer
        if mode == "bottleneck":
            extra = cfg.bottleneck if fused else 0
            counts.append(sum((n + extra) ** 2 for n in lens.values()))
        elif mode == "full_sa":
            if fused:
                counts.append(sum(lens.values()) ** 2)
            else:
                counts.append(sum(n**2 for n in lens.values()))
        else:
            raise ConfigError(f"unknown attention mode {mode!r}")
    return counts


def attention_pairs(cfg: ModelConfig, mode: str = "bottleneck") -> int:
    return sum(attention_pairs_per_layer(cfg, mode))


# ---------------------------------------------------------------------------
# checkpoint format
#
# Flat little-endian container, written in one pass and safe to mmap:
#   magic "MMTCKPT1", u32 version,
#   u16 stage length + utf8 stage tag,
#   u32 config length + utf8 JSON,
#   u32 tensor count, then per tensor:
#     u16 name length + utf8 name, u8 rank, rank*u32 dims, float64 data.
# JSON/npz alternatives were rejected: npz embeds zip timestamps, which
# breaks byte-identical reruns, and JSON doubles the size of float payloads.

_MAGIC = b"MMTCKPT1"
_VERSION = 1


def save_checkpoint(
    path: str,
    arrays: dict[str, np.ndarray],
    config: dict,
    stage: str,
) -> None:
    buf = io.BytesIO()
    buf.write(_MAGIC)
    buf.write(struct.pack("<I", _VERSION))
    stage_b = stage.encode()
    buf.write(struct.pack("<H", len(stage_b)))
    buf.write(stage_b)
    cfg_b = json.dumps(config, sort_keys=True).encode()
    buf.write(struct.pack("<I", len(cfg_b)))
    buf.write(cfg_b)
    buf.write(struct.pack("<I", len(arrays)))
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name], dtype="<f8")
        name_b = name.encode()
        buf.write(struct.pack("<H", len(name_b)))
        buf.write(name_b)
        buf.write(struct.pack("<B", arr.ndim))
        buf.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        buf.write(arr.tobytes())
    with open(path, "wb") as f:
        f.write(buf.getvalue())


def load_checkpoint(path: str) -> tuple[dict[str, np.ndarray], dict, str]:
    with open(path, "rb") as f:
        raw = f.read()
    view = memoryview(raw)
    off = 0

    def take(n: int) -> memoryview:
        nonlocal off
        if off + n > len(raw):
            raise CheckpointError(f"{path}: truncated at byte {off}")
        piece = view[off : off + n]
        off += n
        return piece

    if bytes(take(len(_MAGIC))) != _MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    (version,) = struct.unpack("<I", take(4))
    if version != _VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    (stage_len,) = struct.unpack("<H", take(2))
    stage = bytes(take(stage_len)).decode()
    (cfg_len,) = struct.unpack("<I", take(4))
    config = json.loads(bytes(take(cfg_len)).decode())
    (count,) = struct.unpack("<I", take(4))
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        name = bytes(take(name_len)).decode()
        (rank,) = struct.unpack("<B", take(1))
        shape = struct.unpack(f"<{rank}I", take(4 * rank))
        n_bytes = 8 * int(np.prod(shape, dtype=np.int64)) if rank else 8
        arr = np.frombuffer(take(n_bytes), dtype="<f8").reshape(shape)
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{path}: tensor {name!r} has non-finite values")
        arrays[name] = arr.astype(np.float64)
    if off != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - off} trailing bytes")
    return arrays, config, stage
