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

``ModelConfig.arch`` names the forward pass, and :func:`forward` is the one
place that dispatches on it. Besides ``bottleneck`` there are the paper's
comparison baselines: ``full_sa`` joins the sequences from the fusion layer
up and runs one shared stack over every token, and ``unimodal:audio`` /
``unimodal:video`` run a single modality's full stack. Every arch has the
same parameter set, so a checkpoint's config alone says how to evaluate it.
"""

from __future__ import annotations

import io
import json
import struct
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import CheckpointError, ConfigError, DimensionError, SchemaError
from .rng import Stream
from .schema import decode
from .tokenizer import DESK_AUDIO, DESK_VIDEO, MODALITIES, SpectrogramGeometry, VideoGeometry

ARCHS = ("bottleneck", "full_sa", "unimodal:audio", "unimodal:video")

# Every parameter set is made in float32, and the ops compute in their
# inputs' dtype, so training and evaluation run in float32.
PARAM_DTYPE = np.float32


@dataclass(frozen=True)
class ModelConfig:
    """Geometry and width of the two-stream classifier."""

    audio: SpectrogramGeometry = DESK_AUDIO
    video: VideoGeometry = DESK_VIDEO
    embed_dim: int = 32
    layers: int = 4
    heads: int = 4
    mlp_ratio: int = 4
    fusion_layer: int = 0
    bottleneck: int = 4
    n_classes: tuple[int, ...] = (4, 3)
    head_names: tuple[str, ...] = ("A", "B")
    arch: str = "bottleneck"
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
        if self.arch not in ARCHS:
            raise ConfigError(f"unknown arch {self.arch!r}; expected one of {ARCHS}")

    @property
    def input_modalities(self) -> tuple[str, ...]:
        """The modalities this arch reads; the others are never embedded."""
        if self.arch.startswith("unimodal:"):
            return (self.arch.removeprefix("unimodal:"),)
        return MODALITIES

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


class ParamSet:
    """Named parameter tensors, the one container every trainable set uses.

    A subclass is a dataclass whose fields are the arguments of its
    ``init(..., seed)`` followed by ``tensors``, the name -> Tensor map.
    Names are dotted paths ("audio.layers.2.wqkv", "z", ...) so sets can
    share one flat checkpoint and be partially transplanted (encoder
    transfer after pretraining matches on name prefixes). ``init`` and
    ``from_arrays`` make ``PARAM_DTYPE`` tensors.
    """

    tensors: dict[str, Tensor]

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def parameter_list(self) -> list[Tensor]:
        return [self.tensors[k] for k in sorted(self.tensors)]

    def no_decay_ids(self) -> frozenset[int]:
        """Weight decay applies to linear weights only; everything else
        (gains, biases, positional tables, class, bottleneck and
        substitution tokens) is exempt."""
        return frozenset(
            id(t) for name, t in self.tensors.items()
            if not name.endswith(_DECAY_SUFFIXES)
        )

    def as_arrays(self) -> dict[str, np.ndarray]:
        return {k: t.data for k, t in self.tensors.items()}

    @classmethod
    def from_arrays(cls, *args):
        """``from_arrays(*init_args, arrays)``: rebuild a set from saved arrays.

        The names and shapes must match what ``init`` makes for the same
        arguments; anything else is a checkpoint that does not fit. Values
        are rounded to ``PARAM_DTYPE``, which is exact for arrays saved
        from such tensors.
        """
        *spec, arrays = args
        template = cls.init(*spec, seed=0).tensors
        missing = set(template) - set(arrays)
        extra = set(arrays) - set(template)
        if missing or extra:
            raise CheckpointError(
                f"{cls.__name__} names do not match config (missing {sorted(missing)[:4]}, "
                f"unexpected {sorted(extra)[:4]})"
            )
        out = {}
        for name, ref in template.items():
            arr = np.asarray(arrays[name], dtype=PARAM_DTYPE)
            if arr.shape != ref.shape:
                raise CheckpointError(f"{name}: shape {arr.shape} != expected {ref.shape}")
            out[name] = Tensor(arr)
        return cls(*spec, out)


@dataclass(eq=False)
class MbtParameters(ParamSet):
    """The classifier's parameters; the same names for every arch."""

    config: ModelConfig
    tensors: dict[str, Tensor]

    @classmethod
    def init(cls, config: ModelConfig, seed: int) -> "MbtParameters":
        normal = normal_init(Stream(seed, "init").numpy_rng())
        d = config.embed_dim
        t: dict[str, Tensor] = {}
        for m in MODALITIES:
            n = config.tokens(m)
            t[f"{m}.embed.w"] = normal(config.patch_dim(m), d)
            t[f"{m}.embed.b"] = zeros(d)
            t[f"{m}.cls"] = normal(d)
            t[f"{m}.pos"] = normal(n + 1, d)
            for l in range(config.layers):
                init_block(t, f"{m}.layers.{l}", d, config.mlp_ratio * d, normal)
            t[f"{m}.out_ln.g"] = ones(d)
            t[f"{m}.out_ln.b"] = zeros(d)
            for h, n_cls in enumerate(config.n_classes):
                t[f"{m}.head.{h}.w"] = normal(d, n_cls)
                t[f"{m}.head.{h}.b"] = zeros(n_cls)
        t["z"] = normal(config.bottleneck, d)
        return cls(config, t)


def normal_init(rng: np.random.Generator):
    """``normal(*shape)``: a float32 N(0, 0.02) tensor, drawn in float64
    from ``rng`` and rounded, so the draw order is the same at any dtype."""

    def normal(*shape) -> Tensor:
        return Tensor(rng.normal(0.0, 0.02, size=shape).astype(PARAM_DTYPE))

    return normal


def zeros(n: int) -> Tensor:
    return Tensor(np.zeros(n, dtype=PARAM_DTYPE))


def ones(n: int) -> Tensor:
    return Tensor(np.ones(n, dtype=PARAM_DTYPE))


# ---------------------------------------------------------------------------
# forward passes


def init_block(t: dict, prefix: str, d: int, hidden: int, normal) -> None:
    """Add the parameters :func:`run_block` reads under ``prefix`` to ``t``.

    ``d`` is the block width and ``hidden`` the MLP width; weights come
    from ``normal(*shape)`` in a fixed draw order, gains and biases are
    ones and zeros.
    """
    t[f"{prefix}.ln1.g"] = ones(d)
    t[f"{prefix}.ln1.b"] = zeros(d)
    t[f"{prefix}.wqkv"] = normal(d, 3 * d)
    t[f"{prefix}.bqkv"] = zeros(3 * d)
    t[f"{prefix}.wo"] = normal(d, d)
    t[f"{prefix}.bo"] = zeros(d)
    t[f"{prefix}.ln2.g"] = ones(d)
    t[f"{prefix}.ln2.b"] = zeros(d)
    t[f"{prefix}.mlp.w1"] = normal(d, hidden)
    t[f"{prefix}.mlp.b1"] = zeros(hidden)
    t[f"{prefix}.mlp.w2"] = normal(hidden, d)
    t[f"{prefix}.mlp.b2"] = zeros(d)


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
    """Project flattened patches to content embeddings (no position yet).

    The patches take the parameters' dtype; datasets tokenize to float32
    once, so in training and evaluation that is no copy.
    """
    n, pd = p.config.tokens(modality), p.config.patch_dim(modality)
    if patches.ndim != 3 or patches.shape[1:] != (n, pd):
        raise DimensionError(
            f"{modality}: expected (batch, {n}, {pd}) patches, got {patches.shape}"
        )
    w = p[f"{modality}.embed.w"]
    x = Tensor(np.asarray(patches, dtype=w.data.dtype))
    return ad.linear(x, w, p[f"{modality}.embed.b"])


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


def _run_stacks(p: MbtParameters, x: dict[str, Tensor], layers: range) -> dict[str, Tensor]:
    """Each modality through its own blocks at ``layers``, no exchange."""
    for l in layers:
        x = {m: _block(p, f"{m}.layers.{l}", x[m]) for m in x}
    return x


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

    x = _run_stacks(p, x, range(min(cfg.fusion_layer, cfg.layers)))

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


def _encode_full_sa(p: MbtParameters, x: dict[str, Tensor]) -> dict[str, Tensor]:
    """Concatenated-sequence fusion: one shared stack from the fusion layer.

    Layers below ``fusion_layer`` run per modality as usual; from there the
    sequences of the modalities present are joined and the audio-stack
    blocks process every token jointly (the video stack's upper blocks are
    simply unused in this mode). No bottleneck tokens take part.
    """
    cfg = p.config
    x = _run_stacks(p, x, range(min(cfg.fusion_layer, cfg.layers)))

    if cfg.fusion_layer < cfg.layers:
        joint = ad.concat(list(x.values()), axis=1)
        for l in range(cfg.fusion_layer, cfg.layers):
            joint = _block(p, f"{MODALITIES[0]}.layers.{l}", joint)
        offset = 0
        for m, seq in x.items():
            x[m] = ad.narrow(joint, 1, offset, seq.shape[1])
            offset += seq.shape[1]

    return x


def forward(p: MbtParameters, content: dict[str, Tensor]) -> list[Tensor]:
    """Logits of the forward pass ``p.config.arch`` names.

    ``content`` maps modality name to (batch, tokens, dim) content
    embeddings (substitution already applied by the caller when needed);
    entries for modalities the arch does not read are ignored. Returns
    one (batch, n_classes[h]) logit tensor per head.

    The bottleneck arch runs on whichever modalities are present: with a
    single one the bottleneck still runs but exchanges with nothing, which
    is the evaluation path for samples whose other modality is skipped.
    Full self-attention joins whichever are present; a unimodal arch runs
    its one stack.
    """
    cfg = p.config
    present = [m for m in cfg.input_modalities if m in content]
    if not present:
        raise DimensionError(
            f"the {cfg.arch} forward needs one of {list(cfg.input_modalities)} in its content"
        )
    x = {m: _with_cls_and_pos(p, m, content[m]) for m in present}
    if cfg.arch == "bottleneck":
        x = encode_sequences(p, x)
    elif cfg.arch == "full_sa":
        x = _encode_full_sa(p, x)
    else:
        x = _run_stacks(p, x, range(cfg.layers))
    return _readout(p, x)


# ---------------------------------------------------------------------------
# cost accounting


def attention_pairs_per_layer(cfg: ModelConfig) -> list[int]:
    """Query-key pairs scored at each layer of ``cfg.arch``; the quadratic
    cost driver.

    The bottleneck arch runs one attention per modality over its own
    sequence (plus bottleneck tokens at fused layers); full self-attention
    runs one attention over the concatenation at fused layers; a unimodal
    arch runs its one stream.
    """
    lens = [cfg.tokens(m) + 1 for m in cfg.input_modalities]
    counts = []
    for l in range(cfg.layers):
        fused = l >= cfg.fusion_layer
        if cfg.arch == "full_sa" and fused:
            counts.append(sum(lens) ** 2)
        else:
            extra = cfg.bottleneck if fused and cfg.arch == "bottleneck" else 0
            counts.append(sum((n + extra) ** 2 for n in lens))
    return counts


def attention_pairs(cfg: ModelConfig) -> int:
    return sum(attention_pairs_per_layer(cfg))


# ---------------------------------------------------------------------------
# checkpoint format
#
# Flat little-endian container, written in one pass and safe to mmap:
#   magic "MMTCKPT1", u32 version,
#   u16 stage length + utf8 stage tag,
#   u32 config length + utf8 JSON,
#   u32 tensor count, then per tensor:
#     u16 name length + utf8 name, u8 rank, rank*u32 dims, float64 data.
# Parameters are float32 in memory. Saving widens them to float64, which is
# exact, and ``ParamSet.from_arrays`` rounds back to float32, which gives
# the saved bits again; a checkpoint of float64 parameters loads rounded.
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


def decode_header(cls, config: dict, section: str, path: str):
    """Section ``section`` of a checkpoint's config, decoded as ``cls``.

    A header that does not decode was written by another version; that is
    a CheckpointError naming the keys that do not fit.
    """
    try:
        return decode(cls, config.get(section))
    except SchemaError as e:
        raise CheckpointError(f"{path}: saved {section} config does not fit: {e}") from None
