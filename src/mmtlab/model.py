"""Two-stream transformer classifier with bottleneck fusion.

Each modality owns an unshared stack of pre-norm transformer blocks. Layers
below ``fusion_layer`` run independently. From ``fusion_layer`` on, every
block sees its modality's sequence with a small set of shared bottleneck
tokens appended; each block emits an updated copy of those tokens and the
copies are averaged across modalities before the next layer (the last
layer's copies are read by nothing and not built). All cross-modal traffic
flows through that bottleneck. ``fusion_layer = 0`` exchanges at every
layer, ``fusion_layer = layers`` never exchanges.

Readout takes each modality's CLS vector through its output norm, once,
and a per-modality linear head for every classification task, and averages
the logits over the modalities that took part. Since nothing else is read,
the classifier's last layer computes only the CLS rows, as CaiT's
class-attention layers do (Touvron et al., arXiv:2103.17239): every row
still gives keys and values, but only CLS queries are scored, and the
output projection, second norm and MLP run on CLS alone.

``ModelConfig.arch`` names the encoder, and :func:`encode_sequences` is the
one place that dispatches on it. Besides ``bottleneck`` there are the
paper's comparison baselines: ``full_sa`` joins the sequences from the
fusion layer up and runs one shared stack over every token, and
``unimodal:audio`` / ``unimodal:video`` run a single modality's full stack.
The classifier (:func:`forward`) and masked pretraining both encode through
it, the classifier on its CLS rows and pretraining on every row, so
pretraining trains the network the config fine-tunes. Every arch has the
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
from .tokenizer import (
    DESK_AUDIO,
    DESK_VIDEO,
    MODALITIES,
    SpectrogramGeometry,
    VideoGeometry,
    geometry,
)

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
        if self.layers < 1:
            raise ConfigError("need at least one layer: without one no CLS row sees a token")
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
        return geometry(self, modality).tokens

    def patch_dim(self, modality: str) -> int:
        return geometry(self, modality).patch_dim


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


def run_block(
    p, prefix: str, x: Tensor, heads: int, eps: float, rows: np.ndarray | None = None
) -> Tensor:
    """Pre-norm transformer block: attention then MLP, both residual.

    ``p`` is anything indexable by dotted parameter name; the pretraining
    decoders reuse this with their own (smaller) widths, which the ops read
    from the parameters.

    ``rows``, a 1-D array of positions in the (batch, n, d) input, keeps
    only those rows of the residual stream: every row still supplies keys
    and values, but queries, the output projection, the second layer norm
    and the MLP run on ``rows`` alone, and the block returns
    (batch, len(rows), d).
    """
    h = ad.layer_norm(x, p[f"{prefix}.ln1.g"], p[f"{prefix}.ln1.b"], eps=eps)
    h = ad.linear(h, p[f"{prefix}.wqkv"], p[f"{prefix}.bqkv"])
    h = ad.multi_head_attention(h, heads, rows)
    if rows is not None:
        x = ad.gather_rows(x, np.broadcast_to(rows, (x.shape[0], len(rows))))
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


def _block(p: MbtParameters, prefix: str, x: Tensor, rows: np.ndarray | None = None) -> Tensor:
    cfg = p.config
    return run_block(p, prefix, x, cfg.heads, cfg.ln_eps, rows)


def embed_content(
    p: MbtParameters, modality: str, patches: np.ndarray, rows: np.ndarray | None = None
) -> Tensor:
    """Project flattened patches to content embeddings (no position yet).

    ``patches`` is the full (batch, tokens, patch_dim) array; ``rows``, a
    (batch, k) array of token ids, embeds only those tokens (masked
    pretraining's visible ones). The patches take the parameters' dtype;
    datasets tokenize to float32 once, so in training and evaluation that
    is no copy. They enter as an ``autodiff.Constant``, so backward takes
    no gradient GEMM into them.
    """
    n, pd = p.config.tokens(modality), p.config.patch_dim(modality)
    if patches.ndim != 3 or patches.shape[1:] != (n, pd):
        raise DimensionError(
            f"{modality}: expected (batch, {n}, {pd}) patches, got {patches.shape}"
        )
    if rows is not None:
        patches = patches[np.arange(patches.shape[0])[:, None], rows]
    w = p[f"{modality}.embed.w"]
    x = ad.Constant(np.asarray(patches, dtype=w.data.dtype))
    return ad.linear(x, w, p[f"{modality}.embed.b"])


def with_cls_and_pos(
    p: MbtParameters, modality: str, content: Tensor, rows: np.ndarray | None = None
) -> Tensor:
    """Prepend the CLS token and add positions: the sequence the encoder reads.

    ``content`` comes from :func:`embed_content` with the same ``rows``.
    With ``rows``, CLS takes position row 0 and each token the row of its
    id (``rows + 1``), through one ``gather_rows``.
    """
    batch = content.shape[0]
    cls = ad.broadcast_to(p[f"{modality}.cls"], (batch, 1, p.config.embed_dim))
    seq = ad.concat([cls, content], axis=1)
    pos = p[f"{modality}.pos"]
    if rows is not None:
        ids = np.concatenate([np.zeros((batch, 1), dtype=np.int64), rows + 1], axis=1)
        pos = ad.gather_rows(ad.broadcast_to(pos, (batch, *pos.shape)), ids)
    return ad.add(seq, pos)


def _average(parts: list[Tensor]) -> Tensor:
    """The mean of per-modality tensors: summed in order, then scaled."""
    acc = parts[0]
    for extra in parts[1:]:
        acc = ad.add(acc, extra)
    return ad.scale(acc, 1.0 / len(parts))


# the readout's rows: each modality's CLS token, first in its sequence
_CLS_ROWS = np.zeros(1, dtype=np.int64)


def _readout(p: MbtParameters, cls: dict[str, Tensor]) -> list[Tensor]:
    """Each modality's (batch, 1, d) CLS row goes through its output norm
    once and the linear layer of every head; logits average over the
    modalities."""
    cfg = p.config
    normed = {
        m: ad.layer_norm(
            ad.reshape(c, (c.shape[0], cfg.embed_dim)),
            p[f"{m}.out_ln.g"],
            p[f"{m}.out_ln.b"],
            eps=cfg.ln_eps,
        )
        for m, c in cls.items()
    }
    logits: list[Tensor] = []
    for h in range(len(cfg.n_classes)):
        parts = [ad.linear(c, p[f"{m}.head.{h}.w"], p[f"{m}.head.{h}.b"]) for m, c in normed.items()]
        logits.append(_average(parts))
    return logits


def encode_sequences(
    p: MbtParameters, x: dict[str, Tensor], rows: np.ndarray | None = None
) -> dict[str, Tensor]:
    """The encoder of ``p.config.arch``, on sequences already built.

    ``x`` maps modality name to (batch, seq, dim) sequences that already
    carry CLS and positions; entries for modalities the arch does not read
    are dropped. Sequence lengths may be shorter than the full token count;
    that is how masked pretraining encodes only the visible tokens.

    Layers below the split run each modality's own stack; the split is
    ``fusion_layer``, or every layer for a unimodal arch. Above it,
    ``bottleneck`` appends the shared tokens ``z`` to each sequence and
    averages the copies each block emits, and ``full_sa`` joins the
    sequences and runs the audio stack's blocks over every token (the video
    stack's upper blocks and ``z`` are unused). Returns each modality's
    final sequence, bottleneck rows stripped.

    With ``rows``, a 1-D array of positions in each modality's sequence, the
    last layer computes and returns only those rows (for ``full_sa``, the
    same rows of each joined part); the classifier passes its CLS row. The
    last layer's bottleneck is read by nothing, so it is not kept.
    """
    cfg = p.config
    present = [m for m in cfg.input_modalities if m in x]
    if not present:
        raise DimensionError(
            f"the {cfg.arch} encoder needs one of {list(cfg.input_modalities)} in its input"
        )
    x = {m: x[m] for m in present}
    last = cfg.layers - 1
    split = cfg.layers if cfg.arch.startswith("unimodal:") else cfg.fusion_layer
    fused = range(split, cfg.layers)

    for l in range(split):
        keep = rows if l == last else None
        x = {m: _block(p, f"{m}.layers.{l}", x[m], keep) for m in present}
    if not fused:
        return x

    if cfg.arch == "full_sa":
        lens = [x[m].shape[1] for m in present]
        starts = np.cumsum([0, *lens[:-1]])
        joint = ad.concat([x[m] for m in present], axis=1)
        for l in fused:
            keep = (starts[:, None] + rows).ravel() if rows is not None and l == last else None
            joint = _block(p, f"{MODALITIES[0]}.layers.{l}", joint, keep)
        widths = lens if rows is None else [len(rows)] * len(present)
        offsets = np.cumsum([0, *widths[:-1]])
        return {m: ad.narrow(joint, 1, int(o), w) for m, o, w in zip(present, offsets, widths)}

    batch = x[present[0]].shape[0]
    z = ad.broadcast_to(p["z"], (batch, cfg.bottleneck, cfg.embed_dim))
    for l in fused:
        keep = rows if l == last else None
        zhats = []
        for m in present:
            n = x[m].shape[1]
            out = _block(p, f"{m}.layers.{l}", ad.concat([x[m], z], axis=1), keep)
            x[m] = out if keep is not None else ad.narrow(out, 1, 0, n)
            if l < last:  # nothing reads the last layer's bottleneck
                zhats.append(ad.narrow(out, 1, n, cfg.bottleneck))
        if zhats:
            z = _average(zhats)
    return x


def forward(p: MbtParameters, content: dict[str, Tensor]) -> list[Tensor]:
    """Logits of the forward pass ``p.config.arch`` names.

    ``content`` maps modality name to (batch, tokens, dim) content
    embeddings (substitution already applied by the caller when needed);
    entries for modalities the arch does not read are ignored. Returns
    one (batch, n_classes[h]) logit tensor per head.

    The sequences go through :func:`encode_sequences`, which runs on
    whichever modalities are present: the bottleneck arch with a single one
    still runs its bottleneck, exchanging with nothing, which is the
    evaluation path for samples whose other modality is skipped. The
    readout reads only each modality's CLS row, so the encoder's last layer
    computes only those rows; the layers below it run every row, because
    the last layer's keys and values need them.
    """
    x = {m: with_cls_and_pos(p, m, content[m]) for m in p.config.input_modalities if m in content}
    return _readout(p, encode_sequences(p, x, _CLS_ROWS))


# ---------------------------------------------------------------------------
# cost accounting


def attention_pairs_per_layer(cfg: ModelConfig) -> list[int]:
    """Query-key pairs scored at each layer of ``cfg.arch``; the quadratic
    cost driver.

    The bottleneck arch runs one attention per modality over its own
    sequence (plus bottleneck tokens at fused layers); full self-attention
    runs one attention over the concatenation at fused layers; a unimodal
    arch runs its one stream. This counts the full-sequence encoder, every
    query at every layer, as in the paper's comparison of bottleneck and
    full attention (demo 04); the classifier's last layer, which scores
    only the CLS queries, does less.
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

    def text(n: int, what: str) -> str:
        start = off
        try:
            return bytes(take(n)).decode()
        except UnicodeDecodeError:
            raise CheckpointError(f"{path}: {what} at byte {start} is not UTF-8") from None

    if bytes(take(len(_MAGIC))) != _MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    (version,) = struct.unpack("<I", take(4))
    if version != _VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    (stage_len,) = struct.unpack("<H", take(2))
    stage = text(stage_len, "stage tag")
    (cfg_len,) = struct.unpack("<I", take(4))
    try:
        config = json.loads(text(cfg_len, "config"))
    except json.JSONDecodeError as e:
        raise CheckpointError(f"{path}: config is not valid JSON ({e})") from None
    if not isinstance(config, dict):
        raise CheckpointError(f"{path}: config is a JSON {type(config).__name__}, not an object")
    (count,) = struct.unpack("<I", take(4))
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        name = text(name_len, "tensor name")
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
