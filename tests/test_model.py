import struct
from dataclasses import asdict, replace

import numpy as np
import pytest

from mmtlab.autodiff import Tape, Tensor
from mmtlab.errors import CheckpointError, ConfigError, DimensionError
from mmtlab import autodiff as ad
from mmtlab.model import (
    ARCHS,
    MODALITIES,
    MbtParameters,
    ModelConfig,
    attention_pairs,
    attention_pairs_per_layer,
    embed_content,
    encode_sequences,
    forward,
    load_checkpoint,
    run_block,
    save_checkpoint,
    with_cls_and_pos,
)
from mmtlab.gradcheck import max_relative_error
from mmtlab.schema import decode
from mmtlab.tokenizer import SpectrogramGeometry, VideoGeometry

from helpers import float64_params, reference_block


def tiny_config(**overrides) -> ModelConfig:
    base = dict(
        audio=SpectrogramGeometry(bins=4, frames=4, patch_bins=2, patch_frames=2),
        video=VideoGeometry(frames=2, height=4, width=4, patch_t=2, patch_h=2, patch_w=2),
        embed_dim=8,
        layers=2,
        heads=2,
        mlp_ratio=2,
        fusion_layer=1,
        bottleneck=2,
        n_classes=(3, 2),
    )
    base.update(overrides)
    return ModelConfig(**base)


def with_arch(p: MbtParameters, arch: str) -> MbtParameters:
    """The same tensors run through another forward pass."""
    return MbtParameters(replace(p.config, arch=arch), p.tensors)


def random_content(p: MbtParameters, batch: int, seed: int = 0) -> dict[str, Tensor]:
    rng = np.random.default_rng(seed)
    return {
        m: Tensor(rng.standard_normal((batch, p.config.tokens(m), p.config.embed_dim)))
        for m in MODALITIES
    }


# ---------------------------------------------------------------------------
# an independent numpy re-implementation used as the forward oracle


def np_ln(x, g, b, eps):
    mu = x.mean(-1, keepdims=True)
    var = ((x - mu) ** 2).mean(-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * g + b


def np_mha(q, k, v, heads, wo):
    b, n, d = q.shape
    hd = d // heads
    qh = q.reshape(b, n, heads, hd).transpose(0, 2, 1, 3)
    kh = k.reshape(b, n, heads, hd).transpose(0, 2, 1, 3)
    vh = v.reshape(b, n, heads, hd).transpose(0, 2, 1, 3)
    s = qh @ kh.transpose(0, 1, 3, 2) / np.sqrt(hd)
    s = np.exp(s - s.max(-1, keepdims=True))
    s /= s.sum(-1, keepdims=True)
    out = (s @ vh).transpose(0, 2, 1, 3).reshape(b, n, d)
    return out @ wo


def np_gelu(x):
    return 0.5 * x * (1 + np.tanh(np.sqrt(2 / np.pi) * (x + 0.044715 * x**3)))


def np_block(a, prefix, x, heads, eps):
    h = np_ln(x, a[f"{prefix}.ln1.g"], a[f"{prefix}.ln1.b"], eps)
    qkv = h @ a[f"{prefix}.wqkv"] + a[f"{prefix}.bqkv"]
    d = x.shape[-1]
    att = np_mha(qkv[..., :d], qkv[..., d : 2 * d], qkv[..., 2 * d :], heads, a[f"{prefix}.wo"])
    x = x + att + a[f"{prefix}.bo"]
    h = np_ln(x, a[f"{prefix}.ln2.g"], a[f"{prefix}.ln2.b"], eps)
    h = np_gelu(h @ a[f"{prefix}.mlp.w1"] + a[f"{prefix}.mlp.b1"])
    return x + h @ a[f"{prefix}.mlp.w2"] + a[f"{prefix}.mlp.b2"]


def np_forward(a, cfg: ModelConfig, content: dict[str, np.ndarray]) -> list[np.ndarray]:
    """Every arch's logits, running every row of every layer and picking
    each CLS row after the last."""
    present = [m for m in cfg.input_modalities if m in content]
    batch = content[present[0]].shape[0]
    x = {}
    for m in present:
        cls = np.broadcast_to(a[f"{m}.cls"], (batch, 1, cfg.embed_dim))
        x[m] = np.concatenate([cls, content[m]], axis=1) + a[f"{m}.pos"]
    for l in range(cfg.fusion_layer):
        x = {m: np_block(a, f"{m}.layers.{l}", x[m], cfg.heads, cfg.ln_eps) for m in present}
    fused = range(cfg.fusion_layer, cfg.layers)
    if cfg.arch == "bottleneck" and fused:
        z = np.broadcast_to(a["z"], (batch, cfg.bottleneck, cfg.embed_dim))
        for l in fused:
            zh = []
            for m in present:
                seq = np.concatenate([x[m], z], axis=1)
                out = np_block(a, f"{m}.layers.{l}", seq, cfg.heads, cfg.ln_eps)
                n = cfg.tokens(m) + 1
                x[m] = out[:, :n]
                zh.append(out[:, n:])
            z = sum(zh) / len(zh)
    elif cfg.arch == "full_sa" and fused:
        joint = np.concatenate([x[m] for m in present], axis=1)
        for l in fused:
            joint = np_block(a, f"audio.layers.{l}", joint, cfg.heads, cfg.ln_eps)
        cuts = np.cumsum([x[m].shape[1] for m in present])[:-1]
        x = dict(zip(present, np.split(joint, cuts, axis=1)))
    else:
        for l in fused:
            x = {m: np_block(a, f"{m}.layers.{l}", x[m], cfg.heads, cfg.ln_eps) for m in present}
    logits = []
    for h in range(len(cfg.n_classes)):
        parts = []
        for m in present:
            cls = np_ln(x[m][:, 0], a[f"{m}.out_ln.g"], a[f"{m}.out_ln.b"], cfg.ln_eps)
            parts.append(cls @ a[f"{m}.head.{h}.w"] + a[f"{m}.head.{h}.b"])
        logits.append(sum(parts) / len(parts))
    return logits


_ORACLE_CASES = [
    pytest.param(fusion_layer, "bottleneck", MODALITIES, id=str(fusion_layer))
    for fusion_layer in (0, 1, 2)
] + [
    pytest.param(fusion_layer, arch, MODALITIES, id=f"{arch}-{fusion_layer}")
    for arch in ARCHS[1:]
    for fusion_layer in (0, 1, 2)
] + [
    # bottleneck with video alone is test_single_modality_matches_oracle
    pytest.param(1, arch, (m,), id=f"{arch}-1-{m}-alone")
    for arch, m in [("bottleneck", "audio"), ("full_sa", "audio"), ("full_sa", "video")]
]


@pytest.mark.parametrize("fusion_layer, arch, present", _ORACLE_CASES)
def test_forward_matches_numpy_oracle(fusion_layer, arch, present):
    # the forward's last layer computes only the CLS rows; the oracle
    # computes every row and picks CLS afterwards
    cfg = tiny_config(fusion_layer=fusion_layer, arch=arch)
    p = float64_params(MbtParameters.init(cfg, seed=3))
    content = {m: c for m, c in random_content(p, batch=3, seed=7).items() if m in present}
    got = forward(p, content)
    want = np_forward(p.as_arrays(), cfg, {m: c.data for m, c in content.items()})
    for g, w in zip(got, want):
        np.testing.assert_allclose(g.data, w, atol=1e-10)


def test_single_modality_matches_oracle():
    cfg = tiny_config(fusion_layer=1)
    p = float64_params(MbtParameters.init(cfg, seed=4))
    content = random_content(p, batch=2, seed=8)
    got = forward(p, {"video": content["video"]})
    want = np_forward(p.as_arrays(), cfg, {"video": content["video"].data})
    for g, w in zip(got, want):
        np.testing.assert_allclose(g.data, w, atol=1e-10)


@pytest.mark.parametrize("arch", ARCHS)
def test_encoding_the_cls_row_equals_encoding_every_row(arch):
    # masked pretraining reads every row, the classifier only CLS
    cfg = tiny_config(fusion_layer=1, arch=arch)
    p = float64_params(MbtParameters.init(cfg, seed=5))
    content = random_content(p, batch=3, seed=9)
    seqs = {m: with_cls_and_pos(p, m, content[m]) for m in MODALITIES}
    full = encode_sequences(p, seqs)
    cls = encode_sequences(p, seqs, np.array([0]))
    assert set(full) == set(cls) == set(cfg.input_modalities)
    for m in cfg.input_modalities:
        assert full[m].shape == (3, cfg.tokens(m) + 1, cfg.embed_dim)
        assert cls[m].shape == (3, 1, cfg.embed_dim)
        np.testing.assert_allclose(cls[m].data, full[m].data[:, :1], rtol=0, atol=1e-12)


def test_no_fusion_equals_average_of_unimodal():
    # with the fusion layer pushed past the top, streams never interact,
    # so the multimodal logits are the plain mean of the unimodal ones
    cfg = tiny_config(fusion_layer=2)
    p = MbtParameters.init(cfg, seed=5)
    content = random_content(p, batch=4, seed=9)
    fused = forward(p, content)
    solo = {m: forward(with_arch(p, f"unimodal:{m}"), content) for m in MODALITIES}
    for h in range(len(cfg.n_classes)):
        want = (solo["audio"][h].data + solo["video"][h].data) / 2
        np.testing.assert_allclose(fused[h].data, want, atol=1e-12)


def test_bottleneck_rows_are_order_free():
    # bottleneck tokens carry no positional information, so permuting the
    # learned rows cannot change any output
    cfg = tiny_config(fusion_layer=0, bottleneck=3)
    p = MbtParameters.init(cfg, seed=6)
    content = random_content(p, batch=2, seed=10)
    base = [t.data.copy() for t in forward(p, content)]
    p["z"].data = p["z"].data[[2, 0, 1]]
    permuted = forward(p, content)
    for b, q in zip(base, permuted):
        np.testing.assert_allclose(b, q.data, atol=1e-12)


def test_cross_modal_traffic_flows_only_through_bottleneck():
    # silence the video head so logits depend on video only via exchange;
    # perturb with noise, not a constant (layer norm absorbs uniform shifts)
    for fusion_layer, expect_coupling in [(2, False), (0, True)]:
        cfg = tiny_config(fusion_layer=fusion_layer)
        p = MbtParameters.init(cfg, seed=7)
        for h in range(len(cfg.n_classes)):
            p[f"video.head.{h}.w"].data[:] = 0.0
            p[f"video.head.{h}.b"].data[:] = 0.0
        content = random_content(p, batch=2, seed=11)
        base = [t.data.copy() for t in forward(p, content)]
        noise = np.random.default_rng(99).standard_normal(content["video"].shape)
        content["video"].data[:] += noise
        moved = forward(p, content)
        changed = any(np.abs(b - m.data).max() > 1e-9 for b, m in zip(base, moved))
        assert changed == expect_coupling


def test_full_sa_uses_every_token_jointly():
    cfg = tiny_config(fusion_layer=1)
    p = MbtParameters.init(cfg, seed=8)
    content = random_content(p, batch=2, seed=12)
    # silencing the video head no longer isolates audio: the shared stack
    # lets video tokens reach the audio CLS directly
    for h in range(len(cfg.n_classes)):
        p[f"video.head.{h}.w"].data[:] = 0.0
        p[f"video.head.{h}.b"].data[:] = 0.0
    p = with_arch(p, "full_sa")
    base = [t.data.copy() for t in forward(p, content)]
    noise = np.random.default_rng(98).standard_normal(content["video"].shape)
    content["video"].data[:] += noise
    moved = forward(p, content)
    assert any(np.abs(b - m.data).max() > 1e-9 for b, m in zip(base, moved))


def test_full_sa_joins_the_modalities_present():
    # with audio alone the joint stack is the audio stack: the unimodal forward
    p = MbtParameters.init(tiny_config(arch="full_sa", fusion_layer=1), seed=9)
    audio = {"audio": random_content(p, batch=2)["audio"]}
    for a, b in zip(forward(p, audio), forward(with_arch(p, "unimodal:audio"), audio)):
        np.testing.assert_array_equal(a.data, b.data)


def test_batch_rows_are_independent():
    cfg = tiny_config(fusion_layer=0)
    p = MbtParameters.init(cfg, seed=10)
    content = random_content(p, batch=3, seed=13)
    batched = forward(p, content)
    for i in range(3):
        single = forward(p, {m: Tensor(c.data[i : i + 1]) for m, c in content.items()})
        for h in range(len(cfg.n_classes)):
            np.testing.assert_allclose(batched[h].data[i], single[h].data[0], atol=1e-10)


def test_embed_content_validates_shape():
    p = MbtParameters.init(tiny_config(), seed=0)
    with pytest.raises(DimensionError):
        embed_content(p, "audio", np.zeros((2, 3, 4)))


@pytest.mark.parametrize("modality", MODALITIES)
def test_selected_rows_path_equals_the_full_path_bit_for_bit(modality):
    # masked pretraining embeds and places chosen token ids; choosing every
    # id must be the classifier's own input, forward and every gradient
    cfg = tiny_config()
    p = MbtParameters.init(cfg, seed=5)
    rng = np.random.default_rng(6)
    n, batch = cfg.tokens(modality), 3
    patches = rng.standard_normal((batch, n, cfg.patch_dim(modality))).astype(np.float32)
    w = Tensor(rng.standard_normal((batch, n + 1, cfg.embed_dim)).astype(np.float32))
    names = [f"{modality}.{k}" for k in ("embed.w", "embed.b", "cls", "pos")]

    def run(rows):
        for name in names:
            p[name].grad = None
        with Tape() as tape:
            seq = with_cls_and_pos(p, modality, embed_content(p, modality, patches, rows), rows)
            tape.backward(ad.sum_(ad.mul(seq, w)))
        return seq.data, [p[name].grad for name in names]

    full, full_grads = run(None)
    picked, picked_grads = run(np.tile(np.arange(n), (batch, 1)))
    np.testing.assert_array_equal(picked, full)
    for name, got, want in zip(names, picked_grads, full_grads):
        np.testing.assert_array_equal(got, want, err_msg=name)


def test_gradients_reach_every_parameter_when_fused():
    cfg = tiny_config(fusion_layer=0)
    p = MbtParameters.init(cfg, seed=11)
    rng = np.random.default_rng(14)
    patches = {
        m: rng.standard_normal((2, cfg.tokens(m), cfg.patch_dim(m))) for m in MODALITIES
    }
    with Tape() as tape:
        content = {m: embed_content(p, m, patches[m]) for m in MODALITIES}
        logits = forward(p, content)
        loss = ad.mean(ad.add(ad.sum_(logits[0]), ad.sum_(logits[1])))
        tape.backward(loss)
    missing = [name for name, t in p.tensors.items() if t.grad is None]
    assert missing == []


_BLOCK_SHAPES = [(1, (1, 3, 4), 2), (2, (2, 5, 8), 2), (4, (64, 37, 32), 4)]
_BLOCK_CASES = [
    pytest.param(
        heads, shape, ratio, rows, id=f"{heads}-shape{i}-{ratio}" + (f"-rows{rows}" if rows else "")
    )
    for i, (heads, shape, ratio) in enumerate(_BLOCK_SHAPES)
    for rows in (None, [0], [2, 0])
]


@pytest.mark.parametrize("heads, shape, ratio, rows", _BLOCK_CASES)
def test_run_block_is_bit_identical_to_primitive_reference(heads, shape, ratio, rows):
    # the fused attention and MLP ops must reproduce the composite exactly,
    # forward and every gradient, so fusing changes no trained weight
    rng = np.random.default_rng(22)
    d = shape[-1]
    widths = {
        "ln1.g": (d,), "ln1.b": (d,), "wqkv": (d, 3 * d), "bqkv": (3 * d,),
        "wo": (d, d), "bo": (d,), "ln2.g": (d,), "ln2.b": (d,),
        "mlp.w1": (d, ratio * d), "mlp.b1": (ratio * d,),
        "mlp.w2": (ratio * d, d), "mlp.b2": (d,),
    }
    arrays = {f"blk.{k}": 0.3 * rng.standard_normal(s) for k, s in widths.items()}
    x0 = rng.standard_normal(shape)
    if rows is not None:
        rows = np.array(rows)
    w = rng.standard_normal(shape if rows is None else (shape[0], len(rows), d))

    def run(block):
        p = {k: Tensor(v.copy()) for k, v in arrays.items()}
        x = Tensor(x0.copy())
        with Tape() as tape:
            out = block(p, "blk", x, heads, 1e-5, rows)
            tape.backward(ad.mean(ad.mul(out, Tensor(w))))
        return out.data, x.grad, {k: t.grad for k, t in p.items()}

    out, gx, grads = run(run_block)
    ref_out, ref_gx, ref_grads = run(reference_block)
    np.testing.assert_array_equal(out, ref_out)
    np.testing.assert_array_equal(gx, ref_gx)
    for name in arrays:
        np.testing.assert_array_equal(grads[name], ref_grads[name], err_msg=name)


def test_grad_run_block_on_rows():
    # finite differences through a block that keeps rows 3 and 0 only
    rng = np.random.default_rng(23)
    b, n, d, heads = 2, 5, 8, 2
    shapes = {
        "ln1.g": (d,), "ln1.b": (d,), "wqkv": (d, 3 * d), "bqkv": (3 * d,),
        "wo": (d, d), "bo": (d,), "ln2.g": (d,), "ln2.b": (d,),
        "mlp.w1": (d, 2 * d), "mlp.b1": (2 * d,), "mlp.w2": (2 * d, d), "mlp.b2": (d,),
    }
    args = [rng.standard_normal((b, n, d))]
    args += [0.4 * rng.standard_normal(shape) for shape in shapes.values()]
    w = Tensor(rng.standard_normal((b, 2, d)))

    def fn(x, *params):
        p = {f"blk.{k}": t for k, t in zip(shapes, params)}
        return ad.mean(ad.mul(run_block(p, "blk", x, heads, 1e-5, np.array([3, 0])), w))

    assert max_relative_error(fn, args) < 1e-5


@pytest.mark.parametrize("arch", ARCHS)
def test_float32_forward_agrees_with_float64(arch):
    # the same weights and patches, computed once in each dtype
    cfg = tiny_config(arch=arch, fusion_layer=1)
    p32 = MbtParameters.init(cfg, seed=17)
    p64 = float64_params(p32)
    rng = np.random.default_rng(18)
    patches = {
        m: rng.standard_normal((3, cfg.tokens(m), cfg.patch_dim(m))) for m in MODALITIES
    }
    got = forward(p32, {m: embed_content(p32, m, x) for m, x in patches.items()})
    want = forward(p64, {m: embed_content(p64, m, x) for m, x in patches.items()})
    for g, w in zip(got, want):
        assert g.data.dtype == np.float32 and w.data.dtype == np.float64
        tol = 16 * np.finfo(np.float32).eps * np.abs(w.data).max()
        np.testing.assert_allclose(g.data, w.data, rtol=0, atol=tol)


def test_unimodal_leaves_other_stack_untouched():
    cfg = tiny_config(arch="unimodal:audio")
    p = MbtParameters.init(cfg, seed=12)
    content = random_content(p, batch=2, seed=15)
    with Tape() as tape:
        logits = forward(p, content)
        tape.backward(ad.mean(logits[0]))
    assert all(t.grad is None for n, t in p.tensors.items() if n.startswith("video."))
    assert p["audio.embed.w"].grad is None  # content was fed directly
    assert p["audio.layers.0.wqkv"].grad is not None


# ---------------------------------------------------------------------------
# configuration and cost accounting


def test_config_validation():
    with pytest.raises(ConfigError):
        tiny_config(embed_dim=10, heads=4)
    with pytest.raises(ConfigError):
        tiny_config(fusion_layer=5)
    with pytest.raises(ConfigError, match="at least one layer"):
        tiny_config(layers=0, fusion_layer=0)
    with pytest.raises(ConfigError):
        tiny_config(bottleneck=0)
    with pytest.raises(ConfigError):
        tiny_config(n_classes=(1,))
    with pytest.raises(ConfigError):
        tiny_config(head_names=("only",))
    with pytest.raises(ConfigError):
        tiny_config(arch="cross")
    with pytest.raises(ConfigError, match="unknown modality 'depth'"):
        tiny_config().tokens("depth")


def test_attention_pair_counts_desk_scale():
    cfg = ModelConfig(
        audio=SpectrogramGeometry(bins=16, frames=64, patch_bins=8, patch_frames=8),
        video=VideoGeometry(frames=4, height=32, width=32, patch_t=2, patch_h=8, patch_w=8),
        embed_dim=32,
        layers=4,
        heads=4,
        fusion_layer=0,
        bottleneck=4,
    )
    # audio 16+1 tokens, video 32+1; +4 bottleneck when fused
    full_sa = replace(cfg, arch="full_sa")
    assert attention_pairs_per_layer(cfg) == [1810, 1810, 1810, 1810]
    assert attention_pairs_per_layer(full_sa) == [2500, 2500, 2500, 2500]
    assert attention_pairs(cfg) < attention_pairs(full_sa)
    # a unimodal model runs its one stream: 33^2 video pairs per layer
    assert attention_pairs_per_layer(replace(cfg, arch="unimodal:video")) == [1089] * 4


@pytest.mark.parametrize("fusion_layer", [0, 1, 2])
@pytest.mark.parametrize("arch", ARCHS)
def test_attention_pairs_count_what_the_encoder_scores(monkeypatch, arch, fusion_layer):
    cfg = tiny_config(arch=arch, fusion_layer=fusion_layer)
    p = MbtParameters.init(cfg, seed=10)
    seqs = {m: with_cls_and_pos(p, m, c) for m, c in random_content(p, batch=2).items()}
    pairs = []
    attend = ad.multi_head_attention

    def spy(qkv, heads, rows=None):
        n = qkv.shape[-2]
        pairs.append((n if rows is None else len(rows)) * n)
        return attend(qkv, heads, rows)

    monkeypatch.setattr(ad, "multi_head_attention", spy)
    encode_sequences(p, seqs)
    assert sum(pairs) == attention_pairs(cfg)


def test_attention_pairs_respect_fusion_layer():
    cfg = tiny_config(fusion_layer=1)
    per = attention_pairs_per_layer(cfg)
    # unfused layer: (4+1)^2 twice; fused adds 2 bottleneck tokens
    assert per == [5**2 + 5**2, 7**2 + 7**2]
    full = attention_pairs_per_layer(replace(cfg, arch="full_sa"))
    assert full == [50, 100]
    assert attention_pairs_per_layer(replace(cfg, arch="unimodal:audio")) == [25, 25]


# ---------------------------------------------------------------------------
# checkpoint container


def test_checkpoint_roundtrip_and_determinism(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {
        "alpha.w": rng.standard_normal((3, 4)),
        "beta": rng.standard_normal(5),
        "scalar": np.array(2.5),
    }
    cfg = {"layers": 2, "note": "tiny"}
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    save_checkpoint(str(p1), arrays, cfg, stage="pretrain")
    save_checkpoint(str(p2), arrays, cfg, stage="pretrain")
    assert p1.read_bytes() == p2.read_bytes()
    loaded, cfg2, stage = load_checkpoint(str(p1))
    assert stage == "pretrain" and cfg2 == cfg
    assert set(loaded) == set(arrays)
    for k in arrays:
        np.testing.assert_array_equal(loaded[k], arrays[k])


def test_checkpoint_rejects_garbage(tmp_path):
    p = tmp_path / "bad.ckpt"
    p.write_bytes(b"NOTACKPT" + b"\x00" * 16)
    with pytest.raises(CheckpointError):
        load_checkpoint(str(p))


def test_checkpoint_rejects_truncation(tmp_path):
    arrays = {"w": np.ones((4, 4))}
    p = tmp_path / "t.ckpt"
    save_checkpoint(str(p), arrays, {}, stage="finetune")
    blob = p.read_bytes()
    p.write_bytes(blob[: len(blob) - 10])
    with pytest.raises(CheckpointError):
        load_checkpoint(str(p))


def _flip_byte(path, marker: bytes) -> None:
    """Set the first byte of ``marker`` in the file at ``path`` to 0xFF."""
    blob = bytearray(path.read_bytes())
    blob[blob.index(marker)] = 0xFF
    path.write_bytes(bytes(blob))


@pytest.mark.parametrize(
    "marker, message",
    [
        pytest.param(b"finetune", "stage tag", id="stage"),
        pytest.param(b'"layers"', "config", id="config"),
        pytest.param(b"alpha.w", "tensor name", id="name"),
    ],
)
def test_checkpoint_with_undecodable_text_is_a_checkpoint_error(tmp_path, marker, message):
    p = tmp_path / "flip.ckpt"
    save_checkpoint(str(p), {"alpha.w": np.ones((2, 2))}, {"layers": 2}, stage="finetune")
    _flip_byte(p, marker)
    with pytest.raises(CheckpointError, match=f"{message} at byte .* is not UTF-8"):
        load_checkpoint(str(p))


@pytest.mark.parametrize(
    "config, message",
    [
        pytest.param(b'{"layers": 2', "not valid JSON", id="invalid-json"),
        pytest.param(b"[1, 2]", "a JSON list, not an object", id="list"),
    ],
)
def test_checkpoint_header_must_be_a_json_object(tmp_path, config, message):
    # the config length prefix sits right before the JSON; rewrite both
    p = tmp_path / "hdr.ckpt"
    save_checkpoint(str(p), {"w": np.ones(2)}, {}, stage="finetune")
    blob = p.read_bytes()
    at = blob.index(b"{}")
    p.write_bytes(blob[: at - 4] + struct.pack("<I", len(config)) + config + blob[at + 2 :])
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(str(p))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_checkpoint_rejects_non_finite_weights(tmp_path, bad):
    arrays = {"good": np.ones(3), "layers.0.wqkv": np.array([[1.0, bad], [0.0, 2.0]])}
    p = tmp_path / "nan.ckpt"
    save_checkpoint(str(p), arrays, {}, stage="finetune")
    with pytest.raises(CheckpointError, match="layers.0.wqkv"):
        load_checkpoint(str(p))


def test_parameters_roundtrip_through_checkpoint(tmp_path):
    cfg = tiny_config()
    p = MbtParameters.init(cfg, seed=13)
    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), p.as_arrays(), asdict(cfg), stage="finetune")
    arrays, cfg_d, stage = load_checkpoint(str(path))
    restored = MbtParameters.from_arrays(decode(ModelConfig, cfg_d), arrays)
    content = random_content(p, batch=2, seed=16)
    for a, b in zip(forward(p, content), forward(restored, content)):
        np.testing.assert_array_equal(a.data, b.data)


def test_float32_parameters_roundtrip_bit_for_bit(tmp_path):
    cfg = tiny_config()
    p = MbtParameters.init(cfg, seed=14)
    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), p.as_arrays(), asdict(cfg), stage="finetune")
    restored = MbtParameters.from_arrays(cfg, load_checkpoint(str(path))[0])
    for name, t in p.tensors.items():
        got = restored[name].data
        assert got.dtype == t.data.dtype == np.float32
        assert got.tobytes() == t.data.tobytes(), name


def test_checkpoint_stores_float32_widened_to_little_endian_float64(tmp_path):
    p = MbtParameters.init(tiny_config(), seed=15)
    narrow, wide = tmp_path / "f32.ckpt", tmp_path / "f64.ckpt"
    save_checkpoint(str(narrow), p.as_arrays(), {}, stage="finetune")
    widened = {k: v.astype(np.float64) for k, v in p.as_arrays().items()}
    save_checkpoint(str(wide), widened, {}, stage="finetune")
    assert narrow.read_bytes() == wide.read_bytes()
    # "z" sorts last, so its payload ends the file
    assert narrow.read_bytes().endswith(p["z"].data.astype("<f8").tobytes())


def test_float64_checkpoint_loads_rounded_to_float32(tmp_path):
    cfg = tiny_config()
    rng = np.random.default_rng(16)
    shapes = {k: v.shape for k, v in MbtParameters.init(cfg, seed=0).as_arrays().items()}
    arrays = {k: rng.standard_normal(shape) for k, shape in shapes.items()}
    path = tmp_path / "old.ckpt"
    save_checkpoint(str(path), arrays, asdict(cfg), stage="finetune")
    restored = MbtParameters.from_arrays(cfg, load_checkpoint(str(path))[0])
    for name, arr in arrays.items():
        assert restored[name].data.dtype == np.float32
        np.testing.assert_array_equal(restored[name].data, arr.astype(np.float32))


def test_from_arrays_validates_names_and_shapes():
    cfg = tiny_config()
    good = MbtParameters.init(cfg, seed=0).as_arrays()
    missing = dict(good)
    missing.pop("z")
    with pytest.raises(CheckpointError):
        MbtParameters.from_arrays(cfg, missing)
    bad = dict(good)
    bad["z"] = np.zeros((1, 1))
    with pytest.raises(CheckpointError):
        MbtParameters.from_arrays(cfg, bad)


def test_init_is_seed_deterministic():
    cfg = tiny_config()
    a = MbtParameters.init(cfg, seed=3).as_arrays()
    b = MbtParameters.init(cfg, seed=3).as_arrays()
    c = MbtParameters.init(cfg, seed=4).as_arrays()
    assert all(np.array_equal(a[k], b[k]) for k in a)
    assert any(not np.array_equal(a[k], c[k]) for k in a)


def test_no_decay_covers_everything_but_linear_weights():
    p = MbtParameters.init(tiny_config(), seed=0)
    exempt = p.no_decay_ids()
    decayed = {n for n, t in p.tensors.items() if id(t) not in exempt}
    assert "z" not in decayed and "audio.pos" not in decayed
    assert "audio.cls" not in decayed and "audio.layers.0.ln1.g" not in decayed
    assert "audio.layers.0.wqkv" in decayed and "video.mlp.w1" not in decayed
    assert "video.layers.1.mlp.w1" in decayed and "audio.head.0.w" in decayed
    assert all(p.tensors[n].data.ndim == 2 for n in decayed)
