"""Masked pretraining: masking laws, masked-only loss, encoder transfer."""

import logging
from dataclasses import asdict

import numpy as np
import pytest

import mmtlab.autodiff as ad
from mmtlab.autodiff import Tape
from mmtlab.errors import CheckpointError, ConfigError, DataError
from mmtlab.mae import (
    MaeConfig,
    MaeDecoders,
    load_pretrained,
    mae_forward,
    mae_step,
    mae_train,
    mask_batch,
    save_pretrained,
    transfer_encoder,
)
from mmtlab.missing import MmtBank
from mmtlab.model import ARCHS, MODALITIES, MbtParameters, load_checkpoint, save_checkpoint
from mmtlab.rng import Stream
from mmtlab.schema import decode
from mmtlab.synthdata import generate
from mmtlab.training import TrainConfig, train

from helpers import (
    float64_params,
    micro_model_config,
    micro_synth_config,
    record_constants,
    record_dead_nodes,
    record_dtypes,
    record_step_grads,
)


def micro_mae_config(**overrides) -> MaeConfig:
    base = dict(decoder_depth=1, decoder_heads=2, decoder_dim=8, epochs=2, batch_size=16)
    base.update(overrides)
    return MaeConfig(**base)


def setup_micro(seed=3, n=32, natural=None, arch="bottleneck"):
    scfg = micro_synth_config(**({"natural_missing": natural} if natural else {}))
    mcfg = micro_model_config(arch=arch)
    ds = generate(scfg, seed=seed, n=n)
    params = MbtParameters.init(mcfg, seed=seed)
    acfg = micro_mae_config()
    dec = MaeDecoders.init(mcfg, acfg, seed=seed)
    return ds, params, dec, acfg


# ---------------------------------------------------------------------------
# masking


def test_mask_partition_and_order():
    rng = Stream(1, "mae-mask").numpy_rng()
    (vis,), (msk,) = mask_batch(1, 10, 0.5, rng)
    assert len(msk) == 5 and len(vis) == 5
    assert set(vis) & set(msk) == set()
    assert set(vis) | set(msk) == set(range(10))
    assert list(vis) == sorted(vis)  # visible keeps original order
    assert list(msk) == sorted(msk)


def test_mask_count_arithmetic():
    rng = Stream(2, "mae-mask").numpy_rng()
    (vis,), (msk,) = mask_batch(1, 400, 0.70, rng)
    assert len(msk) == 280
    assert len(vis) == 120


def test_mask_ratio_errors():
    rng = Stream(3, "mae-mask").numpy_rng()
    with pytest.raises(ConfigError):
        mask_batch(1, 10, 0.0, rng)
    with pytest.raises(ConfigError):
        mask_batch(1, 10, 1.0, rng)
    with pytest.raises(ConfigError):
        mask_batch(1, 10, 0.05, rng)  # floor gives zero masked
    with pytest.raises(ConfigError):
        mask_batch(1, 1, 0.5, rng)  # cannot mask and stay nonempty


def test_mask_uniformity_over_many_draws():
    rng = Stream(7, "mae-mask").numpy_rng()
    draws = 10_000
    _, msk = mask_batch(draws, 16, 0.25, rng)
    freq = np.bincount(msk.ravel(), minlength=16) / draws
    # binomial sd at p=0.25 over 10k draws is ~0.0043; allow well over 4 sd
    assert np.all(np.abs(freq - 0.25) < 0.02), freq


def test_mask_batch_rows_are_independent():
    rng = Stream(8, "mae-mask").numpy_rng()
    vis, msk = mask_batch(64, 8, 0.5, rng)
    assert vis.shape == (64, 4) and msk.shape == (64, 4)
    assert len({tuple(row) for row in msk}) > 1


# ---------------------------------------------------------------------------
# reconstruction and the masked-only loss


def test_decoder_output_shape_matches_patch_volume():
    ds, params, dec, acfg = setup_micro()
    rng = Stream(5, "mae-mask").numpy_rng()
    patches = {m: ds.patches(m)[:4] for m in ("audio", "video")}
    masks = {
        m: mask_batch(4, params.config.tokens(m), acfg.mask_ratio(m), rng)
        for m in patches
    }
    recons, losses = mae_forward(params, dec, acfg, patches, masks)
    for m in patches:
        n, pd = params.config.tokens(m), params.config.patch_dim(m)
        assert recons[m].shape == (4, n, pd)
        assert losses[m].data.shape == ()


def test_loss_gradient_zero_at_visible_reconstructions():
    ds, params, dec, acfg = setup_micro()
    rng = Stream(6, "mae-mask").numpy_rng()
    patches = {m: ds.patches(m)[:3] for m in ("audio", "video")}
    masks = {
        m: mask_batch(3, params.config.tokens(m), acfg.mask_ratio(m), rng)
        for m in patches
    }
    with Tape() as tape:
        recons, losses = mae_forward(params, dec, acfg, patches, masks)
        tape.backward(ad.add(losses["audio"], losses["video"]))
    rows = np.arange(3)[:, None]
    for m in patches:
        vis, msk = masks[m]
        g = recons[m].grad
        assert g is not None
        np.testing.assert_array_equal(g[rows, vis], 0.0)
        assert np.abs(g[rows, msk]).max() > 0.0
    # the mask token sits at every masked position, so it must get gradient
    assert np.abs(dec["audio.dec.mask"].grad).max() > 0.0
    assert np.abs(dec["video.dec.mask"].grad).max() > 0.0


def test_perturbing_a_visible_input_patch_changes_the_loss():
    ds, params, dec, acfg = setup_micro()
    rng = Stream(10, "mae-mask").numpy_rng()
    patches = {"audio": ds.patches("audio")[:2]}
    masks = {"audio": mask_batch(2, params.config.tokens("audio"), 0.5, rng)}
    _, base = mae_forward(params, dec, acfg, patches, masks)

    vis, _ = masks["audio"]
    bumped = {"audio": patches["audio"].copy()}
    bumped["audio"][0, vis[0, 0]] += np.random.default_rng(1).standard_normal(
        patches["audio"].shape[-1]
    )
    _, moved = mae_forward(params, dec, acfg, bumped, masks)
    assert float(moved["audio"].data) != float(base["audio"].data)


def test_single_masked_token_loss_is_that_patch_error_over_volume():
    ds, params, dec, acfg = setup_micro()
    params, dec = float64_params(params), float64_params(dec)
    # 4 audio tokens at ratio 0.25 leaves exactly one masked token
    rng = Stream(11, "mae-mask").numpy_rng()
    patches = {"audio": ds.patches("audio")[:1]}
    masks = {"audio": mask_batch(1, 4, 0.25, rng)}
    recons, losses = mae_forward(params, dec, acfg, patches, masks)
    mi = masks["audio"][1][0, 0]
    expected = np.mean((recons["audio"].data[0, mi] - patches["audio"][0, mi]) ** 2)
    np.testing.assert_allclose(float(losses["audio"].data), expected, rtol=1e-12)


def test_mae_step_draws_masks_and_sums_modalities():
    ds, params, dec, acfg = setup_micro()
    params, dec = float64_params(params), float64_params(dec)
    rng = Stream(12, "mae-mask").numpy_rng()
    patches = {m: ds.patches(m)[:4] for m in ("audio", "video")}
    total, per = mae_step(params, dec, acfg, patches, rng=rng)
    np.testing.assert_allclose(float(total.data), per["audio"] + per["video"], rtol=1e-12)


def test_mask_token_is_not_the_substitution_token():
    ds, params, dec, acfg = setup_micro()
    bank = MmtBank.init(8, seed=3)  # same width as the decoder here
    for m in ("audio", "video"):
        assert dec[f"{m}.dec.mask"] is not bank[m]
        assert not np.array_equal(dec[f"{m}.dec.mask"].data, bank[m].data)


# ---------------------------------------------------------------------------
# pretraining loop


def test_pretraining_is_deterministic_and_loss_drops():
    results = []
    for _ in range(2):
        ds, params, dec, acfg = setup_micro(n=64)
        res = mae_train(params, dec, ds, micro_mae_config(epochs=3), seed=5)
        results.append((params.as_arrays(), dec.as_arrays(), res))
    a, b = results
    for name in a[0]:
        np.testing.assert_array_equal(a[0][name], b[0][name])
    for name in a[1]:
        np.testing.assert_array_equal(a[1][name], b[1][name])
    history = a[2].history
    assert history[-1]["loss"] < history[0]["loss"]


def _unread_by(cfg) -> list[str]:
    """Name prefixes of the encoder parameters ``cfg.arch`` never reads."""
    if cfg.arch == "full_sa":
        return ["z", *(f"video.layers.{l}." for l in range(cfg.fusion_layer, cfg.layers))]
    if cfg.arch.startswith("unimodal:"):
        return ["z", *(f"{m}." for m in MODALITIES if m not in cfg.input_modalities)]
    return []


@pytest.mark.parametrize("arch", ARCHS)
def test_pretraining_touches_exactly_what_the_arch_reads(arch):
    ds, params, dec, _ = setup_micro(n=32, arch=arch)
    readout = [k for k in params.tensors if ".head." in k or ".out_ln." in k]
    unread = _unread_by(params.config)
    before = {k: v.copy() for k, v in {**params.as_arrays(), **dec.as_arrays()}.items()}
    mae_train(params, dec, ds, micro_mae_config(epochs=1), seed=6)
    after = {**params.as_arrays(), **dec.as_arrays()}
    for name, arr in before.items():
        still = name in readout or any(name.startswith(prefix) for prefix in unread)
        assert np.array_equal(arr, after[name]) == still, name


@pytest.mark.parametrize(
    "arch, absent", [("bottleneck", "audio"), ("unimodal:audio", "video"), ("unimodal:video", "audio")]
)
def test_incomplete_samples_are_dropped_or_rejected(arch, absent):
    # a sample is dropped only for missing a modality the arch reads
    ds, params, dec, acfg = setup_micro(n=20, natural={absent: 0.5}, arch=arch)
    res = mae_train(params, dec, ds, micro_mae_config(epochs=1), seed=7)
    read = params.config.input_modalities
    assert res.kept == (10 if absent in read else 20)

    ds.missing[read[0]][:] = True
    with pytest.raises(DataError):
        mae_train(params, dec, ds, micro_mae_config(epochs=1), seed=7)


def test_non_finite_reconstruction_loss_raises_before_any_update():
    ds, params, dec, _ = setup_micro(n=16)
    ds.patches("video")[:] = np.nan
    before = {**params.as_arrays(), **dec.as_arrays()}
    before = {k: v.copy() for k, v in before.items()}
    with pytest.raises(FloatingPointError):
        mae_train(params, dec, ds, micro_mae_config(epochs=1), seed=7)
    after = {**params.as_arrays(), **dec.as_arrays()}
    for k in before:
        np.testing.assert_array_equal(before[k], after[k])


# ---------------------------------------------------------------------------
# configs


def test_desk_and_reference_scale_configs_parse():
    desk = MaeConfig()
    assert (desk.mask_ratio_audio, desk.mask_ratio_video) == (0.70, 0.90)
    assert (desk.decoder_depth, desk.decoder_heads, desk.decoder_dim) == (2, 4, 16)
    ref = MaeConfig(decoder_depth=4, decoder_heads=16, decoder_dim=512)
    assert (ref.decoder_depth, ref.decoder_heads, ref.decoder_dim) == (4, 16, 512)
    assert decode(MaeConfig, asdict(ref)) == ref


def test_config_validation():
    with pytest.raises(ConfigError):
        MaeConfig(mask_ratio_audio=0.0)
    with pytest.raises(ConfigError):
        MaeConfig(mask_ratio_video=1.0)
    with pytest.raises(ConfigError):
        MaeConfig(decoder_dim=15, decoder_heads=4)
    with pytest.raises(ConfigError):
        MaeConfig(warmup_frac=1.0)
    with pytest.raises(ConfigError, match="weight_decay"):
        MaeConfig(weight_decay=-0.01)
    with pytest.raises(ConfigError):
        MaeConfig().mask_ratio("depth")


# ---------------------------------------------------------------------------
# checkpoints and transfer


def test_pretrained_checkpoint_roundtrip(tmp_path):
    ds, params, dec, acfg = setup_micro()
    path = str(tmp_path / "pre.ckpt")
    save_pretrained(path, params, dec)
    params2, dec2 = load_pretrained(path)
    assert params2.config == params.config
    assert dec2.mae == dec.mae
    for name, arr in params.as_arrays().items():
        np.testing.assert_array_equal(arr, params2.as_arrays()[name])
    for name, arr in dec.as_arrays().items():
        np.testing.assert_array_equal(arr, dec2.as_arrays()[name])


def test_load_pretrained_rejects_other_stages(tmp_path):
    ds, params, dec, acfg = setup_micro()
    path = str(tmp_path / "ft.ckpt")
    save_checkpoint(path, params.as_arrays(), asdict(params.config), stage="finetune")
    with pytest.raises(CheckpointError):
        load_pretrained(path)


def test_load_pretrained_rejects_unknown_config_keys(tmp_path):
    ds, params, dec, acfg = setup_micro()
    path = str(tmp_path / "p.ckpt")
    save_pretrained(path, params, dec)
    arrays, config, stage = load_checkpoint(path)
    config["mae"]["legacy_key"] = 1
    save_checkpoint(path, arrays, config, stage)
    with pytest.raises(CheckpointError, match="legacy_key"):
        load_pretrained(path)


def test_transfer_copies_encoder_and_refreshes_the_rest(tmp_path):
    ds, params, dec, acfg = setup_micro(n=32)
    mae_train(params, dec, ds, micro_mae_config(epochs=1), seed=8)
    fresh = transfer_encoder(params, params.config, seed=99)

    for name in fresh.tensors:
        same = np.array_equal(fresh.tensors[name].data, params.tensors[name].data)
        if ".head." in name and name.endswith(".w"):
            # head weights are seed-random, so a fresh seed must differ;
            # head biases and norm gains start deterministic in both
            assert not same, name
        else:
            assert same, name

    # fine-tuning checkpoints carry no decoder weights and survive a round trip
    path = str(tmp_path / "ft.ckpt")
    save_checkpoint(path, fresh.as_arrays(), asdict(fresh.config), stage="finetune")
    arrays, _, stage = load_checkpoint(path)
    assert stage == "finetune"
    assert not any(".dec." in name for name in arrays)
    again = MbtParameters.from_arrays(fresh.config, arrays)
    for name, arr in fresh.as_arrays().items():
        np.testing.assert_array_equal(arr, again.as_arrays()[name])


def test_transfer_rejects_architecture_mismatch():
    ds, params, dec, acfg = setup_micro()
    other = micro_model_config(fusion_layer=0)
    with pytest.raises(CheckpointError):
        transfer_encoder(params, other, seed=1)


def test_pretraining_warm_start_soft_check(caplog):
    """Pretrained init should not be worse at reaching a loss level; log only."""
    ds, params, dec, acfg = setup_micro(n=64)
    mae_train(params, dec, ds, micro_mae_config(epochs=3), seed=13)
    warm = transfer_encoder(params, params.config, seed=13)
    warm_bank = MmtBank.init(params.config.embed_dim, seed=13)
    cold = MbtParameters.init(params.config, seed=13)
    cold_bank = MmtBank.init(params.config.embed_dim, seed=13)

    tcfg = TrainConfig(epochs=3, batch_size=16)
    warm_hist = train(warm, warm_bank, ds, tcfg, seed=21).history
    cold_hist = train(cold, cold_bank, ds, tcfg, seed=21).history
    logging.getLogger("mmtlab").info(
        "warm-start final loss %.4f vs scratch %.4f",
        warm_hist[-1]["loss"],
        cold_hist[-1]["loss"],
    )
    # soft check: both runs finished with finite losses
    assert np.isfinite(warm_hist[-1]["loss"]) and np.isfinite(cold_hist[-1]["loss"])


def test_a_pretraining_step_runs_in_float32(monkeypatch):
    ds, params, dec, _ = setup_micro(n=16)
    seen = record_dtypes(monkeypatch)
    result = mae_train(params, dec, ds, micro_mae_config(epochs=1), seed=2)
    assert result.steps == 1
    assert seen == {np.dtype(np.float32)}


def test_one_micro_mae_step_records_a_pinned_number_of_tape_nodes(monkeypatch):
    # per modality: visible-token embed 1, CLS and positions 5, two encoder
    # blocks of 8, the fused layer's concat and narrow 2, and a decoder of 20
    # (one block); then the bottleneck 1 and the loss sum 1. Averaging the
    # last layer's bottleneck, which nothing read, took 4 more: 94.
    counts = []
    backward = Tape.backward

    def spy(tape, loss):
        counts.append(len(tape.nodes))
        backward(tape, loss)

    monkeypatch.setattr(Tape, "backward", spy)
    ds, params, dec, acfg = setup_micro(n=16)
    mae_train(params, dec, ds, micro_mae_config(epochs=1), seed=1)
    assert counts == [90]


def test_a_pretraining_step_records_only_nodes_the_loss_reads(monkeypatch):
    dead = record_dead_nodes(monkeypatch)
    ds, params, dec, _ = setup_micro(n=16)
    mae_train(params, dec, ds, micro_mae_config(epochs=1), seed=1)
    assert dead == [[]]


def _one_pretraining_step(monkeypatch, plain: bool):
    made = record_constants(monkeypatch, plain)
    grads = record_step_grads(monkeypatch)
    ds, params, dec, _ = setup_micro(n=16)
    mae_train(params, dec, ds, micro_mae_config(epochs=1), seed=2)
    monkeypatch.undo()
    return made, grads


def test_mae_data_leaves_take_no_gradient_and_leave_every_parameter_gradient_alone(monkeypatch):
    # each modality's visible patches and its masked targets are data
    made, grads = _one_pretraining_step(monkeypatch, plain=False)
    plain_made, plain_grads = _one_pretraining_step(monkeypatch, plain=True)
    assert len(grads) == 1 and len(made) == 4
    assert all(t.grad is None for t in made)
    assert all(t.grad is not None for t in plain_made)
    for got, want in zip(grads[0], plain_grads[0], strict=True):
        assert (got is None) == (want is None)
        if got is not None:
            assert got.dtype == want.dtype and np.array_equal(got, want)
