import math
from dataclasses import asdict

import numpy as np
import pytest

from helpers import micro_model_config, micro_synth_config, record_dtypes
from mmtlab.errors import ConfigError, DataError
from mmtlab.missing import MmtBank
from mmtlab.model import MbtParameters
from mmtlab.schema import decode
from mmtlab.synthdata import generate
from mmtlab.training import TrainConfig, train, training_missing_masks


def micro_train_config(**overrides) -> TrainConfig:
    base = dict(epochs=2, batch_size=16, base_lr=1e-3, weight_decay=0.01)
    base.update(overrides)
    return TrainConfig(**base)


def fresh(seed=1, n=48, scfg=None, arch="bottleneck"):
    scfg = scfg or micro_synth_config()
    ds = generate(scfg, seed=seed, n=n, split="train")
    mcfg = micro_model_config(arch=arch)
    params = MbtParameters.init(mcfg, seed=seed)
    bank = MmtBank.init(mcfg.embed_dim, seed=seed)
    return ds, params, bank


def snapshot(params, bank=None):
    arrays = {k: v.copy() for k, v in params.as_arrays().items()}
    if bank is not None:
        arrays.update({k: v.copy() for k, v in bank.as_arrays().items()})
    return arrays


def test_training_is_deterministic():
    tcfg = micro_train_config(replace_probs={"audio": 0.3})
    runs = []
    for _ in range(2):
        ds, params, bank = fresh()
        train(params, bank, ds, tcfg, seed=7)
        runs.append(snapshot(params, bank))
    for k in runs[0]:
        np.testing.assert_array_equal(runs[0][k], runs[1][k])

    ds, params, bank = fresh()
    train(params, bank, ds, tcfg, seed=8)
    other = snapshot(params, bank)
    assert any(not np.array_equal(runs[0][k], other[k]) for k in other)


def test_loss_decreases_on_learnable_data():
    ds, params, bank = fresh(n=96)
    tcfg = micro_train_config(epochs=6, base_lr=3e-3)
    result = train(params, bank, ds, tcfg, seed=3)
    assert len(result.history) == 6
    assert result.history[-1]["loss"] < result.history[0]["loss"]
    assert result.steps == 6 * math.ceil(96 / 16)
    assert result.kept == 96


def test_history_tracks_schedule():
    ds, params, bank = fresh()
    result = train(params, bank, ds, micro_train_config(), seed=3)
    assert [h["epoch"] for h in result.history] == [0, 1]
    assert all(h["lr"] >= 0 for h in result.history)


def test_mmt_token_updates_only_when_substitution_happens():
    ds, params, bank = fresh()
    before = bank["audio"].data.copy()
    train(params, bank, ds, micro_train_config(replace_probs={"audio": 0.8}), seed=5)
    assert not np.array_equal(bank["audio"].data, before)

    ds2, params2, bank2 = fresh()
    before_a = bank2["audio"].data.copy()
    before_v = bank2["video"].data.copy()
    train(params2, bank2, ds2, micro_train_config(), seed=5)  # p=0, complete data
    np.testing.assert_array_equal(bank2["audio"].data, before_a)
    np.testing.assert_array_equal(bank2["video"].data, before_v)


def test_unimodal_training_leaves_other_stack_frozen():
    ds, params, bank = fresh(arch="unimodal:audio")
    before = snapshot(params)
    train(params, bank, ds, micro_train_config(), seed=2)
    after = snapshot(params)
    for k in before:
        if k.startswith("video.") or k == "z":
            np.testing.assert_array_equal(before[k], after[k])
    assert not np.array_equal(before["audio.layers.0.wqkv"], after["audio.layers.0.wqkv"])


def test_full_sa_training_runs_and_uses_shared_stack():
    ds, params, bank = fresh(arch="full_sa")
    mcfg = params.config
    before = snapshot(params)
    train(params, bank, ds, micro_train_config(), seed=2)
    after = snapshot(params)
    top = mcfg.layers - 1
    # video's top block is unused in this mode, audio's is shared
    np.testing.assert_array_equal(before[f"video.layers.{top}.wqkv"], after[f"video.layers.{top}.wqkv"])
    assert not np.array_equal(before[f"audio.layers.{top}.wqkv"], after[f"audio.layers.{top}.wqkv"])


def test_filter_incomplete_trains_on_complete_samples_only():
    scfg = micro_synth_config(natural_missing={"audio": 0.5})
    ds, params, bank = fresh(scfg=scfg)
    result = train(params, bank, ds, micro_train_config(filter_incomplete=True), seed=1)
    assert result.kept == len(ds) - int(0.5 * len(ds))


def test_filtering_everything_is_an_error():
    scfg = micro_synth_config(natural_missing={"audio": 0.75, "video": 0.75})
    ds, params, bank = fresh(scfg=scfg, n=8)
    # independent shuffles leave no fully complete sample here
    masks = training_missing_masks(ds, micro_train_config(), seed=1)
    complete = ~(masks["audio"] | masks["video"])
    if complete.any():  # seed-dependent safety: force the condition
        ds.missing["audio"][:] = True
    with pytest.raises(DataError):
        train(params, bank, ds, micro_train_config(filter_incomplete=True), seed=1)


def test_induced_missing_extends_natural():
    scfg = micro_synth_config(natural_missing={"video": 0.25})
    ds, params, bank = fresh(scfg=scfg, n=40)
    tcfg = micro_train_config(induced_missing={"video": 0.5})
    masks = training_missing_masks(ds, tcfg, seed=9)
    assert masks["video"].sum() == 20
    assert np.all(masks["video"][ds.missing["video"]])
    np.testing.assert_array_equal(masks["audio"], ds.missing["audio"])
    train(params, bank, ds, tcfg, seed=9)  # runs: incomplete handled by bank


def test_non_finite_step_loss_raises_before_any_update():
    ds, params, bank = fresh()
    ds.patches("audio")[:] = np.nan
    before = snapshot(params, bank)
    with pytest.raises(FloatingPointError):
        train(params, bank, ds, micro_train_config(), seed=1)
    after = snapshot(params, bank)
    for k in before:
        np.testing.assert_array_equal(before[k], after[k])


def test_class_weighted_training_runs():
    ds, params, bank = fresh()
    result = train(params, bank, ds, micro_train_config(use_class_weights=True), seed=4)
    assert np.isfinite(result.history[-1]["loss"])


def test_config_validation_and_roundtrip():
    with pytest.raises(ConfigError):
        micro_train_config(epochs=0)
    with pytest.raises(ConfigError, match="base_lr"):
        micro_train_config(base_lr=0.0)
    with pytest.raises(ConfigError, match="weight_decay"):
        micro_train_config(weight_decay=-0.01)
    with pytest.raises(ConfigError):
        micro_model_config(arch="late_fusion")
    with pytest.raises(ConfigError):
        micro_train_config(replace_probs={"video": 2.0})
    with pytest.raises(ConfigError):
        micro_train_config(induced_missing={"depth": 0.5})
    tcfg = micro_train_config(replace_probs={"video": 0.25}, induced_missing={"video": 0.5})
    assert decode(TrainConfig, asdict(tcfg)) == tcfg


def test_a_train_step_runs_in_float32(monkeypatch):
    # replacement, class weights and a partly missing modality cover every
    # constant the batch loss builds (blend weights, class weights)
    ds, params, bank = fresh(n=16, scfg=micro_synth_config(natural_missing={"audio": 0.25}))
    tcfg = micro_train_config(epochs=1, replace_probs={"video": 0.5}, use_class_weights=True)
    seen = record_dtypes(monkeypatch)
    result = train(params, bank, ds, tcfg, seed=2)
    assert result.steps == 1
    assert seen == {np.dtype(np.float32)}
