import math
from dataclasses import asdict

import numpy as np
import pytest

from helpers import (
    LoopAdamW,
    micro_model_config,
    micro_synth_config,
    record_constants,
    record_dead_nodes,
    record_dtypes,
    record_step_grads,
)
from mmtlab import optim
from mmtlab.autodiff import Tape
from mmtlab.errors import ConfigError, DataError
from mmtlab.missing import MmtBank
from mmtlab.model import ARCHS, MbtParameters
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


def test_one_micro_train_step_records_a_pinned_number_of_tape_nodes(monkeypatch):
    # per modality: embed 1, token swap 4, CLS and positions 3, a block of
    # 8, the fused layer's concat 1 and its CLS-only block of 9 (8 and the
    # residual's row select); then the bottleneck 1, the readout 12 (per
    # modality a reshape and one output norm, per head two linears and
    # their average) and the two heads' cross-entropy 9. With every row in
    # the last block, the narrows and average of a bottleneck nothing read,
    # and an output norm per head, it recorded 82.
    counts = []
    backward = Tape.backward

    def spy(tape, loss):
        counts.append(len(tape.nodes))
        backward(tape, loss)

    monkeypatch.setattr(Tape, "backward", spy)
    ds, params, bank = fresh(n=16)
    tcfg = micro_train_config(epochs=1, replace_probs={"audio": 0.3, "video": 0.3})
    train(params, bank, ds, tcfg, seed=1)
    assert counts == [74]


@pytest.mark.parametrize("arch", ARCHS)
def test_a_train_step_records_only_nodes_the_loss_reads(monkeypatch, arch):
    dead = record_dead_nodes(monkeypatch)
    ds, params, bank = fresh(n=16, arch=arch)
    tcfg = micro_train_config(epochs=1, replace_probs={"audio": 0.3, "video": 0.3})
    train(params, bank, ds, tcfg, seed=1)
    assert dead == [[]]


def _one_step(monkeypatch, plain: bool):
    made = record_constants(monkeypatch, plain)
    grads = record_step_grads(monkeypatch)
    ds, params, bank = fresh(n=16)
    tcfg = micro_train_config(epochs=1, replace_probs={"audio": 0.5}, use_class_weights=True)
    train(params, bank, ds, tcfg, seed=4)
    monkeypatch.undo()
    return made, grads


def test_data_leaves_take_no_gradient_and_leave_every_parameter_gradient_alone(monkeypatch):
    # the patches, the mmt blend weights and the class weights are data
    made, grads = _one_step(monkeypatch, plain=False)
    plain_made, plain_grads = _one_step(monkeypatch, plain=True)
    shapes = [t.shape for t in made]
    assert len(grads) == 1 and len(made) == 6  # audio and video patches, two masks, two weights
    assert sum(len(s) == 3 and s[1:] == (1, 1) for s in shapes) == 2  # the blend weights
    assert all(t.grad is None for t in made)
    assert [t.shape for t in plain_made] == shapes
    assert all(t.grad is not None for t in plain_made)
    for got, want in zip(grads[0], plain_grads[0], strict=True):
        assert (got is None) == (want is None)
        if got is not None:
            assert got.dtype == want.dtype and np.array_equal(got, want)


def test_training_with_the_flat_adamw_equals_the_per_tensor_loop(monkeypatch):
    # two epochs of three steps; with no natural absence the video token
    # never has a grad, and the audio token has none in a step where no
    # sample swaps audio: both must then stay put
    tcfg = micro_train_config(replace_probs={"audio": 0.05})
    grads = record_step_grads(monkeypatch)
    ds, params, bank = fresh()
    train(params, bank, ds, tcfg, seed=5)
    flat = snapshot(params, bank)
    absent = [sum(g is None for g in step) for step in grads]
    assert min(absent) == 1 and max(absent) == 2

    monkeypatch.setattr(optim, "AdamW", LoopAdamW)
    ds, params, bank = fresh()
    train(params, bank, ds, tcfg, seed=5)
    loop = snapshot(params, bank)
    for k in flat:
        assert np.array_equal(flat[k], loop[k]), k
