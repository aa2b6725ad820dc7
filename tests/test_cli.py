"""Config schema, command pipeline, reports, and reproducibility."""

import json
import shutil
import xml.etree.ElementTree as ET
from dataclasses import asdict
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from mmtlab.cli import main
from mmtlab.config import (
    EvalConfig,
    RunConfig,
    check_data_compat,
    check_feasible_rates,
    load_run_config,
    preset_path,
)
from mmtlab.errors import ConfigError, InfeasibleRateError, SchemaError
from mmtlab.missing import MmtBank, SubstitutionMethod
from mmtlab.model import MbtParameters, ModelConfig, load_checkpoint, save_checkpoint
from mmtlab.protocol import MetricsTable, evaluate, make_test_variants
from mmtlab.report import render_svg, render_text
from mmtlab.schema import decode
from mmtlab.synthdata import SynthConfig, _natural_masks, build_schedule, generate
from mmtlab.tokenizer import DESK_AUDIO


# every shipped preset must run; the full-size reference config is a
# parse-only fixture, since no desk-scale generator renders its sizes
PRESETS = sorted(
    p.name.removesuffix(".json")
    for p in resources.files("mmtlab").joinpath("presets").iterdir()
    if p.name.endswith(".json")
)
REFERENCE_SCALE = str(Path(__file__).parent / "data" / "reference-scale.json")


MICRO_GEO = {
    "audio": {"bins": 8, "frames": 8, "patch_bins": 4, "patch_frames": 4},
    "video": {"frames": 2, "height": 8, "width": 8, "patch_t": 2, "patch_h": 4, "patch_w": 4},
}


def micro_cfg_dict(out: str, **extra) -> dict:
    cfg = {
        "synth": dict(MICRO_GEO),
        "model": {
            **MICRO_GEO,
            "embed_dim": 16,
            "layers": 2,
            "heads": 2,
            "mlp_ratio": 2,
            "fusion_layer": 1,
            "bottleneck": 2,
        },
        "train": {"epochs": 2, "batch_size": 32, "replace_probs": {"video": 0.25}},
        "mae": {"decoder_depth": 1, "decoder_heads": 2, "decoder_dim": 8, "epochs": 1},
        "data": {"n_train": 64, "n_test": 32},
        "eval": {"method": "mmt", "missing": "video", "rates": [0, 50, 100]},
        "seed": 1,
        "seeds": [1],
        "out": out,
    }
    cfg.update(extra)
    return cfg


def micro_preset(tmp_path: Path, preset: str, **model) -> str:
    """A shipped preset at the micro geometry, keeping its natural missing
    rates, replacement probabilities and eval section."""
    micro = micro_cfg_dict(str(tmp_path / "run"))
    with open(preset_path(preset)) as f:
        cfg = json.load(f)
    cfg["synth"].update(micro["synth"])
    cfg["model"].update(micro["model"], **model)
    cfg["train"].update(epochs=2, batch_size=32)
    cfg.update(data=micro["data"], out=micro["out"])
    path = tmp_path / f"{preset}.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def write_cfg(tmp_path: Path, name="cfg.json", **extra) -> str:
    out = extra.pop("out", str(tmp_path / "run"))
    path = tmp_path / name
    with open(path, "w") as f:
        json.dump(micro_cfg_dict(out, **extra), f)
    return str(path)


# ---------------------------------------------------------------------------
# config schema


def test_presets_load_and_pass_compat_checks():
    for name in PRESETS:
        cfg = load_run_config(preset_path(name))
        check_data_compat(cfg)
    ek = load_run_config(preset_path("epic-kitchens-like"))
    assert ek.train.replace_probs == {"video": 0.25}
    es = load_run_config(preset_path("epic-sounds-like"))
    assert es.train.replace_probs == {"audio": 0.6}
    assert es.model.n_classes == (4,)
    eg = load_run_config(preset_path("ego4d-ar-like"))
    assert eg.train.use_class_weights
    assert eg.synth.natural_missing == {"audio": 0.29, "video": 0.27}


def test_reference_scale_preset_parses_with_full_size_values():
    cfg = load_run_config(REFERENCE_SCALE)
    m = cfg.model
    assert (m.layers, m.heads, m.embed_dim) == (12, 12, 768)
    assert (m.fusion_layer, m.bottleneck) == (8, 4)
    assert m.tokens("audio") == 400
    assert m.tokens("video") == 1568
    a = cfg.mae
    assert (a.mask_ratio_audio, a.mask_ratio_video) == (0.7, 0.9)
    assert (a.decoder_depth, a.decoder_heads, a.decoder_dim) == (4, 16, 512)


def test_unknown_keys_are_rejected_with_full_paths():
    with pytest.raises(SchemaError) as e:
        load_run_config(
            {"bogus": 1, "model": {"widht": 3}, "synth": {"audio": {"bin": 2}}}
        )
    assert e.value.offending_keys == ("bogus", "model.widht", "synth.audio.bin")


@pytest.mark.parametrize(
    "section, values, path",
    [
        ("train", {"epochs": "16"}, "train.epochs"),
        ("model", {"layers": True}, "model.layers"),
        ("eval", {"rates": "50"}, "eval.rates"),
        ("data", {"n_train": 1.7}, "data.n_train"),
        ("train", {"batch_size": 64.5}, "train.batch_size"),
        ("train", {"replace_probs": {"video": "0.25"}}, "train.replace_probs.video"),
        ("model", {"audio": 5}, "model.audio"),
    ],
)
def test_wrong_typed_values_are_rejected_by_path(section, values, path):
    cfg = json.loads(Path(preset_path("epic-kitchens-like")).read_text())
    cfg[section] = {**cfg.get(section, {}), **values}
    with pytest.raises(SchemaError) as e:
        load_run_config(cfg)
    assert e.value.offending_keys == (path,)
    assert path in str(e.value)


def test_partial_geometry_override_keeps_the_other_defaults():
    cfg = load_run_config({"model": {"audio": {"frames": 32}}})
    assert cfg.model.audio.frames == 32
    assert (cfg.model.audio.bins, cfg.model.audio.patch_bins) == (DESK_AUDIO.bins, DESK_AUDIO.patch_bins)
    assert cfg.model.audio.patch_frames == DESK_AUDIO.patch_frames
    assert cfg.synth.audio == DESK_AUDIO


@pytest.mark.parametrize("preset", [*PRESETS, "reference-scale"])
@pytest.mark.parametrize("section", ["synth", "model", "train", "mae", "run"])
def test_decode_inverts_asdict(preset, section):
    cfg = load_run_config(REFERENCE_SCALE if preset == "reference-scale" else preset_path(preset))
    x = cfg if section == "run" else getattr(cfg, section)
    assert decode(type(x), asdict(x)) == x
    assert decode(type(x), json.loads(json.dumps(asdict(x)))) == x


def test_unknown_preset_lists_available_ones():
    with pytest.raises(ConfigError, match="epic-kitchens-like"):
        preset_path("not-a-preset")


def test_config_roundtrip_and_overrides(tmp_path):
    path = write_cfg(tmp_path)
    cfg = load_run_config(path)
    again = load_run_config(asdict(cfg))
    assert again == cfg
    winner = load_run_config(path, {"seed": 9, "out": "elsewhere"})
    assert winner.seed == 9 and winner.out == "elsewhere"


def test_eval_rates_below_the_natural_rate_fail_at_load():
    eg = json.loads(Path(preset_path("ego4d-ar-like")).read_text())
    assert load_run_config(eg).eval.rates[0] == 27.0  # int(0.27 * n) on both sides
    eg["eval"]["rates"] = [25, 50]
    with pytest.raises(ConfigError, match="eval.rates: 25% of"):
        load_run_config(eg)
    # the generator's arithmetic: 26.9% of 100 samples rounds down to 26 < 27
    eg["data"]["n_test"], eg["eval"]["rates"] = 100, [26.9]
    with pytest.raises(ConfigError, match="below the 27"):
        load_run_config(eg)


def accepts(check, *args) -> bool:
    try:
        check(*args)
    except (ConfigError, InfeasibleRateError):
        return False
    return True


@pytest.mark.parametrize("natural", [0.1, 0.27, 0.29, 0.3, 0.5, 0.75])
def test_config_accepts_exactly_the_rates_a_schedule_can_honour(natural):
    # the config, the generator and the schedules count missing samples
    # the same way, so the load-time check never disagrees with the run
    synth = SynthConfig(natural_missing={"video": natural})
    cfg = RunConfig(synth=synth, eval=EvalConfig(rates=(100.0,)))
    rates = sorted({*np.arange(0.0, 100.01, 0.5).tolist(), 26.9, 28.99, 29.0, 29.01})
    for n in (1, 7, 10, 64, 100, 128, 333):
        natural_mask = _natural_masks(synth, 3, "test", n)["video"]
        schedule = build_schedule(natural_mask, 3, "test-missing")
        for r in rates:
            want = accepts(schedule.mask_at, r / 100.0)
            assert accepts(check_feasible_rates, cfg, "rates", "video", [r / 100.0], n) == want, (n, r)


def test_geometry_mismatch_is_caught_before_running():
    cfg = load_run_config({"model": {"audio": {"bins": 16, "frames": 16, "patch_bins": 4, "patch_frames": 4}}})
    with pytest.raises(ConfigError, match="audio geometry"):
        check_data_compat(cfg)


# ---------------------------------------------------------------------------
# commands


def test_train_eval_metrics_are_byte_identical_across_reruns(tmp_path):
    blobs = []
    for sub in ("a", "b"):
        out = str(tmp_path / sub)
        path = write_cfg(tmp_path, name=f"{sub}.json", out=out)
        assert main(["train", "--config", path]) == 0
        assert main(["eval", "--config", path]) == 0
        blobs.append((Path(out) / "metrics.csv").read_bytes())
    assert blobs[0] == blobs[1]
    # idempotence: evaluating again on top changes nothing
    path = str(tmp_path / "a.json")
    assert main(["eval", "--config", path]) == 0
    assert (tmp_path / "a" / "metrics.csv").read_bytes() == blobs[0]


def test_all_methods_agree_when_nothing_is_missing(tmp_path):
    path = write_cfg(tmp_path)
    assert main(["train", "--config", path]) == 0
    for method in ("mmt", "zeros", "skip"):
        assert main(["eval", "--config", path, "--method", method, "--rtest", "0"]) == 0
    table = MetricsTable.load(str(tmp_path / "run" / "metrics.csv"))
    by_method = {}
    for m, r, h, s, acc, n in table.rows:
        assert r == 0.0
        by_method.setdefault(m, []).append((h, acc))
    assert len(by_method) == 3
    reference = sorted(by_method["mmt"])
    for m in ("zeros", "skip"):
        assert sorted(by_method[m]) == reference


def test_pretrain_then_train_from_checkpoint(tmp_path):
    path = write_cfg(tmp_path)
    assert main(["pretrain", "--config", path]) == 0
    run = tmp_path / "run"
    assert main(["train", "--config", path, "--checkpoint", str(run / "pretrain.ckpt")]) == 0
    assert (run / "model.ckpt").exists()
    log = json.loads((run / "pretrain_log.json").read_text())
    assert log["kept"] == 64 and len(log["history"]) == 1


def test_degenerate_sweep_matches_train_plus_eval(tmp_path):
    path = write_cfg(tmp_path)
    assert main(["train", "--config", path]) == 0
    assert main(["eval", "--config", path]) == 0
    direct = MetricsTable.load(str(tmp_path / "run" / "metrics.csv"))

    out = str(tmp_path / "sw")
    assert main(["sweep", "--config", path, "--out", out, "--axis", "p", "--grid", "0.25"]) == 0
    swept = MetricsTable.load(str(Path(out) / "metrics.csv"))

    direct_vals = {(r, h, s): acc for m, r, h, s, acc, n in direct.rows}
    swept_vals = {(r, h, s): acc for m, r, h, s, acc, n in swept.rows}
    assert swept_vals == direct_vals
    assert all(m == "mmt|p=0.25" for m, *_ in swept.rows)


def test_sweep_resumes_to_identical_bytes(tmp_path):
    path = write_cfg(tmp_path)
    out = str(tmp_path / "sw")
    args = ["sweep", "--config", path, "--out", out, "--axis", "fusion_layer", "--grid", "0,2"]
    assert main(args) == 0
    first = (Path(out) / "metrics.csv").read_bytes()
    # drop some rows and rerun: the cells are re-evaluated from cached models
    table = MetricsTable.load(str(Path(out) / "metrics.csv"))
    table.rows = table.rows[:2]
    table.save(str(Path(out) / "metrics.csv"))
    assert main(args) == 0
    assert (Path(out) / "metrics.csv").read_bytes() == first


def test_parallel_sweep_matches_sequential(tmp_path, monkeypatch):
    # every file of the run directory: metrics, cell checkpoints, train logs,
    # configs and the manifest; configs record ``out``, so both runs use one
    path = write_cfg(tmp_path)
    out = tmp_path / "sweep"
    argv = ["sweep", "--config", path, "--out", str(out), "--axis", "p", "--grid", "0.1,0.6"]

    def run() -> dict:
        assert main(argv) == 0
        files = {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
        shutil.rmtree(out)
        return files

    seq = run()
    monkeypatch.setenv("MMTLAB_THREADS", "2")
    par = run()
    cells = [
        f"cells/p={v}-seed=1/{name}"
        for v in ("0.1", "0.6")
        for name in ("config.json", "model.ckpt", "train_log.json")
    ]
    assert sorted(seq) == sorted(par) == sorted(cells + ["config.json", "manifest.json", "metrics.csv"])
    assert [k for k in seq if seq[k] != par[k]] == []


@pytest.mark.parametrize("preset", PRESETS)
def test_desk_preset_runs_train_eval_report(tmp_path, preset):
    path = micro_preset(tmp_path, preset)
    assert main(["train", "--config", path]) == 0
    assert main(["eval", "--config", path]) == 0
    run = tmp_path / "run"
    assert main(["report", str(run / "metrics.csv")]) == 0
    cfg = load_run_config(path)
    table = MetricsTable.load(str(run / "metrics.csv"))
    want = {(r, h) for r in cfg.eval.rates for h in cfg.model.head_names}
    assert {(r, h) for _, r, h, *_ in table.rows} == want
    assert (run / "report.svg").exists()


@pytest.mark.parametrize(
    "arch, method",
    [
        pytest.param("full_sa", None, id="full_sa"),
        pytest.param("unimodal:audio", None, id="unimodal:audio"),
        pytest.param("full_sa", "skip", id="full_sa-skip"),
    ],
)
def test_eval_scores_the_arch_the_model_was_trained_with(tmp_path, arch, method):
    path = micro_preset(tmp_path, "epic-kitchens-like", arch=arch)
    assert main(["train", "--config", path]) == 0
    assert main(["eval", "--config", path] + (["--method", method] if method else [])) == 0
    run = tmp_path / "run"
    arrays, ckpt_cfg, _ = load_checkpoint(str(run / "model.ckpt"))
    mcfg = decode(ModelConfig, ckpt_cfg["model"])
    assert mcfg.arch == arch
    mmt = {k: v for k, v in arrays.items() if k.startswith("mmt.")}
    params = MbtParameters.from_arrays(mcfg, {k: v for k, v in arrays.items() if k not in mmt})
    bank = MmtBank.from_arrays(mcfg.embed_dim, mmt)

    cfg = load_run_config(path)
    method = method or cfg.eval.method
    ds = generate(cfg.synth, cfg.seed, cfg.data.n_test, split="test")
    variants = make_test_variants(
        ds.missing[cfg.eval.missing], [r / 100.0 for r in cfg.eval.rates], cfg.seed
    )
    direct = MetricsTable()
    for r in cfg.eval.rates:
        missing = {**ds.missing, cfg.eval.missing: variants[r / 100.0]}
        res = evaluate(params, bank, ds, missing, SubstitutionMethod.parse(method))
        for h, name in enumerate(mcfg.head_names):
            direct.add(method, r, name, cfg.seed, res["per_head"][h], res["n"])
    assert (run / "metrics.csv").read_text() == direct.to_csv()


def test_infeasible_r_train_grid_fails_before_training(tmp_path, capsys):
    path = micro_preset(tmp_path, "ego4d-ar-like")
    out = tmp_path / "sw"
    args = ["sweep", "--config", path, "--out", str(out), "--axis", "r_train", "--grid", "50,20"]
    code = main(args)
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ConfigError"
    assert "train.induced_missing.video: 20% of 64 samples" in record["message"]
    assert not (out / "cells").exists()


@pytest.mark.parametrize(
    "command, sections, field",
    [
        # 5% of 64 is 3 samples, below the 12 already absent at 20%
        (
            "train",
            {"synth": {"natural_missing": {"audio": 0.2}}, "train": {"induced_missing": {"audio": 0.05}}},
            "train.induced_missing.audio",
        ),
        # 20% of 4 audio tokens masks none
        ("pretrain", {"mae": {"mask_ratio_audio": 0.2}}, "mae.mask_ratio_audio"),
    ],
)
def test_impossible_requests_fail_at_load_before_anything_is_written(
    tmp_path, capsys, command, sections, field
):
    out = tmp_path / "run"
    cfg = micro_cfg_dict(str(out))
    for section, values in sections.items():
        cfg[section] = {**cfg[section], **values}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(path)]) == 2
    [record] = error_records(capsys)
    assert record["error"] == "ConfigError"
    assert record["message"].startswith(field)
    assert not out.exists()


@pytest.mark.parametrize(
    "command, extra, field",
    [
        ("sweep", {"seeds": [1, 1]}, "seeds"),
        # the random streams key on seed mod 2**64: these alias 0 and 2**64 - 1
        ("sweep", {"seeds": [0, 2**64]}, "seeds"),
        ("sweep", {"seeds": [-1, 2]}, "seeds"),
        ("train", {"seed": -1}, "seed"),
        ("train", {"seed": 2**64}, "seed"),
    ],
)
def test_seeds_that_name_one_run_twice_fail_at_load(tmp_path, capsys, command, extra, field):
    out = tmp_path / "run"
    path = write_cfg(tmp_path, out=str(out), **extra)
    sweep = ["--axis", "p", "--grid", "0"] if command == "sweep" else []
    assert main([command, "--config", path, *sweep]) == 2
    [record] = error_records(capsys)
    assert record["error"] == "ConfigError"
    assert record["message"].startswith(f"{field}: ")
    assert not out.exists()


def test_sweep_rejects_fractional_fusion_layers(tmp_path, capsys):
    path = write_cfg(tmp_path)
    code = main(["sweep", "--config", path, "--out", str(tmp_path / "x"), "--axis", "fusion_layer", "--grid", "0.5"])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ConfigError"


# ---------------------------------------------------------------------------
# error records


def test_missing_checkpoint_yields_error_record(tmp_path, capsys):
    path = write_cfg(tmp_path)
    code = main(["eval", "--config", path, "--checkpoint", str(tmp_path / "no.ckpt")])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "FileNotFoundError"
    assert record["command"] == "eval"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflows on the way there
def test_a_diverging_run_yields_error_record_and_no_checkpoint(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = micro_cfg_dict(str(out))
    cfg["train"] = {**cfg["train"], "base_lr": 1e30}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(path)]) == 2
    [record] = error_records(capsys)
    assert record["error"] == "FloatingPointError"
    assert record["command"] == "train"
    assert "non-finite" in record["message"]
    assert not (out / "model.ckpt").exists()


@pytest.mark.parametrize("marker", [b'"model"', b"audio.embed.w"], ids=["config", "name"])
def test_corrupted_checkpoint_yields_error_record(tmp_path, capsys, marker):
    path = write_cfg(tmp_path)
    assert main(["train", "--config", path]) == 0
    ckpt = tmp_path / "run" / "model.ckpt"
    blob = bytearray(ckpt.read_bytes())
    blob[blob.index(marker)] = 0xFF
    ckpt.write_bytes(bytes(blob))
    capsys.readouterr()
    assert main(["eval", "--config", path, "--checkpoint", str(ckpt)]) == 2
    [record] = error_records(capsys)
    assert record["error"] == "CheckpointError"
    assert "is not UTF-8" in record["message"]


def test_checkpoint_with_unknown_model_key_yields_error_record(tmp_path, capsys):
    path = write_cfg(tmp_path)
    mcfg = load_run_config(path).model
    params = MbtParameters.init(mcfg, seed=1)
    legacy = {k: v for k, v in asdict(mcfg).items() if k != "arch"}
    legacy["fusion_mode"] = "bottleneck"  # the field that ``arch`` replaced
    ckpt = tmp_path / "legacy.ckpt"
    save_checkpoint(str(ckpt), params.as_arrays(), {"model": legacy}, stage="finetune")
    code = main(["eval", "--config", path, "--checkpoint", str(ckpt)])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "CheckpointError"
    assert "fusion_mode" in record["message"]


def error_records(capsys) -> list[dict]:
    err = capsys.readouterr().err
    return [json.loads(line) for line in err.splitlines() if line.startswith("{")]


def test_eval_rejects_a_checkpoint_that_does_not_fit_the_data(tmp_path, capsys):
    # a one-head model scored against a two-head split would compare its
    # predictions with the other head's labels
    one_head = micro_preset(tmp_path, "epic-sounds-like")
    assert main(["train", "--config", one_head]) == 0
    two_heads = micro_preset(tmp_path, "epic-kitchens-like")
    out = tmp_path / "scored"
    ckpt = str(tmp_path / "run" / "model.ckpt")
    capsys.readouterr()
    code = main(["eval", "--config", two_heads, "--checkpoint", ckpt, "--out", str(out)])
    assert code == 2
    [record] = error_records(capsys)
    assert record["error"] == "ConfigError"
    assert "n_classes" in record["message"]
    assert not (out / "metrics.csv").exists()


@pytest.mark.parametrize(
    "rtest, message",
    [
        pytest.param("150", "eval rate 150.0 outside [0, 100]", id="150"),
        pytest.param(",", "need at least one eval rate", id="empty"),
        pytest.param("nan", "not finite", id="nan"),
        pytest.param("0,inf", "not finite", id="inf"),
        pytest.param(
            "10.0000001,10", "eval rates 10.0000001 and 10.0 are both written as r_test 10",
            id="same-label",
        ),
    ],
)
def test_eval_flags_are_checked_like_the_config_before_anything_is_written(
    tmp_path, capsys, rtest, message
):
    path = write_cfg(tmp_path)
    assert main(["train", "--config", path]) == 0
    out = tmp_path / "scored"
    ckpt = str(tmp_path / "run" / "model.ckpt")
    capsys.readouterr()
    code = main(["eval", "--config", path, "--checkpoint", ckpt, "--out", str(out), "--rtest", rtest])
    assert code == 2
    [record] = error_records(capsys)
    assert record["error"] == "ConfigError"
    assert message in record["message"]
    assert not (out / "config.json").exists()


def test_failing_eval_leaves_the_run_directory_as_it_was(tmp_path, capsys):
    one_head = micro_preset(tmp_path, "epic-sounds-like")
    assert main(["train", "--config", one_head]) == 0
    run = tmp_path / "run"
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    two_heads = micro_preset(tmp_path, "epic-kitchens-like")  # also writes into run/
    capsys.readouterr()
    assert main(["eval", "--config", two_heads]) == 2
    [record] = error_records(capsys)
    assert record["error"] == "ConfigError"
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before
    assert {"config.json", "manifest.json"} <= set(before)


@pytest.mark.parametrize(
    "axis, grid",
    [
        ("p", "x"),
        ("p", ","),
        ("fusion_layer", "0.5"),
        ("fusion_layer", "nan"),  # int() would raise ValueError
        ("fusion_layer", "inf"),  # int() would raise OverflowError
        ("r_train", "0,-inf"),
        ("p", "0.1234567,0.1234568"),  # both name the cell p=0.123457
        ("p", "0.25,0.25"),
    ],
)
def test_sweep_with_a_bad_grid_creates_nothing(tmp_path, capsys, axis, grid):
    out = tmp_path / "fresh"
    path = write_cfg(tmp_path)
    assert main(["sweep", "--config", path, "--out", str(out), "--axis", axis, "--grid", grid]) == 2
    [record] = error_records(capsys)
    assert record["error"] == "ConfigError"
    assert not out.exists()


@pytest.mark.parametrize("cap", ["two", "0", "-3"])
def test_sweep_with_a_bad_thread_cap_creates_nothing(tmp_path, capsys, monkeypatch, cap):
    monkeypatch.setenv("MMTLAB_THREADS", cap)
    out = tmp_path / "fresh"
    path = write_cfg(tmp_path)
    assert main(["sweep", "--config", path, "--out", str(out), "--axis", "p", "--grid", "0"]) == 2
    [record] = error_records(capsys)
    assert record["error"] == "ConfigError" and "MMTLAB_THREADS" in record["message"]
    assert not out.exists()


def test_eval_rejects_a_checkpoint_without_a_token_bank(tmp_path, capsys):
    path = write_cfg(tmp_path)
    assert main(["train", "--config", path]) == 0
    ckpt = tmp_path / "run" / "model.ckpt"
    arrays, ckpt_cfg, stage = load_checkpoint(str(ckpt))
    stripped = {k: v for k, v in arrays.items() if not k.startswith("mmt.")}
    assert len(stripped) < len(arrays)
    save_checkpoint(str(ckpt), stripped, ckpt_cfg, stage)
    capsys.readouterr()
    assert main(["eval", "--config", path]) == 2
    [record] = error_records(capsys)
    assert record["error"] == "CheckpointError"
    assert "MmtBank" in record["message"]


def test_schema_violation_yields_error_record_with_keys(tmp_path, capsys):
    for raw, keys in (
        ({"modle": {}}, ["modle"]),
        ({"train": {"epochs": "16"}, "data": {"n_train": 1.7}}, ["data.n_train", "train.epochs"]),
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        code = main(["train", "--config", str(bad)])
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "SchemaError"
        assert record["offending_keys"] == keys


# ---------------------------------------------------------------------------
# reports


def make_table() -> MetricsTable:
    t = MetricsTable()
    for seed in (1, 2):
        for r, acc in ((0, 0.9), (50, 0.7), (100, 0.5)):
            t.add("mmt", r, "A", seed, acc + 0.01 * seed, 100)
            t.add("zeros", r, "A", seed, acc - 0.2 + 0.01 * seed, 100)
    return t


def test_text_report_orders_methods_and_rates():
    text = render_text(make_table())
    lines = text.strip().splitlines()
    assert lines[0].split() == ["r_test", "mmt", "zeros"]
    assert [ln.split()[0] for ln in lines[1:]] == ["0%", "50%", "100%"]
    # mean over seeds at r=0 for mmt: (0.91 + 0.92) / 2
    assert "91.50" in lines[1]


def test_svg_report_is_wellformed_with_one_polyline_per_method():
    svg = render_svg(make_table())
    root = ET.fromstring(svg)
    polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
    assert len(polylines) == 2
    texts = [e.text for e in root.iter() if e.tag.endswith("text")]
    assert "mmt" in texts and "zeros" in texts


def test_report_command_writes_files_and_prints_table(tmp_path, capsys):
    metrics = tmp_path / "metrics.csv"
    make_table().save(str(metrics))
    assert main(["report", str(metrics), "--out", str(tmp_path / "rep")]) == 0
    out = capsys.readouterr().out
    assert "r_test" in out
    assert (tmp_path / "rep" / "report.txt").exists()
    svg = (tmp_path / "rep" / "report.svg").read_text()
    ET.fromstring(svg)


def test_reports_need_rows():
    from mmtlab.errors import DataError

    with pytest.raises(DataError):
        render_text(MetricsTable())


@pytest.mark.parametrize(
    "row",
    [
        "mmt,abc,A,1,0.5,10",
        "mmt,50,A,one,0.5,10",
        "mmt,50,A,1,half,10",
        "mmt,50,A,1,0.5,1e1",
        "mmt,50,A,1,0.5",
        "mmt,50,A,1,1.5,10",
        "mmt,0.0,A,1,0.2,10",
    ],
    ids=["r_test", "seed", "accuracy", "n", "short", "accuracy-range", "repeated-key"],
)
def test_report_on_a_malformed_metrics_row_yields_error_record(tmp_path, capsys, row):
    metrics = tmp_path / "metrics.csv"
    metrics.write_text(f"{MetricsTable.HEADER}\nmmt,0,A,1,0.9,10\n{row}\n")
    assert main(["report", str(metrics), "--out", str(tmp_path / "rep")]) == 2
    [record] = error_records(capsys)
    assert record["error"] == "DataError"
    assert str(metrics) in record["message"] and repr(row) in record["message"]
    assert not (tmp_path / "rep").exists()
