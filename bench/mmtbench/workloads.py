"""The benchmark's workloads: set-up, one repetition, and its checks.

Each workload object is built and set up once per set-up repetition. In
the timed window the harness calls :meth:`rep` again and again; every
repetition does the same work from the same starting state, so its output
(a final loss, or the bytes of ``metrics.csv``) must repeat bit for bit.

Operation boundaries come from thin hooks that :meth:`install_probe` puts
on the program from outside: one clock read when ``AdamW.step`` returns
(train and mae-pretrain), or when the sweep calls its per-cell function
(sweep-eval). The finite-loss check is the program's own: ``train`` and
``mae_train`` raise ``FloatingPointError`` on a non-finite step loss, and
the harness counts a repetition that raises as failed operations.
"""

from __future__ import annotations

import csv
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

# Entry points are called through their modules, so that a traced run,
# which rebinds module attributes, sees the calls.
import mmtlab.cli as cli
import mmtlab.mae as mae
import mmtlab.training as training
from mmtlab.autodiff import Tensor
from mmtlab.config import check_data_compat, load_run_config, preset_path
from mmtlab.mae import MaeDecoders
from mmtlab.missing import MmtBank
from mmtlab.model import MODALITIES, MbtParameters
from mmtlab.optim import AdamW
from mmtlab.synthdata import SynthDataset, generate

PRESET = "epic-kitchens-like"
SWEEP_AXIS, SWEEP_GRID = "p", "0.25"  # the preset's own video replacement probability
SWEEP_SEEDS = 3

_MICRO_GEOMETRY = {
    "audio": {"bins": 8, "frames": 8, "patch_bins": 4, "patch_frames": 4},
    "video": {"frames": 2, "height": 8, "width": 8, "patch_t": 2, "patch_h": 4, "patch_w": 4},
}


@dataclass(frozen=True)
class Scale:
    """Config overrides on top of the preset, plus how much data each part uses."""

    overrides: dict
    n_train: int  # samples per train / mae-pretrain epoch
    epochs_per_rep: int
    warm_samples: int  # warm-up fit in set-up, so no cold step is timed
    sweep_n_train: int  # the short cell training of sweep-eval's set-up
    sweep_n_test: int


SCALES = {
    "preset": Scale({}, n_train=640, epochs_per_rep=2, warm_samples=128,
                    sweep_n_train=64, sweep_n_test=128),
    # the test suite's micro geometry, for seconds-long smoke runs
    "micro": Scale(
        {
            "synth": dict(_MICRO_GEOMETRY),
            "model": {**_MICRO_GEOMETRY, "embed_dim": 16, "layers": 2, "heads": 2,
                      "mlp_ratio": 2, "fusion_layer": 1, "bottleneck": 2},
            "train": {"batch_size": 32},
            "mae": {"decoder_depth": 1, "decoder_heads": 2, "decoder_dim": 8, "batch_size": 32},
        },
        n_train=64, epochs_per_rep=2, warm_samples=32, sweep_n_train=32, sweep_n_test=32,
    ),
}


def config_dict(scale: Scale, **top) -> dict:
    """The preset's JSON with the scale's section overrides and ``top`` keys."""
    with open(preset_path(PRESET)) as f:
        cfg = json.load(f)
    for section, values in scale.overrides.items():
        cfg[section] = {**cfg.get(section, {}), **values}
    cfg.update(top)
    return cfg


@dataclass
class Probe:
    """Op-boundary timestamps of the current repetition."""

    marks: list = field(default_factory=list)


@dataclass
class Rep:
    ops: int
    samples: int
    output: object
    failed: int = 0


def _copy(arrays: dict) -> dict:
    return {k: Tensor(v.copy()) for k, v in arrays.items()}


def _subset(ds: SynthDataset, k: int) -> SynthDataset:
    return SynthDataset(
        ds.config, ds.seed, ds.split, ds.labels[:k],
        {m: ds.raw[m][:k] for m in MODALITIES}, {m: ds.missing[m][:k] for m in MODALITIES},
    )


class _StepWorkload:
    """Shared by train and mae-pretrain: an operation is one optimizer step."""

    def __init__(self, seed: int, scale: Scale, workdir: Path):
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.reference = None  # first repetition's final loss
        self.accuracy_mean = None

    def setup(self):
        cfg = load_run_config(config_dict(self.scale), {"seed": self.seed})
        check_data_compat(cfg)
        ds = generate(cfg.synth, self.seed, self.scale.n_train, split="train")
        for m in MODALITIES:
            ds.patches(m)  # tokenize now: the timed window renders no data
        self.cfg, self.ds = cfg, ds
        self._init_state()
        warm = self._fit(_subset(ds, self.scale.warm_samples), epochs=1)
        return warm.history[-1]["loss"]

    def install_probe(self, patcher, probe: Probe) -> None:
        step = vars(AdamW)["step"]
        clock = time.perf_counter

        def marked_step(opt):
            lr = step(opt)
            probe.marks.append(clock())
            return lr

        patcher.set(AdamW, "step", marked_step)

    @property
    def ops_per_rep(self) -> int:
        batch = self._batch_size()
        return self.scale.epochs_per_rep * math.ceil(self._kept() / batch)

    def rep(self, probe: Probe) -> Rep:
        probe.marks.append(time.perf_counter())
        result = self._fit(self.ds, epochs=self.scale.epochs_per_rep)
        return Rep(result.steps, result.kept * self.scale.epochs_per_rep, result.history[-1]["loss"])

    @property
    def final_loss(self) -> float:
        return self.reference


class TrainWorkload(_StepWorkload):
    op_name = "train step"

    def _init_state(self):
        self.params0 = MbtParameters.init(self.cfg.model, self.seed).as_arrays()
        self.bank0 = MmtBank.init(self.cfg.model.embed_dim, self.seed).as_arrays()

    def _batch_size(self) -> int:
        return self.cfg.train.batch_size

    def _kept(self) -> int:
        return len(self.ds)

    def _fit(self, ds, epochs):
        params = MbtParameters(self.cfg.model, _copy(self.params0))
        bank = MmtBank(self.cfg.model.embed_dim, _copy(self.bank0))
        return training.train(params, bank, ds, replace(self.cfg.train, epochs=epochs), self.seed)


class MaePretrainWorkload(_StepWorkload):
    op_name = "pretraining step"

    def _init_state(self):
        self.params0 = MbtParameters.init(self.cfg.model, self.seed).as_arrays()
        self.dec0 = MaeDecoders.init(self.cfg.model, self.cfg.mae, self.seed).as_arrays()

    def _batch_size(self) -> int:
        return self.cfg.mae.batch_size

    def _kept(self) -> int:
        return int(self.ds.complete_mask().sum())

    def _fit(self, ds, epochs):
        mae_cfg = replace(self.cfg.mae, epochs=epochs)
        params = MbtParameters(self.cfg.model, _copy(self.params0))
        dec = MaeDecoders(self.cfg.model, mae_cfg, _copy(self.dec0))
        return mae.mae_train(params, dec, ds, mae_cfg, self.seed)


class SweepEvalWorkload:
    """``mmtlab sweep`` resumed with every checkpoint present: scoring only."""

    op_name = "sweep cell"

    def __init__(self, seed: int, scale: Scale, workdir: Path):
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.run_dir = workdir / "sweep"
        self.metrics_path = self.run_dir / "metrics.csv"
        self.reference = None  # metrics.csv bytes written in set-up

    def setup(self):
        shutil.rmtree(self.run_dir, ignore_errors=True)
        self.run_dir.mkdir(parents=True)
        seeds = [self.seed + i for i in range(SWEEP_SEEDS)]
        cfg = config_dict(
            self.scale,
            data={"n_train": self.scale.sweep_n_train, "n_test": self.scale.sweep_n_test},
            seed=self.seed, seeds=seeds, out=str(self.run_dir),
        )
        cfg["train"] = {**cfg["train"], "epochs": 1}
        config_path = self.workdir / "sweep-config.json"
        with open(config_path, "w") as f:
            json.dump(cfg, f, indent=2, sort_keys=True)
        self.argv = ["sweep", "--config", str(config_path), "--axis", SWEEP_AXIS, "--grid", SWEEP_GRID]
        self.cells = len(seeds) * len(cfg["eval"]["rates"]) * len(SWEEP_GRID.split(","))
        if cli.main(self.argv) != 0:
            raise RuntimeError("set-up sweep failed")
        self.reference = self.metrics_path.read_bytes()
        losses = []
        for log_path in sorted(self.run_dir.glob("cells/*/train_log.json")):
            with open(log_path) as f:
                losses.append(json.load(f)["history"][-1]["loss"])
        self.final_loss = sum(losses) / len(losses)
        rows = _metrics_rows(self.reference)
        self.accuracy_mean = sum(float(r["accuracy"]) for r in rows) / len(rows)
        return self.reference

    def install_probe(self, patcher, probe: Probe) -> None:
        inner = cli.sweep
        clock = time.perf_counter

        def timed_sweep(cells, run_cell, table, path):
            def timed_cell(cell):
                probe.marks.append(clock())
                return run_cell(cell)

            try:
                return inner(cells, timed_cell, table, path)
            finally:
                probe.marks.append(clock())

        patcher.set(cli, "sweep", timed_sweep)

    @property
    def ops_per_rep(self) -> int:
        return self.cells

    def rep(self, probe: Probe) -> Rep:
        self.metrics_path.unlink()
        if cli.main(self.argv) != 0:
            return Rep(self.cells, 0, None, failed=self.cells)
        data = self.metrics_path.read_bytes()
        return Rep(self.cells, self.cells * self.scale.sweep_n_test, data,
                   failed=_bad_cells(data, self.cells))


def _metrics_rows(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode())))


def _bad_cells(data: bytes, cells: int) -> int:
    """Cells with an accuracy outside [0, 1], plus any cell with no rows."""
    seen, bad = set(), set()
    for row in _metrics_rows(data):
        key = (row["method"], row["r_test"], row["seed"])
        seen.add(key)
        if not 0.0 <= float(row["accuracy"]) <= 1.0:
            bad.add(key)
    return len(bad) + max(0, cells - len(seen))


WORKLOADS = {
    "train": TrainWorkload,
    "sweep-eval": SweepEvalWorkload,
    "mae-pretrain": MaePretrainWorkload,
}
