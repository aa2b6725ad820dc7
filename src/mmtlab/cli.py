"""Command-line front end: pretraining, training, evaluation, sweeps, reports.

Every command takes a JSON config (file path or shipped preset name),
resolves it against desk-scale defaults, and writes its artifacts into
one output directory: the resolved config, checkpoints, logs, metrics,
and a manifest of content hashes. Data is never stored: every command
regenerates its split from the seed. Reruns with identical inputs leave
identical bytes behind, which is what makes sweeps resumable and runs
comparable.

``eval`` and ``sweep`` fill ``metrics.csv`` the same way, through
:func:`mmtlab.protocol.sweep` and one per-cell scorer; the forward pass is
the arch stored in each checkpoint's model config, so a model is scored
the way it was trained.

Failures print a one-line JSON error record to stderr and exit 2; a run
whose loss or logits go non-finite fails so too, as ``FloatingPointError``.
``MMTLAB_THREADS`` caps how many sweep cells train in parallel
processes; the default is one (fully sequential).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, replace
from pathlib import Path

from .config import RunConfig, check_data_compat, load_run_config, preset_path
from .errors import CheckpointError, ConfigError, MmtlabError, SchemaError
from .mae import MaeDecoders, load_pretrained, mae_train, save_pretrained, transfer_encoder
from .missing import MmtBank, SubstitutionMethod
from .model import MbtParameters, ModelConfig, decode_header, load_checkpoint, save_checkpoint
from .optim import FitResult
from .protocol import MetricsTable, blob_sha1, evaluate, make_test_variants, sweep, write_manifest
from .report import render_svg, render_text
from .synthdata import SynthDataset, generate
from .training import train

log = logging.getLogger("mmtlab")

SWEEP_AXES = ("p", "fusion_layer", "r_train")


# ---------------------------------------------------------------------------
# shared plumbing


def _resolve(args) -> RunConfig:
    """The command's config, loaded and checked against the generator."""
    source = args.config
    if source is None:
        raise ConfigError("--config is required (a JSON file or a preset name)")
    if not os.path.exists(source):
        source = preset_path(source)
    overrides = {"seed": getattr(args, "seed", None), "out": getattr(args, "out", None)}
    cfg = load_run_config(source, overrides)
    check_data_compat(cfg)
    return cfg


def _prepare_out(cfg: RunConfig) -> Path:
    """Create the run directory and write the resolved config into it;
    commands call this only once their inputs have been checked."""
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg.save(str(out / "config.json"))
    return out


def _write_run_manifest(out: Path, command: str) -> None:
    """Hash every artifact in the run directory; skip the volatile log."""
    skip = {"manifest.json", "run.log"}
    files = {}
    for p in sorted(out.rglob("*")):
        if p.is_file() and p.name not in skip:
            files[str(p.relative_to(out))] = blob_sha1(str(p))
    write_manifest(str(out / "manifest.json"), {"command": command, "files": files})


def _load_finetune(cfg: RunConfig, path: str) -> tuple[MbtParameters, MmtBank]:
    """A finetune checkpoint holds model weights plus the token bank; its
    model must fit the data ``cfg`` generates."""
    arrays, ckpt_cfg, stage = load_checkpoint(path)
    if stage != "finetune":
        raise CheckpointError(f"{path}: expected a finetune checkpoint, got {stage!r}")
    mcfg = decode_header(ModelConfig, ckpt_cfg, "model", path)
    mmt = {k: v for k, v in arrays.items() if k.startswith("mmt.")}
    rest = {k: v for k, v in arrays.items() if not k.startswith("mmt.")}
    params = MbtParameters.from_arrays(mcfg, rest)
    bank = MmtBank.from_arrays(mcfg.embed_dim, mmt)
    check_data_compat(replace(cfg, model=mcfg))
    return params, bank


def _write_fit_log(path: Path, result: FitResult) -> None:
    """The byte-stable record of a fit: per-epoch history, steps, samples."""
    with open(path, "w") as f:
        json.dump(
            {"history": result.history, "steps": result.steps, "kept": result.kept},
            f,
            indent=2,
            sort_keys=True,
        )
        f.write("\n")


def _train_one(cfg: RunConfig, out: Path, pretrained: str | None) -> None:
    """Train a classifier into ``out``/model.ckpt and ``out``/train_log.json."""
    ds = generate(cfg.synth, cfg.seed, cfg.data.n_train, split="train")
    if pretrained:
        pre_params, _ = load_pretrained(pretrained)
        params = transfer_encoder(pre_params, cfg.model, cfg.seed)
    else:
        params = MbtParameters.init(cfg.model, cfg.seed)
    bank = MmtBank.init(cfg.model.embed_dim, cfg.seed)
    result = train(params, bank, ds, cfg.train, cfg.seed)
    arrays = {**params.as_arrays(), **bank.as_arrays()}
    ckpt_cfg = {"model": asdict(cfg.model), "train": asdict(cfg.train)}
    save_checkpoint(str(out / "model.ckpt"), arrays, ckpt_cfg, stage="finetune")
    _write_fit_log(out / "train_log.json", result)
    log.info(
        "trained %d samples for %d steps, final loss %.4f",
        result.kept,
        result.steps,
        result.history[-1]["loss"],
    )


def _score_cell(
    cfg: RunConfig,
    params: MbtParameters,
    bank: MmtBank,
    ds: SynthDataset,
    method: SubstitutionMethod,
    r_test: float,
) -> dict:
    """One cell of :func:`sweep`: accuracy per head of one model on the
    test split ``ds``, with ``cfg.eval.missing`` missing at ``r_test``
    percent under the schedule of the split's seed."""
    rate = r_test / 100.0
    variants = make_test_variants(ds.missing[cfg.eval.missing], [rate], ds.seed)
    missing = {**ds.missing, cfg.eval.missing: variants[rate]}
    res = evaluate(params, bank, ds, missing, method)
    log.info("eval at r_test=%g%%, seed %d: mean accuracy %.4f", r_test, ds.seed, res["mean"])
    return {name: (res["per_head"][h], res["n"]) for h, name in enumerate(params.config.head_names)}


# ---------------------------------------------------------------------------
# commands


def cmd_pretrain(args) -> int:
    cfg = _resolve(args)
    out = _prepare_out(cfg)
    ds = generate(cfg.synth, cfg.seed, cfg.data.n_train, split="train")
    params = MbtParameters.init(cfg.model, cfg.seed)
    dec = MaeDecoders.init(cfg.model, cfg.mae, cfg.seed)
    result = mae_train(params, dec, ds, cfg.mae, cfg.seed)
    save_pretrained(str(out / "pretrain.ckpt"), params, dec)
    _write_fit_log(out / "pretrain_log.json", result)
    log.info("pretrained on %d samples, final loss %.4f", result.kept, result.history[-1]["loss"])
    _write_run_manifest(out, "pretrain")
    return 0


def cmd_train(args) -> int:
    cfg = _resolve(args)
    out = _prepare_out(cfg)
    _train_one(cfg, out, args.checkpoint)
    _write_run_manifest(out, "train")
    return 0


def cmd_eval(args) -> int:
    cfg = _resolve(args)
    # the flags pass EvalConfig's and RunConfig's checks, as the file's values did
    if args.method is not None:
        cfg = replace(cfg, eval=replace(cfg.eval, method=args.method))
    if args.rtest is not None:
        cfg = replace(cfg, eval=replace(cfg.eval, rates=tuple(_parse_rates(args.rtest))))
    method = SubstitutionMethod.parse(cfg.eval.method)
    params, bank = _load_finetune(cfg, args.checkpoint or str(Path(cfg.out) / "model.ckpt"))
    out = _prepare_out(cfg)
    ds = generate(cfg.synth, cfg.seed, cfg.data.n_test, split="test")
    cells = [
        {"method": method.value, "r_test": r, "seed": cfg.seed, "heads": params.config.head_names}
        for r in cfg.eval.rates
    ]
    metrics_path = out / "metrics.csv"
    table = MetricsTable.load(str(metrics_path)) if metrics_path.exists() else MetricsTable()
    sweep(
        cells,
        lambda cell: _score_cell(cfg, params, bank, ds, method, cell["r_test"]),
        table,
        str(metrics_path),
    )
    _write_run_manifest(out, "eval")
    return 0


def _apply_axis(cfg: RunConfig, axis: str, value: float) -> RunConfig:
    if axis == "p":
        targets = tuple(cfg.train.replace_probs) or (cfg.eval.missing,)
        probs = {m: value for m in targets}
        return replace(cfg, train=replace(cfg.train, replace_probs=probs))
    if axis == "fusion_layer":
        if value != int(value):
            raise ConfigError(f"fusion_layer grid values must be integers, got {value}")
        return replace(cfg, model=replace(cfg.model, fusion_layer=int(value)))
    if axis == "r_train":
        induced = {cfg.eval.missing: value / 100.0}
        return replace(cfg, train=replace(cfg.train, induced_missing=induced))
    raise ConfigError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")


def _cell_name(axis: str, value: float) -> str:
    """How a grid value names its cell directories and its method label."""
    return f"{axis}={value:g}"


def _cell_dir(out: Path, axis: str, value: float, seed: int) -> Path:
    return out / "cells" / f"{_cell_name(axis, value)}-seed={seed}"


def _ensure_cell_model(out: str, cfg: RunConfig, axis: str, value: float, seed: int) -> str:
    """Train one sweep cell's model if its checkpoint is not there yet.

    Module-level so a process pool can run cells concurrently; each cell
    owns its subdirectory and touches nothing shared.
    """
    cfg = _apply_axis(replace(cfg, seed=seed), axis, value)
    cell = _cell_dir(Path(out), axis, value, seed)
    cell.mkdir(parents=True, exist_ok=True)
    ckpt = cell / "model.ckpt"
    if not ckpt.exists():
        cfg = replace(cfg, out=str(cell))
        cfg.save(str(cell / "config.json"))
        _train_one(cfg, cell, pretrained=None)
    return str(ckpt)


def cmd_sweep(args) -> int:
    cfg = _resolve(args)
    axis = args.axis
    grid = _parse_rates(args.grid)
    if not grid:
        raise ConfigError("--grid must list at least one value")
    # reject a bad grid or thread cap before anything is written: _apply_axis
    # builds each cell's config, whose RunConfig checks an r_train value's
    # feasibility, and two values with one cell name would share a cell
    names: dict[str, float] = {}
    for value in grid:
        _apply_axis(cfg, axis, value)
        name = _cell_name(axis, value)
        if name in names:
            raise ConfigError(f"--grid values {names[name]} and {value} both name the cell {name}")
        names[name] = value
    method = SubstitutionMethod.parse(cfg.eval.method)
    workers = _thread_cap()
    out = _prepare_out(cfg)

    pending = [
        (str(out), cfg, axis, value, seed)
        for value in grid
        for seed in cfg.seeds
        if not _cell_dir(out, axis, value, seed).joinpath("model.ckpt").exists()
    ]
    if workers > 1 and len(pending) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            list(pool.map(_ensure_cell_model, *zip(*pending)))
    else:
        for job in pending:
            _ensure_cell_model(*job)

    metrics_path = out / "metrics.csv"
    table = MetricsTable.load(str(metrics_path)) if metrics_path.exists() else MetricsTable()
    cells = [
        {
            "method": f"{method.value}|{_cell_name(axis, value)}",
            "r_test": r,
            "seed": seed,
            "heads": cfg.model.head_names,
            "value": value,
        }
        for value in grid
        for seed in cfg.seeds
        for r in cfg.eval.rates
    ]

    loaded: dict[tuple, tuple] = {}

    def run_cell(cell):
        key = (cell["value"], cell["seed"])
        if key not in loaded:
            loaded[key] = _load_finetune(cfg, str(_cell_dir(out, axis, *key) / "model.ckpt"))
        # the axis changes neither the generator nor the eval settings
        ds = generate(cfg.synth, cell["seed"], cfg.data.n_test, split="test")
        return _score_cell(cfg, *loaded[key], ds, method, cell["r_test"])

    sweep(cells, run_cell, table, str(metrics_path))
    _write_run_manifest(out, "sweep")
    return 0


def cmd_report(args) -> int:
    table = MetricsTable.load(args.metrics)
    out = Path(args.out) if args.out else Path(args.metrics).resolve().parent
    out.mkdir(parents=True, exist_ok=True)
    text = render_text(table)
    with open(out / "report.txt", "w") as f:
        f.write(text)
    with open(out / "report.svg", "w") as f:
        f.write(render_svg(table))
    sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def _parse_rates(spec: str) -> list[float]:
    """A comma-separated list of finite numbers (``--rtest``, ``--grid``)."""
    try:
        values = [float(part) for part in str(spec).split(",") if part.strip() != ""]
    except ValueError:
        raise ConfigError(f"could not parse number list {spec!r}") from None
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"number list {spec!r} holds a value that is not finite")
    return values


def _thread_cap() -> int:
    raw = os.environ.get("MMTLAB_THREADS", "1")
    try:
        cap = int(raw)
    except ValueError:
        raise ConfigError(f"MMTLAB_THREADS={raw!r} is not an integer") from None
    if cap < 1:
        raise ConfigError(f"MMTLAB_THREADS={raw!r} is below 1")
    return cap


def _add_common(sub, with_checkpoint=False):
    sub.add_argument("--config", help="JSON config file or shipped preset name")
    sub.add_argument("--seed", type=int, default=None, help="override the config seed")
    sub.add_argument("--out", default=None, help="override the output directory")
    if with_checkpoint:
        sub.add_argument("--checkpoint", default=None, help="checkpoint file to start from")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmtlab",
        description="multimodal bottleneck classifiers under missing modalities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_common(sub.add_parser("pretrain", help="masked-autoencoder pretraining"))
    _add_common(sub.add_parser("train", help="supervised training"), with_checkpoint=True)

    ev = sub.add_parser("eval", help="accuracy over a missing-rate grid")
    _add_common(ev, with_checkpoint=True)
    ev.add_argument("--method", choices=[m.value for m in SubstitutionMethod], default=None)
    ev.add_argument("--rtest", default=None, help="comma-separated percents, e.g. 0,25,50,75,100")

    sw = sub.add_parser("sweep", help="train+eval over one axis and all seeds")
    _add_common(sw)
    sw.add_argument("--axis", choices=SWEEP_AXES, required=True)
    sw.add_argument("--grid", required=True, help="comma-separated axis values")

    rp = sub.add_parser("report", help="text table and SVG chart from a metrics CSV")
    rp.add_argument("metrics", help="metrics.csv produced by eval or sweep")
    rp.add_argument("--out", default=None, help="directory for report files")
    return parser


_DISPATCH = {
    "pretrain": cmd_pretrain,
    "train": cmd_train,
    "eval": cmd_eval,
    "sweep": cmd_sweep,
    "report": cmd_report,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not log.handlers:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        log.addHandler(handler)
        log.setLevel(logging.INFO)
    try:
        return _DISPATCH[args.command](args)
    except (MmtlabError, OSError, FloatingPointError) as e:
        record = {"error": type(e).__name__, "message": str(e), "command": args.command}
        if isinstance(e, SchemaError):
            record["offending_keys"] = list(e.offending_keys)
        sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
