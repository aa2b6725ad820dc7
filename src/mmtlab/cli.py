"""Command-line front end: pretraining, training, evaluation, sweeps, reports.

Every command takes a JSON config (file path or shipped preset name),
resolves it against desk-scale defaults, and writes its artifacts into
one output directory: the resolved config, checkpoints, logs, metrics,
and a manifest of content hashes. Data is never stored: every command
regenerates its split from the seed. Reruns with identical inputs leave
identical bytes behind. A file is whole or absent
(:func:`mmtlab.model.write_artifact`), and a rerun replaces whatever an
interrupt cut short. The checkpoint is written last and marks a trained
cell: ``model.ckpt`` is all a sweep's resume checks.

A directory holds one model and the rows it scored: ``eval`` scores
``<out>/model.ckpt`` and nothing else, as each sweep cell scores its own;
to score a model under another ``eval.missing`` or test seed, copy its
file into a fresh ``--out``. A directory takes runs of one config only.
``out``, ``seeds``, ``eval.method`` and ``eval.rates`` may differ, since
metric rows are keyed by method and rate and sweep cells (runs of their
own derived configs, under ``cells/``) by seed, and so may a sweep's own
``seed``, which no cell reads; any other difference fails before
anything is written. So the rows and cells that ``eval`` and ``sweep``
find and skip are what this config would write again. ``train`` refuses
a directory that holds ``metrics.csv``, whose rows scored the model it
would replace.

``eval`` and ``sweep`` score through one function, :func:`_score`: it
builds one row per head of every loaded model at every rate, skips the
rows ``metrics.csv`` holds, and fills the rest through
:func:`mmtlab.protocol.sweep`. The forward pass is the arch stored in each
checkpoint's model config, so a model is scored the way it was trained.
Each model keeps one memo of its predictions (see
:func:`mmtlab.protocol.evaluate`), so each test sample is forwarded once
per presence group across the rate grid, and a memo never serves another
model. ``eval`` scores on the one test split it generates; ``sweep``
generates each cell's split again, from the cell's seed.

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
from .errors import ConfigError, DataError, MmtlabError, SchemaError
from .mae import MaeDecoders, load_pretrained, mae_train, save_pretrained, transfer_encoder
from .missing import MmtBank, SubstitutionMethod
from .model import MbtParameters, ModelConfig, read_checkpoint, save_checkpoint, write_artifact
from .optim import FitResult
from .protocol import MetricsTable, blob_sha1, evaluate, make_test_variants, sweep, write_json
from .report import render_svg, render_text
from .synthdata import generate
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


# fields in which runs that share a directory may differ
_PER_ROW_OR_CELL = {"out", "seeds", "eval.method", "eval.rates"}


def _differing(old, new, path: str = "") -> list[str]:
    """Dotted paths at which two JSON trees differ."""
    if isinstance(old, dict) and isinstance(new, dict):
        keys = sorted(old.keys() | new.keys())
        return [d for k in keys for d in _differing(old.get(k), new.get(k), f"{path}{k}.")]
    return [] if old == new else [path[:-1]]


def _check_reuse(cfg: RunConfig, unread: frozenset = frozenset()) -> None:
    """Reject a run directory whose ``config.json`` records another config,
    other than in ``unread``: fields the command never reads."""
    path = Path(cfg.out) / "config.json"
    if not path.exists():
        return
    try:
        old = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: not valid JSON ({e})") from None
    new = json.loads(json.dumps(asdict(cfg)))
    differ = [d for d in _differing(old, new) if d not in _PER_ROW_OR_CELL | unread]
    if differ:
        raise ConfigError(
            f"{', '.join(differ)} differ from the config recorded in {path}; "
            "its artifacts came from that config, so write this run to another --out"
        )


def _prepare_out(cfg: RunConfig, unread: frozenset = frozenset()) -> Path:
    """Create the run directory and write the resolved config into it: the
    one place that does. Commands call this only once their inputs have
    been checked; it checks the directory takes this config."""
    _check_reuse(cfg, unread)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    write_json(str(out / "config.json"), asdict(cfg))
    return out


def _write_run_manifest(out: Path, command: str, inputs: dict | None = None) -> None:
    """Hash every file in the run directory but the manifest and ``*.tmp``
    files, and record ``inputs``: the SHA-1 of a checkpoint read from outside it."""
    files = {}
    for p in sorted(out.rglob("*")):
        if p.is_file() and p.name != "manifest.json" and p.suffix != ".tmp":
            files[str(p.relative_to(out))] = blob_sha1(str(p))
    manifest = {"command": command, "files": files, "inputs": inputs or {}}
    write_json(str(out / "manifest.json"), manifest)


def _load_model(cfg: RunConfig) -> tuple[MbtParameters, MmtBank]:
    """The run's model, ``<cfg.out>/model.ckpt``: a finetune checkpoint of
    weights and token bank, whose model must fit the data ``cfg`` makes."""
    path = str(Path(cfg.out) / "model.ckpt")
    arrays, saved = read_checkpoint(path, "finetune", {"model": ModelConfig})
    mcfg = saved["model"]
    mmt = {k: v for k, v in arrays.items() if k.startswith("mmt.")}
    rest = {k: v for k, v in arrays.items() if not k.startswith("mmt.")}
    params = MbtParameters.from_arrays(mcfg, rest)
    bank = MmtBank.from_arrays(mcfg.embed_dim, mmt)
    check_data_compat(replace(cfg, model=mcfg))
    return params, bank


def _write_fit_log(path: Path, result: FitResult) -> None:
    """The byte-stable record of a fit: per-epoch history, steps, samples."""
    write_json(str(path), {"history": result.history, "steps": result.steps, "kept": result.kept})


def _train_one(cfg: RunConfig, params: MbtParameters | None = None) -> Path:
    """Train ``params``, or fresh ones, into train_log.json and then
    model.ckpt under ``cfg.out``, which it prepares; returns that directory.

    Module-level so a process pool can train sweep cells concurrently; each
    run owns its directory and touches nothing shared.
    """
    out = _prepare_out(cfg)
    if params is None:
        params = MbtParameters.init(cfg.model, cfg.seed)
    ds = generate(cfg.synth, cfg.seed, cfg.data.n_train, split="train")
    bank = MmtBank.init(cfg.model.embed_dim, cfg.seed)
    result = train(params, bank, ds, cfg.train, cfg.seed)
    arrays = {**params.as_arrays(), **bank.as_arrays()}
    ckpt_cfg = {"model": asdict(cfg.model), "train": asdict(cfg.train)}
    _write_fit_log(out / "train_log.json", result)
    save_checkpoint(str(out / "model.ckpt"), arrays, ckpt_cfg, stage="finetune")
    log.info(
        "trained %d samples for %d steps, final loss %.4f",
        result.kept,
        result.steps,
        result.history[-1]["loss"],
    )
    return out


def _score(cfg: RunConfig, command: str, models: dict, test_split) -> None:
    """Score every model over ``cfg.eval.rates`` into ``<cfg.out>/metrics.csv``
    and write the run's manifest: the scoring path of ``eval`` and ``sweep``.

    ``models`` maps a row's (method label, seed) to that run's loaded
    ``(params, bank)``, and ``test_split(seed)`` returns the test split its
    rows are scored on. A row is one head of one model at one rate, with
    ``cfg.eval.missing`` missing at that rate under the schedule of the
    split's seed. Rows the table holds are skipped; every one of them must
    have scored ``cfg.data.n_test`` samples, so a torn row fails before
    anything is scored. The rows of one model share one prediction memo.
    """
    method = SubstitutionMethod.parse(cfg.eval.method)
    out = Path(cfg.out)
    path = out / "metrics.csv"
    table = MetricsTable.load(str(path)) if path.exists() else MetricsTable()
    for m, r, h, s, _, n in table.rows:
        if n != cfg.data.n_test:
            raise DataError(
                f"{path}: the row for method {m}, r_test {MetricsTable.rate_label(r)}, head {h}, "
                f"seed {s} scored n={n} samples, not data.n_test={cfg.data.n_test}; "
                "delete the row to score it again"
            )
    rows = [
        {"method": label, "r_test": r, "seed": seed, "heads": params.config.head_names}
        for (label, seed), (params, _) in models.items()
        for r in cfg.eval.rates
    ]
    memos: dict[tuple, dict] = {key: {} for key in models}

    def run_cell(row: dict) -> dict:
        key = (row["method"], row["seed"])
        params, bank = models[key]
        ds = test_split(row["seed"])
        rate = row["r_test"] / 100.0
        variants = make_test_variants(ds.missing[cfg.eval.missing], [rate], ds.seed)
        missing = {**ds.missing, cfg.eval.missing: variants[rate]}
        res = evaluate(params, bank, ds, missing, method, scored=memos[key])
        log.info(
            "eval at r_test=%g%%, seed %d: mean accuracy %.4f", row["r_test"], ds.seed, res["mean"]
        )
        return {name: (res["per_head"][h], res["n"]) for h, name in enumerate(params.config.head_names)}

    sweep(rows, run_cell, table, str(path))
    _write_run_manifest(out, command)


# ---------------------------------------------------------------------------
# commands


def cmd_pretrain(args) -> int:
    cfg = _resolve(args)
    out = _prepare_out(cfg)
    ds = generate(cfg.synth, cfg.seed, cfg.data.n_train, split="train")
    params = MbtParameters.init(cfg.model, cfg.seed)
    dec = MaeDecoders.init(cfg.model, cfg.mae, cfg.seed)
    result = mae_train(params, dec, ds, cfg.mae, cfg.seed)
    _write_fit_log(out / "pretrain_log.json", result)
    save_pretrained(str(out / "pretrain.ckpt"), params, dec)
    log.info("pretrained on %d samples, final loss %.4f", result.kept, result.history[-1]["loss"])
    _write_run_manifest(out, "pretrain")
    return 0


def cmd_train(args) -> int:
    cfg = _resolve(args)
    params, inputs = None, {}
    if args.checkpoint:
        pretrained, _ = load_pretrained(args.checkpoint)
        params = transfer_encoder(pretrained, cfg.model, cfg.seed)
        inputs["checkpoint"] = blob_sha1(args.checkpoint)
    _check_reuse(cfg)  # a config that differs is named before the rows are
    if (Path(cfg.out) / "metrics.csv").exists():
        raise ConfigError(
            f"{cfg.out} holds metrics.csv, which scored the model this run would replace; "
            "write this run to another --out"
        )
    _write_run_manifest(_train_one(cfg, params), "train", inputs)
    return 0


def cmd_eval(args) -> int:
    cfg = _resolve(args)
    # the flags pass EvalConfig's and RunConfig's checks, as the file's values did
    if args.method is not None:
        cfg = replace(cfg, eval=replace(cfg.eval, method=args.method))
    if args.rtest is not None:
        cfg = replace(cfg, eval=replace(cfg.eval, rates=tuple(_parse_rates(args.rtest))))
    models = {(cfg.eval.method, cfg.seed): _load_model(cfg)}
    _prepare_out(cfg)
    ds = generate(cfg.synth, cfg.seed, cfg.data.n_test, split="test")
    _score(cfg, "eval", models, lambda seed: ds)
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


def cmd_sweep(args) -> int:
    cfg = _resolve(args)
    axis = args.axis
    grid = _parse_rates(args.grid)
    if not grid:
        raise ConfigError("--grid must list at least one value")
    # each cell's config, derived once before anything is written: its
    # RunConfig checks an r_train value's feasibility, and two values with
    # one cell name would share a cell
    cells: dict[tuple[float, int], RunConfig] = {}
    names: dict[str, float] = {}
    for value in grid:
        name = _cell_name(axis, value)
        if name in names:
            raise ConfigError(f"--grid values {names[name]} and {value} both name the cell {name}")
        names[name] = value
        for seed in cfg.seeds:
            cell_out = str(Path(cfg.out) / "cells" / f"{name}-seed={seed}")
            cells[value, seed] = _apply_axis(replace(cfg, seed=seed, out=cell_out), axis, value)
    workers = _thread_cap()
    unread = frozenset({"seed"})  # cells take ``seeds``
    _check_reuse(cfg, unread)
    for cell_cfg in cells.values():
        _check_reuse(cell_cfg)
    _prepare_out(cfg, unread)

    pending = [c for c in cells.values() if not (Path(c.out) / "model.ckpt").exists()]
    if workers > 1 and len(pending) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            list(pool.map(_train_one, pending))
    else:
        for cell_cfg in pending:
            _train_one(cell_cfg)

    models = {
        (f"{cfg.eval.method}|{_cell_name(axis, value)}", seed): _load_model(cell_cfg)
        for (value, seed), cell_cfg in cells.items()
    }
    # the axis changes neither the generator nor the eval settings
    _score(cfg, "sweep", models, lambda seed: generate(cfg.synth, seed, cfg.data.n_test, "test"))
    return 0


def cmd_report(args) -> int:
    table = MetricsTable.load(args.metrics)
    out = Path(args.out) if args.out else Path(args.metrics).resolve().parent
    out.mkdir(parents=True, exist_ok=True)
    text = render_text(table)
    write_artifact(str(out / "report.txt"), text.encode())
    write_artifact(str(out / "report.svg"), render_svg(table).encode())
    sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def _parse_rates(spec: str) -> list[float]:
    """A comma-separated list of finite numbers (``--rtest``, ``--grid``);
    ``-0`` reads as 0, the number it equals."""
    try:
        values = [float(part) + 0.0 for part in str(spec).split(",") if part.strip() != ""]
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


def _add_common(sub):
    sub.add_argument("--config", help="JSON config file or shipped preset name")
    sub.add_argument("--seed", type=int, default=None, help="override the config seed")
    sub.add_argument("--out", default=None, help="override the output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmtlab",
        description="multimodal bottleneck classifiers under missing modalities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_common(sub.add_parser("pretrain", help="masked-autoencoder pretraining"))
    tr = sub.add_parser("train", help="supervised training")
    _add_common(tr)
    tr.add_argument("--checkpoint", default=None, help="pretrain checkpoint to start from")

    ev = sub.add_parser("eval", help="accuracy of <out>/model.ckpt over a missing-rate grid")
    _add_common(ev)
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
