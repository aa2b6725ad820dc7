"""What the benchmark measures: workloads, metric names, units, directions.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 bench/run.py --write-benchmark-json``), so the file and the code
that prints the metrics cannot drift apart; a test compares the two.
"""

from __future__ import annotations

import json
from pathlib import Path

COMMAND = ["python3", "bench/run.py"]
PATHS = ["bench"]
RUN_SECONDS = 25

WORKLOADS = [
    {
        "name": "train",
        "why": "training.train on the epic-kitchens-like preset at batch 64 and full sequences: "
        "forward, backward and AdamW, where elementwise ops outweigh the GEMMs",
    },
    {
        "name": "sweep-eval",
        "why": "a resumed mmtlab sweep that only scores: forward-only eval over the 0-100% "
        "grid, regenerating test data per cell, no tape and no optimizer",
    },
    {
        "name": "mae-pretrain",
        "why": "mae.mae_train on the same geometry: tiny masked shapes and d=16 decoders, "
        "so per-op interpreter overhead and gather/scatter dominate",
    },
]

# An operation is a train step (train), a pretraining step (mae-pretrain) or
# a sweep cell (sweep-eval); attempted/failed count the same operations.
# Timing bounds are at the widest allowed because on a shared 2-core host
# a single-threaded step runs at one of two speeds, about 30 % apart, for
# minutes at a time; ten runs spread by 10-29 %.
# A bound must also cover each metric's spread across seeds: final_loss on
# train varies by 3-5 % across seeds at every epoch count tried (2 to 6),
# so its bound is three times that, although it is deterministic per seed.
# peak_rss_mb spreads by about 0.1 % across seeds. setup_s keeps the
# largest bound.
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "samples_per_s", "unit": "samples/s", "better": "higher", "bound": 0.24},
    {"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.24},
    {"name": "op_ms_p90", "unit": "ms", "better": "lower", "bound": 0.24},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
    {"name": "final_loss", "unit": "loss", "better": "lower", "bound": 0.15},
]

_ADS_MAIN = ("linear", "matmul", "softmax", "log_softmax", "gelu", "layer_norm")
_ADS_COPY = ("narrow", "transpose", "reshape", "broadcast_to", "concat", "add", "scale", "mul")


def _expand(prefix: str, items, stats) -> list[str]:
    return [f"{prefix}.{item}.{stat}" for item in items for stat in stats]


PER_LAYER_NAMES = [
    *_expand("autodiff", _ADS_MAIN + _ADS_COPY + ("gather_rows",), ("fwd_s", "bwd_s", "calls")),
    "autodiff.Tape.backward.total_s",
    "autodiff.tape_nodes_per_step",
    *_expand("training", ("train",), ("calls", "total_s", "self_s")),
    "training.step.forward_ms",
    "training.step.backward_ms",
    "training.step.optimizer_ms",
    *_expand("optim", ("AdamW.step",), ("calls", "total_s")),
    *_expand("model", ("run_block", "forward"), ("calls", "total_s", "self_s")),
    *_expand("model", ("encode_sequences",), ("total_s", "self_s")),
    *_expand("model", ("embed_content", "load_checkpoint", "save_checkpoint"), ("calls", "total_s")),
    *_expand("missing", ("replace_with_mmt",), ("calls", "total_s")),
    "missing.random_replace.total_s",
    "mae.mask_batch.total_s",
    *_expand("mae", ("mae_forward",), ("total_s", "self_s")),
    "mae.mae_train.total_s",
    *_expand("synthdata", ("generate",), ("calls", "total_s")),
    "synthdata.samples_rendered",
    "synthdata.useful_ratio",
    *_expand("rng", ("sample_rng", "Stream.shuffle"), ("calls", "total_s")),
    "tokenizer.spectrogram_patches.total_s",
    "tokenizer.video_patches.total_s",
    *_expand("protocol", ("evaluate",), ("calls", "total_s", "self_s")),
    "protocol.make_test_variants.total_s",
    *_expand("protocol", ("MetricsTable.has", "MetricsTable.save", "blob_sha1"), ("calls", "total_s")),
    "protocol.sweep.self_s",
    "protocol.accuracy_mean",
    *_expand("cli", ("cmd_sweep",), ("total_s", "self_s")),
    "trace.overhead_ratio",
]

_HIGHER = {"synthdata.useful_ratio", "protocol.accuracy_mean"}
_FRACTIONS = {"synthdata.useful_ratio", "protocol.accuracy_mean", "trace.overhead_ratio"}


def _layer_unit(name: str) -> str:
    if name in _FRACTIONS:
        return "fraction"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "count"


PER_LAYER = [
    {"name": n, "unit": _layer_unit(n), "better": "higher" if n in _HIGHER else "lower"}
    for n in PER_LAYER_NAMES
]


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


def write_benchmark_json(path: Path) -> None:
    with open(path, "w") as f:
        json.dump(benchmark_json(), f, indent=2)
        f.write("\n")
