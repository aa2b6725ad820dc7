"""Runs one workload: set-up, then a timed window or a traced comparison.

A timed run (``trace=False``) sets the workload up several times and
reports the median set-up time (the first set-up in a process runs cold,
at about twice the later ones, so cheap set-ups repeat until the warm
ones outnumber it), then repeats the workload's unit of work
until the window has lasted ``seconds`` and holds at least ``min_ops``
operations, so the 90th percentile has ten samples beyond it. A traced run
sets up once and alternates untraced and traced repetitions. Every one must
produce the same output bit for bit. The per-layer numbers come from the
first traced repetition, and the overhead from the median times.
"""

from __future__ import annotations

import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import spec
from .tracer import Patcher, Tracer, binding_snapshot, snapshot_changes
from .workloads import SCALES, WORKLOADS, Probe, Rep

SETUP_REPS = (3, 9)  # fewest and most set-ups of a timed run
SETUP_SECONDS = 4.0  # between those, set up again until this much time has passed
MIN_OPS = 100
TRACE_PAIRS = 3  # alternating untraced/traced repetitions for the overhead ratio
HARNESS_LAYER_METRICS = ("trace.overhead_ratio", "protocol.accuracy_mean")  # not from spans

_E2E_UNITS = {m["name"]: m["unit"] for m in spec.END_TO_END}
_LAYER_UNITS = {m["name"]: m["unit"] for m in spec.PER_LAYER}


@dataclass
class Result:
    workload: str
    trace: bool
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)  # failed checks outside any operation
    metrics: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    spans: list | None = None

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def summary(self) -> dict:
        units = _LAYER_UNITS if self.trace else _E2E_UNITS
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in self.metrics.items()},
        }


def _run_rep(wl, probe: Probe, result: Result) -> tuple[Rep | None, list]:
    """One repetition; counts its operations and failures into ``result``."""
    probe.marks.clear()
    try:
        rep = wl.rep(probe)
    except Exception:  # a failed repetition is reported, not fatal
        traceback.print_exc(file=sys.stderr)
        result.attempted += wl.ops_per_rep
        result.failed += wl.ops_per_rep
        return None, []
    if wl.reference is None:
        wl.reference = rep.output
    elif rep.output != wl.reference:
        rep.failed = rep.ops  # not bit-identical to earlier repetitions
    result.attempted += rep.ops
    result.failed += rep.failed
    return rep, list(np.diff(probe.marks) * 1000.0)


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    work_root: Path,
    scale: str = "preset",
    min_ops: int = MIN_OPS,
) -> Result:
    cls = WORKLOADS[workload]
    work = work_root / f"work-{workload}-{seed}-{time.time_ns()}"
    result = Result(workload, trace)
    try:
        setup_s, outputs = [], []
        fewest, most = (1, 1) if trace else SETUP_REPS
        while len(setup_s) < fewest or (len(setup_s) < most and sum(setup_s) < SETUP_SECONDS):
            wl = None  # let the previous set-up's data go before building the next
            start = time.perf_counter()
            wl = cls(seed, SCALES[scale], work)
            outputs.append(wl.setup())
            setup_s.append(time.perf_counter() - start)
        if any(out != outputs[0] for out in outputs):
            result.problems.append("set-up repetitions produced different outputs")
        result.details.update(op=wl.op_name, setup_s=setup_s)
        if trace:
            _traced(wl, result)
        else:
            _timed(wl, seconds, min_ops, result)
            result.metrics = {"setup_s": statistics.median(setup_s), **result.metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return result


def _timed(wl, seconds: float, min_ops: int, result: Result) -> None:
    probe, patcher = Probe(), Patcher()
    wl.install_probe(patcher, probe)
    op_ms, samples, reps = [], 0, 0
    try:
        start = time.perf_counter()
        while True:
            rep, durations = _run_rep(wl, probe, result)
            if rep is None:
                break
            reps += 1
            samples += rep.samples
            op_ms += durations
            if time.perf_counter() - start >= seconds and len(op_ms) >= min_ops:
                break
        window = time.perf_counter() - start
    finally:
        patcher.restore()
    if not op_ms:
        result.problems.append("no operation completed")
        op_ms = [0.0]
    n = len(op_ms)
    result.metrics.update(
        samples_per_s=samples / window,
        op_ms_p50=float(np.percentile(op_ms, 50)),
        op_ms_p90=float(np.percentile(op_ms, 90)),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        final_loss=wl.final_loss if wl.final_loss is not None else 0.0,
    )
    result.details.update(
        window_s=window, reps=reps, op_samples=n, beyond_p90=n - math.ceil(0.9 * n), op_ms=op_ms
    )


def _traced(wl, result: Result) -> None:
    before = binding_snapshot()
    probe = Probe()
    tracers, seconds = [], {False: [], True: []}

    def timed_rep(traced: bool):
        patcher = Patcher()
        try:
            if traced:
                tracers.append(Tracer())
                tracers[-1].install(patcher)
            wl.install_probe(patcher, probe)
            start = time.perf_counter()
            rep, _ = _run_rep(wl, probe, result)
            seconds[traced].append(time.perf_counter() - start)
            return rep
        finally:
            patcher.restore()

    reps = [timed_rep(traced) for _ in range(TRACE_PAIRS) for traced in (False, True)]
    changed = snapshot_changes(before, binding_snapshot())
    if changed:
        result.problems.append(f"bindings not restored after tracing: {changed[:5]}")
    if any(rep is None or rep.output != wl.reference for rep in reps):
        result.problems.append("a repetition failed or its output differs from the untraced one")

    unwrapped = tracers[0].unwrapped(
        n for n in spec.PER_LAYER_NAMES if n not in HARNESS_LAYER_METRICS
    )
    if unwrapped:
        result.problems.append(f"metrics of functions the tracer did not wrap: {unwrapped}")

    # every repetition does the same work, so the time ratio is the samples/s ratio
    layers = tracers[0].layer_metrics()
    layers["trace.overhead_ratio"] = statistics.median(seconds[True]) / statistics.median(seconds[False]) - 1.0
    if wl.accuracy_mean is not None:
        layers["protocol.accuracy_mean"] = wl.accuracy_mean
    result.metrics = {name: layers.get(name, 0) for name in spec.PER_LAYER_NAMES}
    result.details.update(untraced_rep_s=seconds[False], traced_rep_s=seconds[True],
                          spans=len(tracers[0].spans))
    result.spans = tracers[0].span_records()


def write_outputs(result: Result, seed: int, env: dict, out_dir: Path) -> Path:
    """Full record (environment, details, metrics) and, if traced, the spans."""
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{result.workload}_seed{seed}_trace{int(result.trace)}"
    record = {
        "workload": result.workload,
        "seed": seed,
        "trace": result.trace,
        "env": env,
        "details": result.details,
        "problems": result.problems,
        "result": result.summary(),
    }
    path = out_dir / f"BENCH_{tag}.json"
    with open(path, "w") as f:
        json.dump(record, f, indent=2)
        f.write("\n")
    if result.spans is not None:
        with open(out_dir / f"spans_{tag}.json", "w") as f:
            json.dump({"columns": ["name", "start_s", "end_s", "parent"], "spans": result.spans}, f)
    return path


def print_report(result: Result, env: dict, stream=sys.stdout) -> None:
    """Metrics by name with unit and direction, the environment, then the JSON line."""
    table = spec.PER_LAYER if result.trace else spec.END_TO_END
    d = result.details
    print(f"# {result.workload}: {result.attempted} x {d.get('op', 'op')}, "
          f"{result.failed} failed", file=stream)
    if "op_samples" in d:
        print(f"# op_ms_p90 from {d['op_samples']} samples, {d['beyond_p90']} beyond it; "
              f"{d['reps']} repetitions in {d['window_s']:.2f} s", file=stream)
    for problem in result.problems:
        print(f"# check failed: {problem}", file=stream)
    for m in table:
        value = result.metrics[m["name"]]
        print(f"{m['name']:<44} {value:>16.6g} {m['unit']:<10} {m['better']} is better", file=stream)
    print("# env " + json.dumps(env, sort_keys=True), file=stream)
    print(json.dumps(result.summary()), file=stream)
