"""The benchmark's own tests: micro-geometry smoke runs, tracer hygiene, spec."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import mmtlab.cli  # noqa: E402
import mmtlab.model  # noqa: E402
import mmtlab.protocol  # noqa: E402
import mmtlab.training  # noqa: E402
from mmtbench import harness, spec  # noqa: E402
from mmtbench.tracer import METHODS, Patcher, Tracer, binding_snapshot, snapshot_changes  # noqa: E402
from mmtbench.workloads import SCALES, Probe, TrainWorkload  # noqa: E402

WORKLOADS = [w["name"] for w in spec.WORKLOADS]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(tmp_path, workload, trace):
    result = harness.run(
        workload, seed=3, seconds=0.2, trace=trace, work_root=tmp_path, scale="micro", min_ops=5
    )
    assert result.correct, result.problems
    assert result.attempted >= 5 and result.failed == 0
    summary = json.loads(json.dumps(result.summary()))
    table = spec.PER_LAYER if trace else spec.END_TO_END
    assert list(summary["metrics"]) == [m["name"] for m in table]
    if not trace:
        assert all(m["value"] > 0 for m in summary["metrics"].values())
    assert list(tmp_path.iterdir()) == []  # the work directory is removed


def test_traced_sweep_counts_one_generate_per_cell_and_no_backward(tmp_path):
    result = harness.run("sweep-eval", 4, 0.2, True, work_root=tmp_path, scale="micro")
    m = result.metrics
    assert m["synthdata.generate.calls"] == 15
    assert m["synthdata.useful_ratio"] == pytest.approx(3 / 15)
    assert m["protocol.evaluate.calls"] == 15
    assert m["model.load_checkpoint.calls"] == 3
    assert all(m[n] == 0 for n in m if n.endswith(".bwd_s"))
    assert m["autodiff.tape_nodes_per_step"] == 0
    assert 0.0 <= m["protocol.accuracy_mean"] <= 1.0


def test_tracer_patches_every_binding_and_changes_no_result(tmp_path):
    wl = TrainWorkload(5, SCALES["micro"], tmp_path)
    wl.setup()
    before = binding_snapshot()
    original_forward = mmtlab.model.forward
    plain = wl.rep(Probe()).output

    patcher, tracer = Patcher(), Tracer()
    tracer.install(patcher)
    try:
        assert mmtlab.model.forward is not original_forward
        assert mmtlab.training.forward is mmtlab.model.forward
        assert mmtlab.protocol.forward is mmtlab.model.forward
        assert mmtlab.cli._DISPATCH["sweep"] is mmtlab.cli.cmd_sweep
        traced = wl.rep(Probe()).output
    finally:
        patcher.restore()

    assert snapshot_changes(before, binding_snapshot()) == []
    assert mmtlab.training.forward is original_forward
    again = wl.rep(Probe()).output
    assert traced == plain == again
    layers = tracer.layer_metrics()
    assert layers["training.train.calls"] == 1
    assert layers["autodiff.linear.bwd_s"] > 0
    assert layers["autodiff.tape_nodes_per_step"] > 0


def test_traced_run_fails_when_a_measured_function_is_not_wrapped(tmp_path, monkeypatch):
    # as if AdamW.step were renamed: its metrics must not silently read 0
    monkeypatch.setattr("mmtbench.tracer.METHODS", {k: v for k, v in METHODS.items() if k != "optim"})
    result = harness.run("train", 5, 0.2, True, work_root=tmp_path, scale="micro")
    assert not result.correct
    assert "optim.AdamW.step.calls" in result.problems[0]
    assert "training.step.optimizer_ms" in result.problems[0]


def test_benchmark_json_is_generated_from_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        assert json.load(f) == spec.benchmark_json()
    names = [m["name"] for m in spec.END_TO_END + spec.PER_LAYER] + WORKLOADS
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in spec.END_TO_END}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    assert all(len(w["why"]) <= 200 for w in spec.WORKLOADS)


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train", "--seed", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
