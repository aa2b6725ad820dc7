#!/usr/bin/env python3
"""mmtlab benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload train --seed 1 --seconds 25 --trace 0

Run from the repository root; the package is imported from ``src/``. With
``--trace 0`` the end-to-end metrics are printed, with ``--trace 1`` the
per-layer ones from a traced repetition. The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; full records go to ``.bench_out/``.
``python3 bench/run.py --write-benchmark-json`` regenerates
``BENCHMARK.json`` from ``bench/mmtbench/spec.py``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("train", "sweep-eval", "mae-pretrain")


def _pin_threads() -> None:
    """One sweep worker and single-threaded BLAS: one closed-loop caller.

    Two BLAS threads measured no faster on these shapes and are more
    exposed to whatever else runs on the machine. Must run before numpy is
    imported.
    """
    os.environ.pop("MMTLAB_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-benchmark-json", action="store_true")
    args = parser.parse_args(argv)
    if not args.write_benchmark_json and args.workload is None:
        parser.error("--workload is required")

    if not (ROOT / "src" / "mmtlab" / "__init__.py").is_file():
        print(f"error: no mmtlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    _pin_threads()
    sys.path.insert(0, str(ROOT / "src"))
    from mmtbench import envstamp, harness, spec

    if args.write_benchmark_json:
        spec.write_benchmark_json(ROOT / "BENCHMARK.json")
        return 0
    result = harness.run(
        args.workload, args.seed, args.seconds, bool(args.trace), work_root=ROOT / ".bench_out"
    )
    env = envstamp.collect(ROOT)
    harness.write_outputs(result, args.seed, env, ROOT / ".bench_out")
    harness.print_report(result, env)
    return 0


if __name__ == "__main__":
    sys.exit(main())
