"""The quick demos run to completion against the current API.

Each demo runs in its own interpreter, as a reader would start it, with
``src`` on the import path. Only the demos that finish in well under a
second are run here: 03 (synthetic data), 05 (substitution), 06 (random
replacement training), 07 (MAE pretraining) and 08 (sweep and report)
take from 4 to 128 s each and are left out of the suite.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "demo", ["01_autodiff_basics.py", "02_tokenization.py", "04_bottleneck_fusion.py"]
)
def test_demo_runs(demo, tmp_path):
    src = str(ROOT / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
