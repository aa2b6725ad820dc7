"""The quick demos run to completion against the current API.

Each demo runs in its own interpreter, as a reader would start it, with
``src`` on the import path. Only the demos that finish in well under a
second are run here: 03 (synthetic data), 05 (substitution), 06 (random
replacement training), 07 (MAE pretraining) and 08 (sweep and report)
take from 4 to 128 s each and are left out of the suite; every demo's
``from mmtlab... import`` names are checked without running it instead.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_imports_name_what_mmtlab_has(demo):
    tree = ast.parse((ROOT / "demos" / demo).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mmtlab":
            module = importlib.import_module(node.module)
            absent = [a.name for a in node.names if not hasattr(module, a.name)]
            assert not absent, f"{demo}: {node.module} has no {', '.join(absent)}"


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
