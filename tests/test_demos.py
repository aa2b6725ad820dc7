"""The quick demos run to completion against the current API.

Each demo runs in its own interpreter, as a reader would start it, with
``src`` on the import path. Only the demos that finish in well under a
second are run here: 03 (synthetic data), 05 (substitution), 06 (random
replacement training), 07 (MAE pretraining) and 08 (sweep and report)
take from 4 to 128 s each and are left out of the suite. So every demo
is also checked without running it: the names it imports from mmtlab
exist, and each call of an mmtlab callable (``ad.softmax(...)``,
``AdamW(...)``, ``MbtParameters.init(...)``) binds to its current
signature, keyword names included.
"""

import ast
import contextlib
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


def _mmtlab_bindings(demo: str, tree: ast.Module) -> dict:
    """The names a demo's ``from mmtlab... import`` lines bind, to the
    objects (or submodules) they name today."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mmtlab":
            module = importlib.import_module(node.module)
            absent = []
            for a in node.names:
                if not hasattr(module, a.name) and module.__name__ == "mmtlab":
                    # a submodule the package itself does not import
                    with contextlib.suppress(ModuleNotFoundError):
                        importlib.import_module(f"mmtlab.{a.name}")
                if hasattr(module, a.name):
                    names[a.asname or a.name] = getattr(module, a.name)
                else:
                    absent.append(a.name)
            assert not absent, f"{demo}: {node.module} has no {', '.join(absent)}"
    return names


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_imports_name_what_mmtlab_has(demo):
    _mmtlab_bindings(demo, ast.parse((ROOT / "demos" / demo).read_text()))


def _resolve(node, names, demo: str):
    """The mmtlab object an expression such as ``ad.softmax`` names, or None."""
    if isinstance(node, ast.Name):
        return names.get(node.id)
    if isinstance(node, ast.Attribute):
        owner = _resolve(node.value, names, demo)
        if owner is None:
            return None
        assert hasattr(owner, node.attr), f"{demo}:{node.lineno}: mmtlab has no {ast.unparse(node)}"
        return getattr(owner, node.attr)
    return None


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_calls_bind_to_current_signatures(demo):
    tree = ast.parse((ROOT / "demos" / demo).read_text())
    names = _mmtlab_bindings(demo, tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = _resolve(node.func, names, demo)
        if fn is None or not callable(fn):
            continue
        try:
            sig = inspect.signature(fn)
        except ValueError:
            continue  # no signature to check against (an enum's call)
        keywords = {k.arg: None for k in node.keywords if k.arg is not None}
        starred = any(isinstance(a, ast.Starred) for a in node.args) or len(keywords) < len(
            node.keywords
        )
        bind = sig.bind_partial if starred else sig.bind
        try:
            bind(*[None] * sum(not isinstance(a, ast.Starred) for a in node.args), **keywords)
        except TypeError as e:
            raise AssertionError(f"{demo}:{node.lineno}: {ast.unparse(node.func)}: {e}") from None


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
