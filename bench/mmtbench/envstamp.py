"""Where a result was measured, so later runs know if they compare like with like."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import subprocess
from pathlib import Path

import numpy as np
import scipy


def _blas() -> dict:
    info = {"name": None, "version": None, "threads": None}
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = dep.get("name"), dep.get("version")
    except (KeyError, TypeError):
        pass
    # numpy wheels bundle scipy-openblas; ask the loaded library directly
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git(root: Path, *args: str) -> str | None:
    # stop at the checkout: never report the commit of an enclosing repository
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.resolve().parent)}
    try:
        done = subprocess.run(
            ["git", *args], cwd=root, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def collect(root: Path) -> dict:
    commit = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain", "--untracked-files=no") if commit else None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "git_commit": commit,
        "git_dirty": None if status is None else status != "",
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MMTLAB_THREADS")},
    }
