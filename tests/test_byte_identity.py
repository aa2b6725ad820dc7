"""The byte-identity recipe: a small end-to-end run keeps every artifact's bytes.

The recipe runs ``train`` and then ``eval`` with the mmt, zeros and skip
methods into one directory, and ``pretrain``, ``pretrain -> train
--checkpoint`` and ``sweep --axis p --grid 0,0.25`` each into a fresh one,
on ``epic-kitchens-like`` at seed 7 (sweep seeds 7 and 8) with 256 train
and 128 test samples, 6 train and 2 MAE epochs: enough for the models to
beat the majority class, so the pinned accuracies vary by method and rate.
Every file it writes is hashed except ``config.json`` and
``manifest.json``, which record the run directory's path.

The SHA-1s are pinned in ``tests/data/recipe-sha1.json`` with the stamp of
the host that took them: numpy version, BLAS and the kernel it runs, and
CPU. On a host with that stamp the run must give the pinned SHA-1s. On
any other host BLAS kernels may round differently, so the recipe runs
twice and the two runs must agree. A change that moves bytes on purpose rewrites the pin file
(``PYTHONPATH=src python tests/test_byte_identity.py``, which prints every
pin that moved) and says which pins moved and why.

Two runs that agree can still both be wrong, so on every host the recipe's
numbers must also match the pinned ones: each ``metrics.csv`` accuracy and
each fit log's final loss, within the tolerances in the pin file's
``numbers`` section. Those were calibrated on the pinning host by running
the recipe under each OpenBLAS core type it loads (``OPENBLAS_CORETYPE``);
rewriting the pins keeps them.
"""

import ctypes
import glob
import hashlib
import json
import math
import platform
from pathlib import Path

import numpy as np
import pytest

from mmtlab.cli import main
from mmtlab.config import preset_path

PINS = Path(__file__).parent / "data" / "recipe-sha1.json"
# the recipe's own config, and the files that record the run directory's path
UNPINNED = {"recipe.json", "config.json", "manifest.json"}


def blas_core() -> str | None:
    """The kernel the loaded OpenBLAS runs (``OPENBLAS_CORETYPE`` can pick
    another than the CPU's own), or None when the library does not say."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                return fn().decode()
    return None


def host_stamp() -> dict:
    """numpy version, BLAS name, version and kernel, CPU model and a digest
    of its feature flags: what decides the kernels, and so the rounding."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {}
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                info.setdefault(key.strip(), value.strip())
    except OSError:
        pass
    flags = " ".join(sorted(info.get("flags", "").split()))
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_core": blas_core(),
        "cpu": info.get("model name", platform.processor()),
        "cpu_flags_sha1": hashlib.sha1(flags.encode()).hexdigest(),
    }


def run_recipe(root: Path) -> dict:
    """Run the recipe under ``root``; the SHA-1 of each pinned file, keyed by
    its path below ``root``."""
    with open(preset_path("epic-kitchens-like")) as f:
        cfg = json.load(f)
    cfg.update(seed=7, seeds=[7, 8], data={"n_train": 256, "n_test": 128}, mae={"epochs": 2})
    cfg["train"]["epochs"] = 6
    root.mkdir(parents=True)
    config = str(root / "recipe.json")
    with open(config, "w") as f:
        json.dump(cfg, f)

    def run(command, out, *extra):
        argv = [command, "--config", config, "--out", str(root / out), *extra]
        assert main(argv) == 0, argv

    run("train", "train")
    for method in ("mmt", "zeros", "skip"):
        run("eval", "train", "--method", method)
    run("pretrain", "pretrain")
    run("train", "finetune", "--checkpoint", str(root / "pretrain" / "pretrain.ckpt"))
    run("sweep", "sweep", "--axis", "p", "--grid", "0,0.25")
    return {
        str(p.relative_to(root)): hashlib.sha1(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name not in UNPINNED
    }


def recipe_numbers(root: Path) -> dict:
    """The recipe's numbers under ``root``: each ``metrics.csv`` row's
    accuracy, keyed by the file and the row's method, r_test, head and seed,
    and each fit log's final loss, keyed by the file."""
    accuracy = {
        f"{p.relative_to(root)}: {','.join(row[:4])}": float(row[4])
        for p in sorted(root.rglob("metrics.csv"))
        for row in (line.split(",") for line in p.read_text().splitlines()[1:])
    }
    final_loss = {
        str(p.relative_to(root)): json.loads(p.read_text())["history"][-1]["loss"]
        for p in sorted(root.rglob("*_log.json"))
    }
    return {"accuracy": accuracy, "final_loss": final_loss}


def numbers_off(pinned: dict, got: dict) -> list[str]:
    """The numbers in ``got`` that are missing, unpinned or further from the
    ``pinned`` ones than their tolerance: absolute for an accuracy, relative
    for a final loss."""
    tol = pinned["tolerance"]
    close = {
        "accuracy": lambda a, b: abs(a - b) <= tol["accuracy_abs"],
        "final_loss": lambda a, b: math.isclose(a, b, rel_tol=tol["final_loss_rel"]),
    }
    return [
        f"{kind} {key}: {got[kind].get(key)}, pinned {pinned[kind].get(key)}"
        for kind in close
        for key in sorted(pinned[kind].keys() | got[kind].keys())
        if key not in pinned[kind]
        or key not in got[kind]
        or not close[kind](got[kind][key], pinned[kind][key])
    ]


def test_recipe_keeps_every_artifact_byte_for_byte(tmp_path, monkeypatch):
    monkeypatch.delenv("MMTLAB_THREADS", raising=False)
    pins = json.loads(PINS.read_text())
    got = run_recipe(tmp_path / "first")
    off = numbers_off(pins["numbers"], recipe_numbers(tmp_path / "first"))
    assert not off, f"recipe numbers moved past the tolerances in {PINS}: {off}"
    if pins["stamp"] == host_stamp():
        want, against = pins["sha1"], f"the pins in {PINS}"
    else:
        want, against = run_recipe(tmp_path / "second"), "a second run (host stamp differs from the pins')"
    moved = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    assert not moved, (
        f"recipe artifacts differ from {against}: {moved}. If the bytes moved on purpose, "
        f"rewrite {PINS} with `PYTHONPATH=src python tests/{Path(__file__).name}` and say "
        "which pins moved and why."
    )


@pytest.mark.parametrize("kind", ["accuracy", "final_loss"])
def test_a_number_moved_past_its_tolerance_is_caught(kind):
    pinned = json.loads(PINS.read_text())["numbers"]
    key = sorted(pinned[kind])[0]
    tol = pinned["tolerance"]
    step = tol["accuracy_abs"] if kind == "accuracy" else tol["final_loss_rel"] * abs(pinned[kind][key])
    for factor, caught in [(0.5, False), (-0.5, False), (2.0, True), (-2.0, True)]:
        got = {k: dict(pinned[k]) for k in ("accuracy", "final_loss")}
        got[kind][key] += factor * step
        assert len(numbers_off(pinned, got)) == caught, (key, factor)


if __name__ == "__main__":
    import tempfile

    old = json.loads(PINS.read_text())
    with tempfile.TemporaryDirectory() as tmp:
        sha1 = run_recipe(Path(tmp) / "run")
        numbers = recipe_numbers(Path(tmp) / "run")
    # the tolerances and their calibration are set by hand and kept
    kept = {k: old["numbers"][k] for k in ("tolerance", "calibration")}
    pins = {"stamp": host_stamp(), "sha1": sha1, "numbers": {**numbers, **kept}}
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    sections = [("stamp", old["stamp"], pins["stamp"]), ("sha1", old["sha1"], sha1)]
    sections += [(kind, old["numbers"][kind], numbers[kind]) for kind in numbers]
    moved = [
        f"{kind} {key}: {was.get(key)} -> {now.get(key)}"
        for kind, was, now in sections
        for key in sorted(was.keys() | now.keys())
        if was.get(key) != now.get(key)
    ]
    for line in moved:
        print(line)
    print(
        f"wrote {len(sha1)} SHA-1 pins and {sum(map(len, numbers.values()))} numbers to {PINS}; "
        f"{len(moved)} moved"
    )
