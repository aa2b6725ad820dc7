"""The byte-identity recipe: a small end-to-end run keeps every artifact's bytes.

The recipe runs ``train`` and then ``eval`` with the mmt, zeros and skip
methods into one directory, and ``pretrain``, ``pretrain -> train
--checkpoint`` and ``sweep --axis p --grid 0,0.25`` each into a fresh one,
on ``epic-kitchens-like`` at seed 7 (sweep seeds 7 and 8) with 256 train
and 128 test samples, 2 train and 2 MAE epochs. Every file it writes is hashed except ``config.json`` and
``manifest.json``, which record the run directory's path.

The SHA-1s are pinned in ``tests/data/recipe-sha1.json`` with the stamp of
the host that took them: numpy version, BLAS and the kernel it runs, and
CPU. On a host with that stamp the run must give the pinned SHA-1s. On
any other host BLAS kernels may round differently, so the recipe runs
twice and the two runs must agree. A change that moves bytes on purpose rewrites the pin file
(``PYTHONPATH=src python tests/test_byte_identity.py``) and says which pins moved and why.
"""

import ctypes
import glob
import hashlib
import json
import platform
from pathlib import Path

import numpy as np

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
    cfg["train"]["epochs"] = 2
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


def test_recipe_keeps_every_artifact_byte_for_byte(tmp_path, monkeypatch):
    monkeypatch.delenv("MMTLAB_THREADS", raising=False)
    pins = json.loads(PINS.read_text())
    got = run_recipe(tmp_path / "first")
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


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        sha1 = run_recipe(Path(tmp) / "run")
    PINS.write_text(json.dumps({"stamp": host_stamp(), "sha1": sha1}, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(sha1)} pins to {PINS}")
