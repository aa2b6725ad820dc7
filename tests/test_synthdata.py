import math
import os
import subprocess
import sys

import numpy as np
import pytest

import mmtlab
from mmtlab.errors import ConfigError
from mmtlab.synthdata import (
    MODALITIES,
    SynthConfig,
    _render,
    _template_matrix,
    bayes_accuracy_bound,
    expected_accuracy,
    generate,
    template_match,
    templates,
)
from mmtlab.tokenizer import spectrogram_patches, video_patches


def small_config(**overrides) -> SynthConfig:
    base = dict(n_classes=(4, 3), gains={"audio": (3.0, 0.8), "video": (1.6, 3.2)})
    base.update(overrides)
    return SynthConfig(**base)


# ---------------------------------------------------------------------------
# the accuracy ceiling


def test_bound_at_zero_separation_is_chance():
    assert bayes_accuracy_bound(0.0, 4) == 0.25
    assert bayes_accuracy_bound(0.0, 3) == pytest.approx(1 / 3)


def test_bound_two_classes_has_closed_form():
    # beating a single rival normal: acc = Phi(d / sqrt(2))
    for d in (0.3, 1.0, 2.5, 4.0):
        want = 0.5 * (1.0 + math.erf(d / 2.0))  # Phi(d / sqrt(2))
        assert bayes_accuracy_bound(d, 2) == pytest.approx(want, abs=1e-9)


def test_bound_matches_adaptive_quadrature():
    # the cross-check needs scipy, which only the test extra installs
    integrate = pytest.importorskip("scipy.integrate")

    def integrand(u, d, c):
        pdf = math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
        return pdf * (0.5 * math.erfc(-(u + d) / math.sqrt(2.0))) ** (c - 1)

    for c in (2, 3, 4, 5, 10, 97):
        for d in np.linspace(0.05, 8.0, 24):
            want, _ = integrate.quad(integrand, -12.0, 12.0 + d, args=(d, c), limit=200)
            assert bayes_accuracy_bound(float(d), c) == pytest.approx(want, abs=1e-8), (d, c)


def test_bound_monotone_in_separation_and_saturating():
    ds = [0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0]
    vals = [bayes_accuracy_bound(d, 5) for d in ds]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 0.9999
    with pytest.raises(ConfigError):
        bayes_accuracy_bound(-1.0, 3)
    with pytest.raises(ConfigError):
        bayes_accuracy_bound(1.0, 1)


def test_separation_adds_in_quadrature():
    cfg = small_config()
    d_audio = cfg.separation(("audio",), 0)
    d_both = cfg.separation(("audio", "video"), 0)
    assert d_audio == pytest.approx(3.0)
    assert d_both == pytest.approx(np.sqrt(3.0**2 + 1.6**2))
    assert cfg.separation((), 0) == 0.0


def test_monte_carlo_accuracy_meets_bound():
    # matched filtering on generated data must land on the ceiling for
    # every modality subset; this ties generator and bound together
    cfg = small_config()
    n = 12000
    ds = generate(cfg, seed=11, n=n, split="oracle")
    for subset in [("audio",), ("video",), ("audio", "video")]:
        preds = template_match(cfg, ds.raw, subset)
        for h in range(2):
            acc = float((preds[:, h] == ds.labels[:, h]).mean())
            want = expected_accuracy(cfg, subset)[h]
            assert acc == pytest.approx(want, abs=0.015), (subset, h)


# ---------------------------------------------------------------------------
# generator mechanics


def test_templates_are_orthonormal_and_nonconstant():
    cfg = small_config()
    for m in MODALITIES:
        banks = templates(cfg, m)
        rows = np.concatenate([banks[h] for h in banks], axis=0)
        gram = rows @ rows.T
        np.testing.assert_allclose(gram, np.eye(len(rows)), atol=1e-12)
        # no all-ones direction: each template sums to zero
        np.testing.assert_allclose(rows.sum(axis=1), 0.0, atol=1e-9)


def _sylvester(size: int) -> np.ndarray:
    h = np.ones((1, 1))
    while h.shape[0] < size:
        h = np.kron(np.array([[1.0, 1.0], [1.0, -1.0]]), h)
    return h


def test_template_rows_equal_sylvester_hadamard_rows():
    for size in (8, 16, 32, 64, 128, 256, 512, 1024):
        count = min(size - 1, 9)
        want = _sylvester(size)[1 : count + 1] / np.sqrt(size)
        got = _template_matrix(size, count)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), size


def test_template_rows_equal_scipy_hadamard_at_video_size():
    linalg = pytest.importorskip("scipy.linalg")
    want = (linalg.hadamard(4096).astype(np.float64) / np.sqrt(4096))[1:8]
    assert _template_matrix(4096, 7).tobytes() == want.tobytes()


def test_template_cache_is_read_only():
    bank = templates(small_config(), "video")[0]
    with pytest.raises(ValueError):
        bank[0, 0] = 5.0
    with pytest.raises(ValueError):
        _template_matrix(64, 3)[:] = 0.0


def test_importing_the_cli_loads_no_scipy():
    code = (
        "import sys, mmtlab.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = os.path.dirname(os.path.dirname(mmtlab.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.strip() == "[]"


def test_generation_is_deterministic_and_split_dependent():
    cfg = small_config()
    a = generate(cfg, seed=3, n=8, split="train")
    b = generate(cfg, seed=3, n=8, split="train")
    c = generate(cfg, seed=3, n=8, split="test")
    d = generate(cfg, seed=4, n=8, split="train")
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_array_equal(a.raw["audio"], b.raw["audio"])
    assert not np.array_equal(a.raw["audio"], c.raw["audio"])
    assert not np.array_equal(a.raw["audio"], d.raw["audio"])


def test_samples_are_counter_based():
    # a longer run begins with exactly the shorter run's samples
    cfg = small_config()
    short = generate(cfg, seed=5, n=4)
    long = generate(cfg, seed=5, n=10)
    np.testing.assert_array_equal(short.labels, long.labels[:4])
    np.testing.assert_array_equal(short.raw["video"], long.raw["video"][:4])


def test_labels_roughly_uniform():
    cfg = small_config()
    ds = generate(cfg, seed=6, n=6000)
    for h, c in enumerate(cfg.n_classes):
        freqs = np.bincount(ds.labels[:, h], minlength=c) / len(ds)
        np.testing.assert_allclose(freqs, 1 / c, atol=0.03)


def test_natural_missing_rates_exact_and_deterministic():
    cfg = small_config(natural_missing={"audio": 0.29, "video": 0.0})
    ds = generate(cfg, seed=7, n=200, split="train")
    assert ds.missing["audio"].sum() == int(0.29 * 200)
    assert ds.missing["video"].sum() == 0
    again = generate(cfg, seed=7, n=200, split="train")
    np.testing.assert_array_equal(ds.missing["audio"], again.missing["audio"])
    assert ds.complete_mask().sum() == 200 - int(0.29 * 200)


def test_naturally_missing_raw_data_is_gone():
    cfg = small_config(natural_missing={"audio": 0.5})
    ds = generate(cfg, seed=8, n=20)
    assert np.all(ds.raw["audio"][ds.missing["audio"]] == 0.0)
    assert np.abs(ds.raw["audio"][~ds.missing["audio"]]).max() > 0
    assert np.abs(ds.raw["video"]).max() > 0


def test_patches_shapes_and_cache():
    cfg = small_config()
    ds = generate(cfg, seed=8, n=3)
    pa = ds.patches("audio")
    pv = ds.patches("video")
    assert pa.shape == (3, cfg.audio.tokens, cfg.audio.patch_dim)
    assert pv.shape == (3, cfg.video.tokens, cfg.video.patch_dim)
    assert ds.patches("audio") is pa


def test_patches_are_float32_and_raw_stays_float64():
    cfg = small_config()
    ds = generate(cfg, seed=8, n=3)
    assert ds.raw["audio"].dtype == ds.raw["video"].dtype == np.float64
    want = spectrogram_patches(ds.raw["audio"], cfg.audio).astype(np.float32)
    assert ds.patches("audio").dtype == ds.patches("video").dtype == np.float32
    np.testing.assert_array_equal(ds.patches("audio"), want)


def _held_arrays(obj):
    """Every ndarray reachable from ``obj`` through attributes, dicts and
    sequences."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _held_arrays(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _held_arrays(v)
    elif hasattr(obj, "__dict__"):
        yield from _held_arrays(vars(obj))


def _owner(a: np.ndarray) -> np.ndarray:
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def test_a_dataset_holds_its_samples_once_as_float32_patches():
    cfg = small_config(natural_missing={"audio": 0.25})
    ds = generate(cfg, seed=9, n=12)
    held = list(_held_arrays(ds))
    floats = [a for a in held if a.dtype.kind == "f"]
    assert sorted(map(id, floats)) == sorted(id(ds.patches(m)) for m in MODALITIES)
    for a in held:
        assert _owner(a).dtype != np.float64
        assert _owner(a).nbytes == a.nbytes  # not a window into a larger buffer
    assert ds.labels.dtype == np.int64
    assert all(ds.missing[m].dtype == bool for m in MODALITIES)


def test_raw_is_a_read_only_float64_view_of_the_patches():
    cfg = small_config(natural_missing={"video": 0.5})
    ds = generate(cfg, seed=10, n=6)
    _, rendered = _render(cfg, 10, "train", np.arange(6))
    assert list(ds.raw) == list(MODALITIES) and len(ds.raw) == 2
    for m, tokenize in (("audio", spectrogram_patches), ("video", video_patches)):
        raw = ds.raw[m]
        assert raw.dtype == np.float64 and raw.shape == (6,) + cfg.raw_shape(m)
        assert not raw.flags.writeable
        assert ds.raw[m] is not raw  # rebuilt on every lookup
        # re-tokenizing the view gives the stored patches bit for bit
        again = tokenize(raw, getattr(cfg, m), dtype=np.float32)
        assert again.tobytes() == ds.patches(m).tobytes()
        # the float64 render rounded once to float32, zero where absent
        want = np.where(
            ds.missing[m].reshape((-1,) + (1,) * (raw.ndim - 1)), 0.0,
            rendered[m].astype(np.float32).astype(np.float64),
        )
        assert raw.tobytes() == want.tobytes()
    assert "text" not in ds.raw
    with pytest.raises(TypeError):
        ds.raw["audio"] = np.zeros((6,) + cfg.raw_shape("audio"))
    with pytest.raises(ValueError):
        ds.raw["audio"][0] = 1.0


def test_config_validation():
    with pytest.raises(ConfigError):
        small_config(noise_sigma=0.0)
    with pytest.raises(ConfigError):
        small_config(gains={"audio": (1.0, 1.0)})
    with pytest.raises(ConfigError):
        small_config(gains={"audio": (1.0,), "video": (1.0, 1.0)})
    with pytest.raises(ConfigError):
        small_config(natural_missing={"audio": 1.0})
    with pytest.raises(ConfigError):
        small_config(n_classes=(4, 1))
    with pytest.raises(ConfigError):
        generate(small_config(), seed=0, n=0)
