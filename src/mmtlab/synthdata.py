"""Synthetic audio/video classification data with known optimal accuracy.

Every sample carries one label per classification head. Each (modality,
head, class) triple owns a fixed unit-norm template; the raw signal is the
gain-weighted sum of its labels' templates plus white Gaussian noise:

    raw_m = sum_h gain[m][h] * T[m][h][label_h] + sigma * N(0, I)

Templates are rows of a Sylvester Hadamard matrix scaled to unit norm, so
they are exactly orthonormal and the matched-filter statistics decouple:
for any subset S of observed modalities, the best possible accuracy on
head h is a one-dimensional Gaussian race with separation

    d_h(S) = sqrt(sum_{m in S} gain[m][h]^2) / sigma

and value E_u[Phi(u + d)^(C-1)], computed by 120-node Gauss-Hermite
quadrature to about 1e-8. That gives the generator a closed-form oracle:
learned models can be compared against the ceiling for whichever
modalities they actually saw. The all-ones Hadamard row is never used as a
template (a constant offset is invisible to layer-normalized models, and
it is the one direction matched filtering and the transformer would
disagree about). Only the rows in use are computed, never the full
matrix, and the module needs numpy alone.

Sample i is drawn from its own counter-derived generator, so any subset of
samples regenerates identically regardless of chunking or order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from .errors import ConfigError
from .rng import Stream, sample_rng
from .tokenizer import (
    DESK_AUDIO,
    DESK_VIDEO,
    MODALITIES,
    SpectrogramGeometry,
    VideoGeometry,
    spectrogram_patches,
    video_patches,
)


@dataclass(frozen=True)
class SynthConfig:
    """Shape and signal strength of one generated task."""

    audio: SpectrogramGeometry = DESK_AUDIO
    video: VideoGeometry = DESK_VIDEO
    n_classes: tuple[int, ...] = (4, 3)
    gains: dict[str, tuple[float, ...]] = field(
        default_factory=lambda: {"audio": (1.4, 1.3), "video": (1.6, 1.5)}
    )
    noise_sigma: float = 1.0
    natural_missing: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.noise_sigma <= 0:
            raise ConfigError("noise_sigma must be positive")
        if not self.n_classes or any(c < 2 for c in self.n_classes):
            raise ConfigError("every head needs at least two classes")
        if set(self.gains) != set(MODALITIES):
            raise ConfigError(f"gains must cover exactly {MODALITIES}")
        for m, gs in self.gains.items():
            if len(gs) != len(self.n_classes):
                raise ConfigError(f"gains[{m!r}] must list one gain per head")
            if any(g < 0 for g in gs):
                raise ConfigError("gains cannot be negative")
        for m, r in self.natural_missing.items():
            if m not in MODALITIES:
                raise ConfigError(f"unknown modality {m!r} in natural_missing")
            if not 0.0 <= r < 1.0:
                raise ConfigError(f"natural_missing[{m!r}] = {r} outside [0, 1)")
        templates_needed = sum(self.n_classes)
        for m in MODALITIES:
            if templates_needed + 1 > self.raw_size(m):
                raise ConfigError(f"{m} raw size too small for {templates_needed} templates")
            if self.raw_size(m) & (self.raw_size(m) - 1):
                raise ConfigError(f"{m} raw size {self.raw_size(m)} is not a power of two")

    def raw_shape(self, modality: str) -> tuple[int, ...]:
        if modality == "audio":
            return (self.audio.bins, self.audio.frames)
        if modality == "video":
            return (self.video.frames, self.video.height, self.video.width)
        raise ConfigError(f"unknown modality {modality!r}")

    def raw_size(self, modality: str) -> int:
        return int(np.prod(self.raw_shape(modality)))

    def separation(self, subset: tuple[str, ...], head: int) -> float:
        """Matched-filter separation d for one head given observed modalities."""
        total = sum(self.gains[m][head] ** 2 for m in subset)
        return float(np.sqrt(total) / self.noise_sigma)



@lru_cache(maxsize=8)
def _template_matrix(size: int, count: int) -> np.ndarray:
    """First ``count`` non-constant Hadamard rows, unit-normalized; read-only.

    Rows 1..count of the Sylvester matrix of order ``size`` (a power of
    two), built directly from ``H[i, j] = (-1)**popcount(i & j)`` rather
    than by cutting them out of the full ``size`` x ``size`` matrix. The
    array is shared by every caller through the cache, so it is frozen.
    """
    bits = np.arange(1, count + 1)[:, None] & np.arange(size)
    parity = np.zeros_like(bits)
    while bits.any():
        parity ^= bits & 1
        bits >>= 1
    rows = (1 - 2 * parity).astype(np.float64) / np.sqrt(size)
    rows.setflags(write=False)
    return rows


def templates(config: SynthConfig, modality: str) -> dict[int, np.ndarray]:
    """Per-head template banks, shape (n_classes[h], raw_size)."""
    rows = _template_matrix(config.raw_size(modality), sum(config.n_classes))
    out = {}
    offset = 0
    for h, c in enumerate(config.n_classes):
        out[h] = rows[offset : offset + c]
        offset += c
    return out


@dataclass
class SynthDataset:
    """Generated samples plus their ground-truth absence masks.

    Naturally absent entries carry all-zero raw data: the information is
    gone at generation time, not merely hidden behind the mask, so nothing
    downstream can accidentally peek. Schedule-induced missingness (test
    variants, r_train schedules) is the opposite: it lives in masks only
    and never touches stored data.
    """

    config: SynthConfig
    seed: int
    split: str
    labels: np.ndarray  # (n, heads) int64
    raw: dict  # modality -> (n, *raw_shape) float64
    missing: dict  # modality -> (n,) bool
    _patch_cache: dict = field(default_factory=dict, repr=False)

    def __len__(self) -> int:
        return self.labels.shape[0]

    def patches(self, modality: str) -> np.ndarray:
        """Tokenized raw input, cached; (n, tokens, patch_dim) float32.

        float32 is the model's compute dtype, so batches are cut from this
        without a cast; ``raw`` stays float64 for the matched filter.
        """
        if modality not in self._patch_cache:
            if modality == "audio":
                tokens = spectrogram_patches(self.raw["audio"], self.config.audio)
            elif modality == "video":
                tokens = video_patches(self.raw["video"], self.config.video)
            else:
                raise ConfigError(f"unknown modality {modality!r}")
            self._patch_cache[modality] = tokens.astype(np.float32)
        return self._patch_cache[modality]

    def complete_mask(self) -> np.ndarray:
        out = np.ones(len(self), dtype=bool)
        for m in MODALITIES:
            out &= ~self.missing[m]
        return out


def _render(config: SynthConfig, seed: int, split: str, indices: np.ndarray):
    heads = len(config.n_classes)
    labels = np.zeros((len(indices), heads), dtype=np.int64)
    raw = {m: np.zeros((len(indices),) + config.raw_shape(m)) for m in MODALITIES}
    banks = {m: templates(config, m) for m in MODALITIES}
    for row, i in enumerate(indices):
        rng = sample_rng(seed, f"sample/{split}", int(i))
        labs = [int(rng.integers(0, c)) for c in config.n_classes]
        labels[row] = labs
        for m in MODALITIES:
            size = config.raw_size(m)
            signal = np.zeros(size)
            for h in range(heads):
                signal += config.gains[m][h] * banks[m][h][labs[h]]
            noise = rng.standard_normal(size) * config.noise_sigma
            raw[m][row] = (signal + noise).reshape(config.raw_shape(m))
    return labels, raw


def missing_count(rate: float, n: int) -> int:
    """How many of ``n`` samples are missing at ``rate``: the generator's
    natural absences, the schedules and the config's feasibility check
    all count this way."""
    return int(rate * n)


def _natural_masks(config: SynthConfig, seed: int, split: str, n: int) -> dict:
    missing = {}
    for m in MODALITIES:
        mask = np.zeros(n, dtype=bool)
        rate = config.natural_missing.get(m, 0.0)
        if rate > 0:
            ids = list(range(n))
            Stream(seed, f"natural-missing/{split}/{m}").shuffle(ids)
            mask[ids[: missing_count(rate, n)]] = True
        missing[m] = mask
    return missing


def generate(config: SynthConfig, seed: int, n: int, split: str = "train") -> SynthDataset:
    """Render ``n`` samples for one split, deterministically in ``seed``."""
    if n <= 0:
        raise ConfigError("need a positive sample count")
    labels, raw = _render(config, seed, split, np.arange(n))
    missing = _natural_masks(config, seed, split, n)
    for m in MODALITIES:
        raw[m][missing[m]] = 0.0
    return SynthDataset(config, seed, split, labels, raw, missing)


def template_match(
    config: SynthConfig, raw: dict, subset: tuple[str, ...]
) -> np.ndarray:
    """Matched-filter predictions from the observed subset; (n, heads)."""
    if not subset:
        raise ConfigError("template matching needs at least one modality")
    n = raw[subset[0]].shape[0]
    heads = len(config.n_classes)
    preds = np.zeros((n, heads), dtype=np.int64)
    for h in range(heads):
        scores = np.zeros((n, config.n_classes[h]))
        for m in subset:
            bank = templates(config, m)[h]
            flat = raw[m].reshape(n, -1)
            scores += config.gains[m][h] * (flat @ bank.T)
        preds[:, h] = scores.argmax(axis=1)
    return preds


def bayes_accuracy_bound(d: float, n_classes: int) -> float:
    """Best achievable accuracy for a C-way race with separation d.

    The true class's matched-filter score beats C-1 independent standard
    normals: acc = E_u[Phi(u + d)^(C-1)], taken by Gauss-Hermite
    quadrature over u ~ N(0, 1).
    """
    if d < 0:
        raise ConfigError("separation cannot be negative")
    if n_classes < 2:
        raise ConfigError("need at least two classes")
    if d == 0.0:
        return 1.0 / n_classes
    nodes, weights = _hermite_rule()
    phi = np.array([0.5 * math.erfc(-(u + d) / math.sqrt(2.0)) for u in nodes])
    val = float(weights @ phi ** (n_classes - 1)) / math.sqrt(2.0 * math.pi)
    return min(val, 1.0)


@lru_cache(maxsize=1)
def _hermite_rule() -> tuple[np.ndarray, np.ndarray]:
    """120-node Gauss-Hermite rule for the weight exp(-u^2 / 2)."""
    return hermegauss(120)


def expected_accuracy(config: SynthConfig, subset: tuple[str, ...]) -> list[float]:
    """Per-head accuracy ceiling when exactly ``subset`` is observed."""
    return [
        bayes_accuracy_bound(config.separation(subset, h), c)
        for h, c in enumerate(config.n_classes)
    ]
