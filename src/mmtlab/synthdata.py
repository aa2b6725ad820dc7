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

A split is rendered in float64 and freed once tokenized: a dataset stores
only the float32 patches the model reads, one copy per modality, and
rebuilds the float64 ``raw`` view from them when asked.

One rule says which samples miss a modality at rate r, for natural
absences, training schedules and test variants alike: a schedule orders
the naturally incomplete ids first and the rest in a seeded shuffle, and
the first :func:`missing_count` ids are missing. So raising r only extends
the set, and a rate below the natural fraction cannot be honored.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
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
    geometry,
    spectrogram_patches,
    unpatch,
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
        return geometry(self, modality).shape

    def raw_size(self, modality: str) -> int:
        return math.prod(self.raw_shape(modality))

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


class SynthDataset:
    """Generated samples plus their ground-truth absence masks.

    The samples are held once, as the float32 ``(n, tokens, patch_dim)``
    patches the model reads: the constructor takes the rendered float64
    ``raw`` dict, casts each modality straight into that layout and keeps
    only the patches. ``raw`` is rebuilt from them on access, as float64
    of exactly the float32 values the model sees.

    Naturally absent entries carry all-zero data: the information is gone
    at generation time, not merely hidden behind the mask, so nothing
    downstream can accidentally peek. Schedule-induced missingness (test
    variants, r_train schedules) is the opposite: it lives in masks only
    and never touches stored data.
    """

    def __init__(
        self,
        config: SynthConfig,
        seed: int,
        split: str,
        labels: np.ndarray,  # (n, heads) int64
        raw: Mapping[str, np.ndarray],  # modality -> (n, *raw_shape)
        missing: dict,  # modality -> (n,) bool
    ):
        self.config = config
        self.seed = seed
        self.split = split
        self.labels = labels
        self.missing = missing
        self._patches = {
            "audio": spectrogram_patches(raw["audio"], config.audio, dtype=np.float32),
            "video": video_patches(raw["video"], config.video, dtype=np.float32),
        }

    def __len__(self) -> int:
        return self.labels.shape[0]

    def patches(self, modality: str) -> np.ndarray:
        """The stored samples of one modality; (n, tokens, patch_dim) float32."""
        if modality not in self._patches:
            raise ConfigError(f"unknown modality {modality!r}")
        return self._patches[modality]

    @property
    def raw(self) -> Mapping[str, np.ndarray]:
        """Read-only modality -> (n, *raw_shape) float64, rebuilt from the
        patches on each lookup; for the matched filter and inspection."""
        return _RawView(self)

    def complete_mask(self) -> np.ndarray:
        return complete(self.missing)


class _RawView(Mapping):
    """``SynthDataset.raw``: each lookup un-patches one modality into a
    fresh read-only float64 array."""

    def __init__(self, ds: SynthDataset):
        self._ds = ds

    def __getitem__(self, modality: str) -> np.ndarray:
        if modality not in MODALITIES:
            raise KeyError(modality)  # what ``in`` and ``get`` expect of a Mapping
        geom = geometry(self._ds.config, modality)
        x = unpatch(self._ds.patches(modality), geom, np.float64)
        x.setflags(write=False)
        return x

    def __iter__(self):
        return iter(MODALITIES)

    def __len__(self) -> int:
        return len(MODALITIES)


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


def complete(masks: Mapping[str, np.ndarray]) -> np.ndarray:
    """The samples absent from nothing: flagged in none of ``masks``."""
    return ~np.logical_or.reduce([np.asarray(mask, dtype=bool) for mask in masks.values()])


@dataclass(frozen=True)
class MissingnessSchedule:
    """Cumulative missing-set order for one modality of one split."""

    order: np.ndarray  # every sample id: natural incompletes, then shuffled
    natural_count: int

    def mask_at(self, rate: float) -> np.ndarray:
        """The first ``missing_count(rate, n)`` ids of ``order``. A rate below
        the natural absences is the ConfigError that
        :func:`mmtlab.config.check_feasible_rates` raises for it at load."""
        if not 0.0 <= rate <= 1.0:
            raise ConfigError(f"rate {rate} outside [0, 1]")
        n = len(self.order)
        count = missing_count(rate, n)
        if count < self.natural_count:
            raise ConfigError(
                f"requested missing rate {rate:.4f} is below the natural rate "
                f"{self.natural_count / n:.4f}; existing missing data cannot be restored"
            )
        mask = np.zeros(n, dtype=bool)
        mask[self.order[:count]] = True
        return mask


def build_schedule(natural_missing: np.ndarray, seed: int, stream: str) -> MissingnessSchedule:
    """Order ids for cumulative missingness under a named shuffle stream."""
    natural_missing = np.asarray(natural_missing, dtype=bool)
    natural = np.flatnonzero(natural_missing)
    rest = np.flatnonzero(~natural_missing).tolist()
    Stream(seed, stream).shuffle(rest)
    order = np.concatenate([natural, np.asarray(rest, dtype=np.int64)])
    return MissingnessSchedule(order.astype(np.int64), len(natural))


def _natural_masks(config: SynthConfig, seed: int, split: str, n: int) -> dict:
    """Each modality's natural absences: the prefix at its natural rate of a
    schedule over the split with nothing absent yet."""
    nothing = np.zeros(n, dtype=bool)
    missing = {}
    for m in MODALITIES:
        rate = config.natural_missing.get(m, 0.0)
        if rate > 0:
            missing[m] = build_schedule(nothing, seed, f"natural-missing/{split}/{m}").mask_at(rate)
        else:
            missing[m] = nothing.copy()
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
    config: SynthConfig, raw: Mapping[str, np.ndarray], subset: tuple[str, ...]
) -> np.ndarray:
    """Matched-filter predictions from the observed subset; (n, heads)."""
    if not subset:
        raise ConfigError("template matching needs at least one modality")
    flat = {m: raw[m].reshape(-1, config.raw_size(m)) for m in subset}
    n = flat[subset[0]].shape[0]
    heads = len(config.n_classes)
    preds = np.zeros((n, heads), dtype=np.int64)
    for h in range(heads):
        scores = np.zeros((n, config.n_classes[h]))
        for m in subset:
            bank = templates(config, m)[h]
            scores += config.gains[m][h] * (flat[m] @ bank.T)
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
