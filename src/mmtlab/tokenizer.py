"""Patch tokenization for spectrogram and video inputs.

A spectrogram patch and a video tubelet are the same cut in two and in
three dimensions: a geometry gives its raw axes (``shape``) and the patch
size on each (``patch``), and one routine cuts the raw array into
non-overlapping patches, flattened in a fixed (row-major) order;
:func:`mmtlab.model.embed_content` projects them to the embedding dimension.
Token counts are pure arithmetic on the geometry, so the same code
answers both the desk-scale defaults and full-scale sanity checks such as
a 128-bin, 8-second spectrogram at 100 frames per second yielding
128*800/256 = 400 tokens. :func:`geometry` picks a config's geometry by
modality name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError

MODALITIES = ("audio", "video")


class _Geometry:
    """Grid arithmetic shared by the geometries, from ``shape`` and ``patch``."""

    shape: tuple[int, ...]
    patch: tuple[int, ...]

    def __post_init__(self):
        if any(dim % p for dim, p in zip(self.shape, self.patch)):
            raise ConfigError(
                f"{type(self).__name__} shape {self.shape} not divisible by patch {self.patch}"
            )

    @property
    def grid(self) -> tuple[int, ...]:
        return tuple(dim // p for dim, p in zip(self.shape, self.patch))

    @property
    def tokens(self) -> int:
        return math.prod(self.grid)

    @property
    def patch_dim(self) -> int:
        return math.prod(self.patch)


@dataclass(frozen=True)
class SpectrogramGeometry(_Geometry):
    """Mel-spectrogram treated as a (bins, frames) single-channel image."""

    bins: int
    frames: int
    patch_bins: int
    patch_frames: int

    @property
    def shape(self) -> tuple[int, int]:
        return (self.bins, self.frames)

    @property
    def patch(self) -> tuple[int, int]:
        return (self.patch_bins, self.patch_frames)

    @classmethod
    def from_audio(cls, bins: int, fps: float, seconds: float, patch_bins: int, patch_frames: int):
        frames = fps * seconds
        if abs(frames - round(frames)) > 1e-9:
            raise ConfigError(f"fps*seconds = {frames} is not a whole number of frames")
        return cls(bins, int(round(frames)), patch_bins, patch_frames)


@dataclass(frozen=True)
class VideoGeometry(_Geometry):
    """Clip of ``frames`` grayscale images cut into tubelets.

    A tubelet spans patch_t consecutive frames and a patch_h x patch_w
    spatial window, matching tokenizers that trade temporal for spatial
    extent to keep token counts manageable.
    """

    frames: int
    height: int
    width: int
    patch_t: int
    patch_h: int
    patch_w: int

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.frames, self.height, self.width)

    @property
    def patch(self) -> tuple[int, int, int]:
        return (self.patch_t, self.patch_h, self.patch_w)


# the desk-scale geometry the generator and the model default to
DESK_AUDIO = SpectrogramGeometry(bins=16, frames=64, patch_bins=8, patch_frames=8)
DESK_VIDEO = VideoGeometry(frames=4, height=32, width=32, patch_t=2, patch_h=8, patch_w=8)


def geometry(cfg, modality: str) -> _Geometry:
    """The geometry of ``modality`` in a model or generator config, which
    hold one geometry field per modality, named after it."""
    if modality not in MODALITIES:
        raise ConfigError(f"unknown modality {modality!r}")
    return getattr(cfg, modality)


def _cut(x: np.ndarray, geom: _Geometry, dtype) -> np.ndarray:
    """(batch, *shape) -> (batch, tokens, patch_dim) in ``dtype`` (default:
    ``x``'s), cast while the patches are gathered, so no full-size copy in
    ``x``'s dtype is made on the way."""
    if x.shape[1:] != geom.shape:
        raise DimensionError(f"expected (batch, *{geom.shape}) inputs, got {x.shape}")
    b, k = x.shape[0], len(geom.shape)
    # (b, g0, p0, g1, p1, ...), then the grid axes moved in front of the patch axes
    x = x.reshape(b, *(n for pair in zip(geom.grid, geom.patch) for n in pair))
    axes = (0, *range(1, 2 * k, 2), *range(2, 2 * k + 1, 2))
    x = np.ascontiguousarray(x.transpose(axes), dtype=dtype)
    return x.reshape(b, geom.tokens, geom.patch_dim)


def spectrogram_patches(x: np.ndarray, geom: SpectrogramGeometry, dtype=None) -> np.ndarray:
    """(batch, bins, frames) -> (batch, tokens, patch_dim), row-major grid."""
    return _cut(x, geom, dtype)


def video_patches(x: np.ndarray, geom: VideoGeometry, dtype=None) -> np.ndarray:
    """(batch, frames, h, w) -> (batch, tokens, patch_dim), t-major grid."""
    return _cut(x, geom, dtype)


def unpatch(tokens: np.ndarray, geom: _Geometry, dtype=None) -> np.ndarray:
    """Inverse of the patch cut: (batch, tokens, patch_dim) -> (batch, *shape),
    in ``dtype``."""
    b, k = tokens.shape[0], len(geom.shape)
    x = tokens.reshape(b, *geom.grid, *geom.patch)
    # interleave back to (b, g0, p0, g1, p1, ...)
    axes = (0, *(a for i in range(1, k + 1) for a in (i, i + k)))
    x = np.ascontiguousarray(x.transpose(axes), dtype=dtype)
    return x.reshape(b, *geom.shape)
