"""Patch tokenization for spectrogram and video inputs.

Raw inputs are cut into non-overlapping patches and flattened in a fixed
(row-major) order; :func:`mmtlab.model.embed_content` projects them to the
embedding dimension.
Token counts are pure arithmetic on the input geometry, so the same code
answers both the desk-scale defaults and full-scale sanity checks such as
a 128-bin, 8-second spectrogram at 100 frames per second yielding
128*800/256 = 400 tokens.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError

MODALITIES = ("audio", "video")


@dataclass(frozen=True)
class SpectrogramGeometry:
    """Mel-spectrogram treated as a (bins, frames) single-channel image."""

    bins: int
    frames: int
    patch_bins: int
    patch_frames: int

    def __post_init__(self):
        if self.bins % self.patch_bins != 0:
            raise ConfigError(f"{self.bins} bins not divisible by patch height {self.patch_bins}")
        if self.frames % self.patch_frames != 0:
            raise ConfigError(
                f"{self.frames} frames not divisible by patch width {self.patch_frames}"
            )

    @property
    def grid(self) -> tuple[int, int]:
        return (self.bins // self.patch_bins, self.frames // self.patch_frames)

    @property
    def tokens(self) -> int:
        rows, cols = self.grid
        return rows * cols

    @property
    def patch_dim(self) -> int:
        return self.patch_bins * self.patch_frames

    @classmethod
    def from_audio(cls, bins: int, fps: float, seconds: float, patch_bins: int, patch_frames: int):
        frames = fps * seconds
        if abs(frames - round(frames)) > 1e-9:
            raise ConfigError(f"fps*seconds = {frames} is not a whole number of frames")
        return cls(bins, int(round(frames)), patch_bins, patch_frames)


@dataclass(frozen=True)
class VideoGeometry:
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

    def __post_init__(self):
        for dim, patch, label in (
            (self.frames, self.patch_t, "frames"),
            (self.height, self.patch_h, "height"),
            (self.width, self.patch_w, "width"),
        ):
            if dim % patch != 0:
                raise ConfigError(f"video {label} {dim} not divisible by patch {patch}")

    @property
    def grid(self) -> tuple[int, int, int]:
        return (
            self.frames // self.patch_t,
            self.height // self.patch_h,
            self.width // self.patch_w,
        )

    @property
    def tokens(self) -> int:
        t, h, w = self.grid
        return t * h * w

    @property
    def patch_dim(self) -> int:
        return self.patch_t * self.patch_h * self.patch_w


# the desk-scale geometry the generator and the model default to
DESK_AUDIO = SpectrogramGeometry(bins=16, frames=64, patch_bins=8, patch_frames=8)
DESK_VIDEO = VideoGeometry(frames=4, height=32, width=32, patch_t=2, patch_h=8, patch_w=8)


def spectrogram_patches(x: np.ndarray, geom: SpectrogramGeometry) -> np.ndarray:
    """(batch, bins, frames) -> (batch, tokens, patch_dim), row-major grid."""
    if x.ndim != 3 or x.shape[1] != geom.bins or x.shape[2] != geom.frames:
        raise DimensionError(
            f"expected (batch, {geom.bins}, {geom.frames}) spectrograms, got {x.shape}"
        )
    b = x.shape[0]
    rows, cols = geom.grid
    x = x.reshape(b, rows, geom.patch_bins, cols, geom.patch_frames)
    x = x.transpose(0, 1, 3, 2, 4)
    return np.ascontiguousarray(x.reshape(b, rows * cols, geom.patch_dim))


def video_patches(x: np.ndarray, geom: VideoGeometry) -> np.ndarray:
    """(batch, frames, h, w) -> (batch, tokens, patch_dim), t-major grid."""
    if x.ndim != 4 or x.shape[1:] != (geom.frames, geom.height, geom.width):
        raise DimensionError(
            f"expected (batch, {geom.frames}, {geom.height}, {geom.width}) clips, got {x.shape}"
        )
    b = x.shape[0]
    t, h, w = geom.grid
    x = x.reshape(b, t, geom.patch_t, h, geom.patch_h, w, geom.patch_w)
    x = x.transpose(0, 1, 3, 5, 2, 4, 6)
    return np.ascontiguousarray(x.reshape(b, t * h * w, geom.patch_dim))


def unpatch_spectrogram(tokens: np.ndarray, geom: SpectrogramGeometry) -> np.ndarray:
    """Inverse of :func:`spectrogram_patches`."""
    b = tokens.shape[0]
    rows, cols = geom.grid
    x = tokens.reshape(b, rows, cols, geom.patch_bins, geom.patch_frames)
    x = x.transpose(0, 1, 3, 2, 4)
    return np.ascontiguousarray(x.reshape(b, geom.bins, geom.frames))


def unpatch_video(tokens: np.ndarray, geom: VideoGeometry) -> np.ndarray:
    """Inverse of :func:`video_patches`."""
    b = tokens.shape[0]
    t, h, w = geom.grid
    x = tokens.reshape(b, t, h, w, geom.patch_t, geom.patch_h, geom.patch_w)
    x = x.transpose(0, 1, 4, 2, 5, 3, 6)
    return np.ascontiguousarray(x.reshape(b, geom.frames, geom.height, geom.width))
