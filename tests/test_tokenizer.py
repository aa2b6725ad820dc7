import numpy as np
import pytest

from mmtlab.errors import ConfigError, DimensionError
from mmtlab.tokenizer import (
    SpectrogramGeometry,
    VideoGeometry,
    spectrogram_patches,
    unpatch,
    video_patches,
)


def test_audio_token_count_full_scale():
    # 128 mel bins, 8 s at 100 fps, 16x16 patches: 128*800/256 = 400
    geom = SpectrogramGeometry.from_audio(
        bins=128, fps=100, seconds=8.0, patch_bins=16, patch_frames=16
    )
    assert geom.tokens == 400
    assert geom.grid == (8, 50)


def test_video_token_count_full_scale():
    # 16 frames at 224x224, 16x16 patches spanning 2 frames: 1568 tokens
    geom = VideoGeometry(frames=16, height=224, width=224, patch_t=2, patch_h=16, patch_w=16)
    assert geom.tokens == 1568
    assert geom.grid == (8, 14, 14)


def test_desk_scale_defaults():
    audio = SpectrogramGeometry.from_audio(
        bins=16, fps=16, seconds=4.0, patch_bins=8, patch_frames=8
    )
    video = VideoGeometry(frames=4, height=32, width=32, patch_t=2, patch_h=8, patch_w=8)
    assert audio.tokens == 16 and audio.patch_dim == 64
    assert video.tokens == 32 and video.patch_dim == 128


def test_indivisible_geometry_rejected():
    with pytest.raises(ConfigError):
        SpectrogramGeometry(bins=10, frames=16, patch_bins=8, patch_frames=8)
    with pytest.raises(ConfigError):
        VideoGeometry(frames=5, height=32, width=32, patch_t=2, patch_h=8, patch_w=8)
    with pytest.raises(ConfigError):
        SpectrogramGeometry.from_audio(bins=16, fps=3, seconds=0.5, patch_bins=8, patch_frames=1)


def test_spectrogram_patches_match_bruteforce():
    geom = SpectrogramGeometry(bins=6, frames=8, patch_bins=2, patch_frames=4)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 6, 8))
    got = spectrogram_patches(x, geom)
    assert got.shape == (3, geom.tokens, geom.patch_dim)
    # brute force: walk the patch grid row-major, flatten row-major
    for b in range(3):
        idx = 0
        for r in range(0, 6, 2):
            for c in range(0, 8, 4):
                np.testing.assert_array_equal(
                    got[b, idx], x[b, r : r + 2, c : c + 4].reshape(-1)
                )
                idx += 1


def test_video_patches_match_bruteforce():
    geom = VideoGeometry(frames=4, height=4, width=6, patch_t=2, patch_h=2, patch_w=3)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 4, 4, 6))
    got = video_patches(x, geom)
    assert got.shape == (2, geom.tokens, geom.patch_dim)
    for b in range(2):
        idx = 0
        for t in range(0, 4, 2):
            for r in range(0, 4, 2):
                for c in range(0, 6, 3):
                    np.testing.assert_array_equal(
                        got[b, idx], x[b, t : t + 2, r : r + 2, c : c + 3].reshape(-1)
                    )
                    idx += 1


def test_patch_roundtrips_are_bijective():
    sg = SpectrogramGeometry(bins=16, frames=64, patch_bins=8, patch_frames=8)
    vg = VideoGeometry(frames=4, height=32, width=32, patch_t=2, patch_h=8, patch_w=8)
    rng = np.random.default_rng(2)
    spec = rng.standard_normal((5, 16, 64))
    clip = rng.standard_normal((5, 4, 32, 32))
    np.testing.assert_array_equal(unpatch(spectrogram_patches(spec, sg), sg), spec)
    np.testing.assert_array_equal(unpatch(video_patches(clip, vg), vg), clip)


def test_wrong_input_shape_rejected():
    sg = SpectrogramGeometry(bins=16, frames=64, patch_bins=8, patch_frames=8)
    with pytest.raises(DimensionError):
        spectrogram_patches(np.zeros((2, 16, 32)), sg)
    vg = VideoGeometry(frames=4, height=32, width=32, patch_t=2, patch_h=8, patch_w=8)
    with pytest.raises(DimensionError):
        video_patches(np.zeros((2, 4, 32)), vg)
