"""How raw modality arrays become token sequences.

A spectrogram is cut into (bins x frames) patches, a clip into
(t x h x w) tubelets; each flattened patch goes through one linear
projection and lands next to a learned positional embedding. The same
arithmetic covers both the desk-scale geometry the tests run and the
reference-scale geometry of full audiovisual classifiers.
"""

import numpy as np

from mmtlab.synthdata import SynthConfig
from mmtlab.tokenizer import (
    SpectrogramGeometry,
    VideoGeometry,
    spectrogram_patches,
    unpatch,
    video_patches,
)

# --- desk geometry: what the synthetic benchmark trains on ---------------
desk = SynthConfig()
a, v = desk.audio, desk.video
print(f"audio {a.bins}x{a.frames} in {a.patch_bins}x{a.patch_frames} patches "
      f"-> {a.tokens} tokens of dim {a.patch_dim}")
print(f"video {v.frames}x{v.height}x{v.width} in {v.patch_t}x{v.patch_h}x{v.patch_w} "
      f"tubelets -> {v.tokens} tokens of dim {v.patch_dim}")

# --- reference geometry: the numbers large AV classifiers quote ----------
ref_audio = SpectrogramGeometry.from_audio(
    bins=128, fps=100.0, seconds=8.0, patch_bins=16, patch_frames=16
)
ref_video = VideoGeometry(frames=16, height=224, width=224, patch_t=2, patch_h=16, patch_w=16)
print(f"8 s of 128-bin audio at 100 fps -> {ref_audio.tokens} tokens (expect 400)")
print(f"16-frame 224x224 clip -> {ref_video.tokens} tokens (expect 1568)")

# --- patching is exactly invertible: no pixels lost or duplicated --------
rng = np.random.default_rng(1)
spec = rng.normal(size=(2, a.bins, a.frames))
clip = rng.normal(size=(2, v.frames, v.height, v.width))
spec_tokens = spectrogram_patches(spec, a)
clip_tokens = video_patches(clip, v)
print(f"patch tensors: audio {spec_tokens.shape}, video {clip_tokens.shape}")
assert np.array_equal(unpatch(spec_tokens, a), spec)
assert np.array_equal(unpatch(clip_tokens, v), clip)
print("unpatch(patch(x)) == x for both modalities")

# --- token order is row-major over the patch grid ------------------------
marked = np.zeros((1, a.bins, a.frames))
marked[0, : a.patch_bins, : a.patch_frames] = 1.0  # light up the first patch
tokens = spectrogram_patches(marked, a)
hot = np.flatnonzero(np.abs(tokens[0]).sum(axis=1))
print(f"marking the top-left patch lights token {hot.tolist()} of {a.tokens}")
