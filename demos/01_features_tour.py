#!/usr/bin/env python3
"""A walk through the feature extraction pipeline.

Synthesizes a short clip, frames it, and derives each of the five per-frame
feature kinds, printing shapes and a few values along the way. No files are
written; this is a narrative script meant to be read alongside its output.
"""

import numpy as np

from shoutkit import audio_io, features

# A 1-second clip: a 1 kHz tone plus a little pink noise, the kind of thing
# the framing stage sees after ingestion.
rate = 16000
t = np.arange(rate) / rate
tone = 0.4 * np.sin(2 * np.pi * 1000 * t)
noise = audio_io.pink_noise(rate, rate, seed=7).samples * 0.05
clip = audio_io.AudioClip(tone + noise, rate, "demo-tone")
clip = audio_io.peak_normalize(clip)
print(f"clip: {clip.samples.size} samples at {clip.sample_rate} Hz, "
      f"peak {np.max(np.abs(clip.samples)):.4f} (corpus convention 30000/32768)")

# 1024-point Hamming frames, 512-point hop: floor((16000-1024)/512)+1 frames.
frames = features.frame_signal(clip)
print(f"frames: {frames.frames.shape} (frame length {features.FRAME_LENGTH}, "
      f"hop {features.HOP_LENGTH})")

# Per-frame power spectrum: transform bins 1..512 (the DC bin is dropped).
power = features.power_spectrum(frames.frames)
peak_bin = int(np.argmax(power[0])) + 1
print(f"power spectrum: {power.shape}; frame 0 peaks at bin {peak_bin} "
      f"= {peak_bin * rate / 1024:.0f} Hz")

# The five feature kinds and their per-frame dimensionalities.
for kind in features.FeatureKind:
    matrix = features.feature_matrix(clip, kind)
    print(f"{kind.value:18s} -> {matrix.shape[0]:3d} dims x {matrix.shape[1]} frames")

# 20-frame blocks with z-score normalization from (here) the clip itself.
matrix = features.feature_matrix(clip, features.FeatureKind.MEL_SPECTROGRAM)
stats = features.FeatureStats.fit([matrix])
blocks = features.assemble_blocks(clip, features.FeatureKind.MEL_SPECTROGRAM, stats=stats)
print(f"blocks: {blocks.shape} (blocks x dims x frames; "
      f"trailing {matrix.shape[1] - 20 * len(blocks)} frames dropped)")

# Gain invariance: attenuating the waveform shifts log features, and only
# coefficient 0 of the MFCCs moves.
quiet = audio_io.AudioClip(clip.samples / 4.0, rate, "demo-quiet")
loud_mfcc = features.feature_matrix(clip, features.FeatureKind.TMFCC)
quiet_mfcc = features.feature_matrix(quiet, features.FeatureKind.TMFCC)
print(f"MFCC coefficient 0 shift under /4 gain: "
      f"{np.mean(loud_mfcc[0] - quiet_mfcc[0]):+.4f}")
print(f"MFCC coefficients 1+ max shift:          "
      f"{np.max(np.abs(loud_mfcc[1:] - quiet_mfcc[1:])):.2e}")
