"""Frame-level speech features and 20-frame feature blocks.

The pipeline is: Hamming-windowed 1024-point frames with a 512-point hop,
a 1024-point transform per frame, then one of five per-frame features:

  spectrogram        512  log power, transform bins 1..512 (DC dropped)
  cepstrogram        512  real cepstrum of the log power spectrum
  mel_spectrogram     30  log triangular mel-filter energies, 0..8 kHz
  tmfcc               30  MFCCs (40 mel filters, orthonormal DCT-II, coeffs 0..29)
  mfcc_delta_delta    60  30 static MFCCs stacked with their 30 second deltas

Features are grouped into non-overlapping blocks of 20 frames; a trailing
remainder shorter than 20 frames is dropped. A clip's blocks are one
(n_blocks, D, 20) array, the form models take as input. Power is floored at
1e-10 before any log, so silence never produces -inf.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio_io import SAMPLE_RATE, AudioClip
from .errors import (ConfigError, DegenerateInputError, FormatError, NumericError, ShapeError,
                     UnsupportedError)
from .textio import read_bytes, read_text, write_bytes, write_csv, write_text

FRAME_LENGTH = 1024
HOP_LENGTH = 512
BLOCK_FRAMES = 20
LOG_FLOOR = 1e-10

_N_MEL_FILTERS = 30          # mel spectrogram dimensionality
_N_MFCC_FILTERS = 40         # filters feeding the DCT
_N_MFCC_COEFFS = 30
_MEL_FMIN = 0.0
_MEL_FMAX = 8000.0

# 0.54 - 0.46*cos(2*pi*n/(N-1)), the symmetric (periodic-inclusive) form
_WINDOW = np.hamming(FRAME_LENGTH)


class FeatureKind(Enum):
    """A per-frame feature: its name (the value), its width ``dim`` and the
    kind byte ``code`` that SKFB containers record."""

    SPECTROGRAM = ("spectrogram", FRAME_LENGTH // 2, 1)
    CEPSTROGRAM = ("cepstrogram", FRAME_LENGTH // 2, 2)
    MEL_SPECTROGRAM = ("mel_spectrogram", _N_MEL_FILTERS, 3)
    TMFCC = ("tmfcc", _N_MFCC_COEFFS, 4)
    MFCC_DELTA_DELTA = ("mfcc_delta_delta", 2 * _N_MFCC_COEFFS, 5)

    def __new__(cls, value: str, dim: int, code: int):
        kind = object.__new__(cls)
        kind._value_, kind.dim, kind.code = value, dim, code
        return kind


_CODE_KINDS = {kind.code: kind for kind in FeatureKind}


def parse_feature_kind(name: str) -> FeatureKind:
    try:
        return FeatureKind(name.strip().lower())
    except ValueError:
        valid = ", ".join(k.value for k in FeatureKind)
        raise ConfigError(f"unknown feature kind {name!r}; expected one of: {valid}")


@dataclass(frozen=True)
class FrameMatrix:
    """Hamming-windowed frames of one clip, one row per frame."""

    frames: np.ndarray  # (T, 1024)

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]


def frame_signal(clip: AudioClip) -> FrameMatrix:
    """Partition a 16 kHz clip into windowed frames.

    T = floor((L - 1024) / 512) + 1; each row is the raw frame multiplied
    elementwise by the Hamming window.
    """
    if clip.sample_rate != SAMPLE_RATE:
        raise UnsupportedError(f"features expect 16 kHz audio, got {clip.sample_rate} Hz")
    x = clip.samples
    if x.size < FRAME_LENGTH:
        raise DegenerateInputError(
            f"clip of {x.size} samples is shorter than one {FRAME_LENGTH}-point frame"
        )
    frames = sliding_window_view(x, FRAME_LENGTH)[::HOP_LENGTH] * _WINDOW
    return FrameMatrix(frames=frames)


def power_spectrum_full(frame: np.ndarray) -> np.ndarray:
    """Power of the 1024-point transform, bins 0..512 (DC and Nyquist included).

    Shorter inputs are zero-padded to 1024 points. Works on a single frame
    or a (T, n) batch of frames.
    """
    frame = np.asarray(frame, dtype=np.float64)
    if not np.all(np.isfinite(frame)):
        raise NumericError("non-finite values in frame")
    if frame.shape[-1] > FRAME_LENGTH:
        raise UnsupportedError(f"frame longer than {FRAME_LENGTH} points")
    spectrum = np.fft.rfft(frame, n=FRAME_LENGTH, axis=-1)
    return np.abs(spectrum) ** 2


def power_spectrum(frame: np.ndarray) -> np.ndarray:
    """512-bin power spectrum: bins 1..512 of the 1024-point transform.

    The DC bin is dropped so constant offsets never enter the features.
    """
    return power_spectrum_full(frame)[..., 1:]


def cepstrum_full(power_full: np.ndarray) -> np.ndarray:
    """1024-point real cepstrum: inverse transform of the floored log power."""
    power_full = np.asarray(power_full, dtype=np.float64)
    log_power = np.log(np.maximum(power_full, LOG_FLOOR))
    return np.fft.irfft(log_power, n=FRAME_LENGTH, axis=-1)


def cepstrum(power_full: np.ndarray) -> np.ndarray:
    """Real cepstrum truncated to quefrencies 0..511 (one per spectrogram bin).

    A copy, so a kept cepstrogram does not hold the 1024-point transform too."""
    return cepstrum_full(power_full)[..., :512].copy()


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@lru_cache(maxsize=None)
def mel_filterbank(n_filters: int) -> np.ndarray:
    """Triangular mel filterbank over spectrum bins 1..512, shape (n_filters, 512).

    Filter edges are mel-spaced between 0 and 8000 Hz; weights are evaluated
    at the exact bin frequencies (continuous triangles, no integer snapping).
    """
    bin_freqs = np.arange(1, 513) * SAMPLE_RATE / FRAME_LENGTH
    mel_points = np.linspace(hz_to_mel(_MEL_FMIN), hz_to_mel(_MEL_FMAX), n_filters + 2)
    hz_points = mel_to_hz(mel_points)
    fb = np.zeros((n_filters, 512))
    for i in range(n_filters):
        left, center, right = hz_points[i], hz_points[i + 1], hz_points[i + 2]
        rising = (bin_freqs - left) / (center - left)
        falling = (right - bin_freqs) / (right - center)
        fb[i] = np.clip(np.minimum(rising, falling), 0.0, None)
    return fb


@lru_cache(maxsize=None)
def dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix, rows are basis vectors: G @ G.T = I."""
    k = np.arange(n)[:, None]
    m = np.arange(n)[None, :]
    g = np.cos(np.pi * (m + 0.5) * k / n) * np.sqrt(2.0 / n)
    g[0] /= np.sqrt(2.0)
    return g


def mel_spectrogram(power_512: np.ndarray) -> np.ndarray:
    """Log energies of 30 triangular mel filters spanning 0..8000 Hz."""
    power_512 = np.asarray(power_512, dtype=np.float64)
    energies = power_512 @ mel_filterbank(_N_MEL_FILTERS).T
    return np.log(np.maximum(energies, LOG_FLOOR))


def mfcc(power_512: np.ndarray) -> np.ndarray:
    """30 MFCCs: orthonormal DCT-II of 40 log mel-filter energies."""
    power_512 = np.asarray(power_512, dtype=np.float64)
    energies = power_512 @ mel_filterbank(_N_MFCC_FILTERS).T
    log_mel = np.log(np.maximum(energies, LOG_FLOOR))
    coeffs = log_mel @ dct_matrix(_N_MFCC_FILTERS).T
    return coeffs[..., :_N_MFCC_COEFFS]


def delta(sequence: np.ndarray) -> np.ndarray:
    """Regression delta over time with window n in {1, 2} and replicate padding.

    d_t = sum_n n * (c_{t+n} - c_{t-n}) / 10, for a (T,) or (T, D) sequence.
    """
    seq = np.asarray(sequence, dtype=np.float64)
    padded = np.concatenate([seq[:1], seq[:1], seq, seq[-1:], seq[-1:]], axis=0)
    t = np.arange(seq.shape[0]) + 2
    return (padded[t + 1] - padded[t - 1] + 2.0 * (padded[t + 2] - padded[t - 2])) / 10.0


def delta_delta(sequence: np.ndarray) -> np.ndarray:
    """Second derivatives: the delta regression applied twice."""
    return delta(delta(sequence))


def feature_matrix(clip: AudioClip, kind: FeatureKind) -> np.ndarray:
    """Per-frame features for a whole clip, shape (D, T)."""
    frames = frame_signal(clip)
    power_full = power_spectrum_full(frames.frames)  # (T, 513)
    power = power_full[:, 1:]
    if kind is FeatureKind.SPECTROGRAM:
        feats = np.log(np.maximum(power, LOG_FLOOR))
    elif kind is FeatureKind.CEPSTROGRAM:
        feats = cepstrum(power_full)
    elif kind is FeatureKind.MEL_SPECTROGRAM:
        feats = mel_spectrogram(power)
    elif kind is FeatureKind.TMFCC:
        feats = mfcc(power)
    elif kind is FeatureKind.MFCC_DELTA_DELTA:
        static = mfcc(power)
        feats = np.concatenate([static, delta_delta(static)], axis=1)
    else:
        raise UnsupportedError(f"unknown feature kind {kind}")
    return feats.T  # (D, T)


@dataclass
class FeatureStats:
    """Per-dimension z-score statistics, fitted on training data only."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, matrices: list[np.ndarray]) -> "FeatureStats":
        """Pool frames from (D, T) matrices and compute per-dimension stats."""
        if not matrices:
            raise DegenerateInputError("no matrices to fit statistics on")
        pooled = np.concatenate([np.asarray(m, dtype=np.float64) for m in matrices], axis=1)
        mean = pooled.mean(axis=1)
        std = np.maximum(pooled.std(axis=1), 1e-8)
        return cls(mean=mean, std=std)

    def apply(self, data: np.ndarray) -> np.ndarray:
        return (data - self.mean[:, None]) / self.std[:, None]

    def save(self, path, kind: FeatureKind) -> None:
        """Write the stats as JSON, with the feature kind they were fitted on."""
        payload = {"kind": kind.value, "mean": self.mean.tolist(), "std": self.std.tolist()}
        write_text(path, json.dumps(payload))

    @classmethod
    def load(cls, path, kind: FeatureKind) -> "FeatureStats":
        """Read stats that ``save`` wrote for ``kind``; a file of another kind,
        one that records no kind, or one with a non-finite value or a std
        that is not positive is refused."""
        try:
            payload = json.loads(read_text(path, "feature stats"))
            mean, std = (np.asarray(payload[key], dtype=np.float64) for key in ("mean", "std"))
        except (ValueError, KeyError, TypeError) as exc:
            raise FormatError(f"{path}: not a feature stats file ({exc!r})") from None
        if mean.ndim != 1 or mean.shape != std.shape:
            raise FormatError(f"{path}: mean {mean.shape} and std {std.shape} are not one length")
        if not (np.isfinite(mean).all() and np.isfinite(std).all() and (std > 0).all()):
            raise FormatError(f"{path}: mean and std must be finite, and std above 0")
        fitted = payload.get("kind") or "an unrecorded kind"
        if fitted != kind.value:
            raise FormatError(f"{path}: stats fitted on {fitted}, not {kind.value}")
        return cls(mean=mean, std=std)


def split_blocks(matrix: np.ndarray, kind: FeatureKind,
                 stats: FeatureStats | None = None) -> np.ndarray:
    """Cut a (D, T) matrix of ``kind`` into a C-contiguous (n_blocks, D, 20)
    array of non-overlapping 20-frame blocks.

    The trailing remainder shorter than 20 frames is dropped. When stats are
    given, the kept frames are z-scored per dimension.
    """
    if matrix.ndim != 2 or matrix.shape[0] != kind.dim:
        raise ShapeError(f"{kind.value} expects a ({kind.dim}, T) matrix, got {matrix.shape}")
    if stats is not None and stats.mean.shape != (kind.dim,):
        raise ShapeError(f"statistics of length {stats.mean.size} do not fit "
                         f"{kind.value} ({kind.dim} dims)")
    n_frames = matrix.shape[1]
    n_blocks = n_frames // BLOCK_FRAMES
    if n_blocks == 0:
        raise DegenerateInputError(
            f"clip yields {n_frames} frames, fewer than one {BLOCK_FRAMES}-frame block"
        )
    kept = matrix[:, : n_blocks * BLOCK_FRAMES]
    if stats is not None:
        kept = stats.apply(kept)
    blocks = kept.reshape(kind.dim, n_blocks, BLOCK_FRAMES).transpose(1, 0, 2)
    return np.ascontiguousarray(blocks)


def assemble_blocks(clip: AudioClip, kind: FeatureKind,
                    stats: FeatureStats | None = None) -> np.ndarray:
    """Full clip-to-blocks path: frames, per-frame features, 20-frame blocks."""
    return split_blocks(feature_matrix(clip, kind), kind, stats=stats)


# Binary block container: all integers little-endian.
#   magic   4 bytes  b"SKFB"
#   version u16      1
#   kind    u8       FeatureKind.code
#   dim     u32      per-frame dimensionality D
#   frames  u32      frames per block (20)
#   count   u32      number of blocks
#   payload count * D * frames float32, row-major (rows = dimensions)
_CONTAINER_MAGIC = b"SKFB"
_HEADER = struct.Struct("<4sHBIII")


def save_blocks(blocks: np.ndarray, kind: FeatureKind, path) -> None:
    """Write an (n_blocks, D, 20) array of ``kind`` as an SKFB container."""
    if blocks.ndim != 3 or blocks.shape[1:] != (kind.dim, BLOCK_FRAMES):
        raise ShapeError(f"{kind.value} blocks must be (n, {kind.dim}, {BLOCK_FRAMES}), "
                         f"got {blocks.shape}")
    if len(blocks) == 0:
        raise DegenerateInputError("no blocks to save")
    header = _HEADER.pack(_CONTAINER_MAGIC, 1, kind.code, kind.dim, BLOCK_FRAMES, len(blocks))
    write_bytes(path, header + np.ascontiguousarray(blocks, dtype="<f4").tobytes(),
                "block container")


def load_blocks(path) -> tuple[FeatureKind, np.ndarray]:
    """Read an SKFB container back into its kind and (n_blocks, D, 20) array."""
    raw = read_bytes(path, "block container")
    if len(raw) < _HEADER.size:
        raise FormatError(f"block container too short: {path}")
    magic, version, code, dim, frames, count = _HEADER.unpack_from(raw)
    if magic != _CONTAINER_MAGIC:
        raise FormatError(f"bad magic in block container: {path}")
    if version != 1:
        raise UnsupportedError(f"unsupported container version {version}")
    if code not in _CODE_KINDS:
        raise FormatError(f"unknown feature kind code {code}")
    kind = _CODE_KINDS[code]
    if dim != kind.dim or frames != BLOCK_FRAMES:
        raise FormatError(f"{kind.value} container header says {dim} x {frames} blocks, "
                          f"not {kind.dim} x {BLOCK_FRAMES}: {path}")
    if count == 0:
        raise FormatError(f"block container holds no blocks: {path}")
    expected = _HEADER.size + 4 * dim * frames * count
    if len(raw) != expected:
        raise FormatError(f"container payload size mismatch: {len(raw)} != {expected}")
    payload = np.frombuffer(raw, dtype="<f4", offset=_HEADER.size).astype(np.float64)
    return kind, payload.reshape(count, dim, frames)


def write_blocks_csv(blocks: np.ndarray, path) -> None:
    """Debug dump: one row per (block, dimension) with the 20 frame values."""
    write_csv(path, ["block", "dim"] + [f"t{i}" for i in range(BLOCK_FRAMES)],
              ([index, d] + [repr(v) for v in row.tolist()]
               for index, block in enumerate(blocks) for d, row in enumerate(block)))
