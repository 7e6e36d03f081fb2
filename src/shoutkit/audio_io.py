"""Loading, resampling, normalizing and noise-mixing of speech clips.

All functions are pure: they never mutate their inputs and, where randomness
is involved (noise segment selection, synthetic noise), take an explicit seed.
"""

from __future__ import annotations

import math
import wave
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateInputError, FormatError, NumericError, UnsupportedError

# Sentinel SNR for the clean (no noise) condition.
CLEAN = math.inf

# The eight evaluation conditions of the standard SNR sweep.
SWEEP_SNRS_DB = (CLEAN, 20.0, 10.0, 5.0, 0.0, -5.0, -10.0, -20.0)

# Corpus amplitude convention: peaks normalized to 30000 on the int16 grid.
DEFAULT_TARGET_PEAK = 30000.0 / 32768.0

# The rate every clip is resampled to before features, noise or synthesis.
SAMPLE_RATE = 16000

# Peak of a synthesized pink-noise clip.
_PINK_PEAK = 0.9


@dataclass(frozen=True)
class AudioClip:
    """Mono sample sequence in [-1, 1] with its sample rate."""

    samples: np.ndarray
    sample_rate: int
    source_id: str = ""

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.float64))

    def validate(self) -> "AudioClip":
        """Check the clip invariants; returns self so calls can be chained."""
        if self.samples.ndim != 1:
            raise UnsupportedError("clip must be mono (1-D sample array)")
        if self.sample_rate <= 0:
            raise UnsupportedError(f"sample rate must be positive, got {self.sample_rate}")
        if not np.all(np.isfinite(self.samples)):
            raise DegenerateInputError("clip contains non-finite samples")
        peak = float(np.max(np.abs(self.samples))) if self.samples.size else 0.0
        if peak > 1.0 + 1e-12:
            raise DegenerateInputError(f"clip peak {peak:.6f} exceeds 1.0")
        return self


@dataclass(frozen=True)
class NoiseSpec:
    """Requested noise condition: an SNR and a noise source.

    ``snr_db`` may be the CLEAN sentinel (math.inf), in which case the noise
    source is ignored. ``seed`` drives the random choice of the noise segment
    start offset, so mixes are reproducible.
    """

    snr_db: float
    noise: AudioClip | None = None
    seed: int = 0


def rms(samples: np.ndarray) -> float:
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        return 0.0
    return float(np.sqrt(np.mean(samples * samples)))


def load_wav(path) -> AudioClip:
    """Read a RIFF WAV file: PCM, 16-bit little-endian, mono.

    Samples are scaled by 1/32768 into [-1, 1]. Anything other than 16-bit
    mono PCM is rejected with UnsupportedError; malformed containers, and a
    payload shorter than the header's frame count, raise FormatError.
    """
    try:
        with wave.open(str(path), "rb") as wf:
            nchannels = wf.getnchannels()
            sampwidth = wf.getsampwidth()
            comptype = wf.getcomptype()
            rate = wf.getframerate()
            nframes = wf.getnframes()
            raw = wf.readframes(nframes)
    except wave.Error as exc:
        raise FormatError(f"malformed WAV file {path}: {exc}") from exc
    except EOFError as exc:
        raise FormatError(f"truncated WAV file {path}") from exc
    if comptype != "NONE":
        raise UnsupportedError(f"compressed WAV ({comptype}) not supported: {path}")
    if nchannels != 1:
        raise UnsupportedError(f"expected mono, got {nchannels} channels: {path}")
    if sampwidth != 2:
        raise UnsupportedError(f"expected 16-bit samples, got {8 * sampwidth}-bit: {path}")
    if len(raw) != nframes * sampwidth:
        raise FormatError(f"truncated WAV file {path}: header says {nframes} frames, "
                          f"payload holds {len(raw) // sampwidth}")
    ints = np.frombuffer(raw, dtype="<i2")
    samples = ints.astype(np.float64) / 32768.0
    return AudioClip(samples=samples, sample_rate=rate, source_id=str(path)).validate()


def write_wav(clip: AudioClip, path) -> None:
    """Write a clip as 16-bit little-endian mono PCM.

    Values on the int16 grid (k/32768) round-trip exactly through
    load_wav(write_wav(...)).
    """
    ints = np.clip(np.round(clip.samples * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(clip.sample_rate)
        wf.writeframes(ints.tobytes())


# Decimation filter: windowed-sinc low-pass, 127 taps, cutoff 7.6 kHz at 48 kHz.
_DECIM_TAPS = 127
_DECIM_CUTOFF_HZ = 7600.0


def _decimation_filter(input_rate: int) -> np.ndarray:
    n = np.arange(_DECIM_TAPS, dtype=np.float64)
    center = (_DECIM_TAPS - 1) / 2.0
    fc = _DECIM_CUTOFF_HZ / input_rate  # normalized cutoff (cycles/sample)
    h = 2.0 * fc * np.sinc(2.0 * fc * (n - center))
    h *= np.hamming(_DECIM_TAPS)
    return h / h.sum()  # unit DC gain


def resample_to_16k(clip: AudioClip) -> AudioClip:
    """Downsample a 48 kHz clip to 16 kHz (3:1) with an anti-aliasing low-pass.

    16 kHz input passes through unchanged. The filter is applied in 'same'
    alignment (group delay compensated), so the output holds every third
    sample of the filtered signal: length = ceil(len/3).
    """
    if clip.sample_rate == SAMPLE_RATE:
        return clip
    if clip.sample_rate != 48000:
        raise UnsupportedError(
            f"only 48 kHz input can be resampled, got {clip.sample_rate} Hz"
        )
    h = _decimation_filter(clip.sample_rate)
    filtered = np.convolve(clip.samples, h, mode="same")
    out = filtered[::3]
    # Sinc ringing can overshoot the [-1, 1] envelope by a hair; clamp it.
    np.clip(out, -1.0, 1.0, out=out)
    return AudioClip(samples=out, sample_rate=SAMPLE_RATE, source_id=clip.source_id)


def peak_normalize(clip: AudioClip) -> AudioClip:
    """Scale the waveform by a single positive gain so max |sample| = DEFAULT_TARGET_PEAK."""
    peak = float(np.max(np.abs(clip.samples))) if clip.samples.size else 0.0
    if peak == 0.0:
        raise DegenerateInputError("cannot peak-normalize an all-zero clip")
    gain = DEFAULT_TARGET_PEAK / peak
    return replace(clip, samples=clip.samples * gain)


def mix_noise_at_snr(speech: AudioClip, spec: NoiseSpec) -> AudioClip:
    """Add a noise segment to speech at the requested SNR.

    A random contiguous noise segment of the speech length is cut (uniform
    start offset under spec.seed) and scaled by
    g = (rms(speech) / rms(segment)) * 10**(-snr_db / 20).
    The clean sentinel returns the speech clip unchanged. If the mixture
    exceeds the [-1, 1] range it is rescaled by a single common gain, which
    leaves the achieved SNR untouched. A gain that overflows to infinity
    (noise far quieter than the speech at a very low SNR) is refused with a
    NumericError.
    """
    if spec.snr_db == CLEAN:
        return speech
    if spec.noise is None:
        raise UnsupportedError("finite SNR requested but no noise source given")
    noise = spec.noise
    if noise.sample_rate != speech.sample_rate:
        raise UnsupportedError(
            f"rate mismatch: speech {speech.sample_rate} Hz vs noise {noise.sample_rate} Hz"
        )
    n = speech.samples.size
    if noise.samples.size < n:
        raise DegenerateInputError("noise must be at least as long as the speech clip")
    rng = np.random.default_rng(spec.seed)
    start = int(rng.integers(0, noise.samples.size - n + 1))
    segment = noise.samples[start : start + n]
    seg_rms = rms(segment)
    if seg_rms == 0.0:
        raise DegenerateInputError("noise segment has zero RMS")
    g = (rms(speech.samples) / seg_rms) * 10.0 ** (-spec.snr_db / 20.0)
    if not math.isfinite(g):
        raise NumericError(f"noise gain overflows at {spec.snr_db:g} dB: speech RMS "
                           f"{rms(speech.samples):.3g}, noise segment RMS {seg_rms:.3g}")
    mixed = speech.samples + g * segment
    peak = float(np.max(np.abs(mixed)))
    if peak > 1.0:
        mixed = mixed / peak
    return AudioClip(samples=mixed, sample_rate=speech.sample_rate, source_id=speech.source_id)


def pink_noise(n_samples: int, sample_rate: int, seed: int) -> AudioClip:
    """Synthesize a pink (1/f) noise clip, deterministic under seed.

    Shaped in the frequency domain: white Gaussian spectrum scaled by
    1/sqrt(f), zero DC, then inverse transform and peak scaling.
    """
    if n_samples < 2:
        raise DegenerateInputError("pink noise needs at least 2 samples")
    rng = np.random.default_rng(seed)
    n_bins = n_samples // 2 + 1
    spectrum = rng.standard_normal(n_bins) + 1j * rng.standard_normal(n_bins)
    freqs = np.arange(n_bins, dtype=np.float64)
    freqs[0] = 1.0
    spectrum /= np.sqrt(freqs)
    spectrum[0] = 0.0
    samples = np.fft.irfft(spectrum, n=n_samples)
    samples *= _PINK_PEAK / np.max(np.abs(samples))
    return AudioClip(samples=samples, sample_rate=sample_rate, source_id=f"pink:{seed}")
