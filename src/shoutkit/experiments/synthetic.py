"""Synthetic desk-scale corpora.

Utterances are filtered noise with a class-dependent spectral tilt and
temporal envelope, plus a per-speaker random EQ so that speaker-independent
folds carry real speaker variation. The regression corpus draws a tilt per
clip and maps it monotonically onto the 1..7 intensity scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from ..audio_io import DEFAULT_TARGET_PEAK, SAMPLE_RATE, AudioClip, write_wav
from ..corpus import ShoutClass, Style, UtteranceRecord, class_for_sentence, write_manifest
from ..errors import ConfigError

# dB per octave around the 250 Hz reference
TWO_CLASS_TILTS = (-7.0, 3.0)
FOUR_CLASS_TILTS = (-9.0, -4.0, 1.0, 6.0)
TWO_CLASS_ENV_RATES = (3.0, 9.0)
FOUR_CLASS_ENV_RATES = (2.5, 5.0, 7.5, 10.0)

INTENSITY_TILT_RANGE = (-8.0, 4.0)


@dataclass
class SynthExample:
    clip: AudioClip
    clip_id: str
    speaker_id: str
    sex: str
    sentence_id: int
    style: Style
    class_label: ShoutClass
    class_index: int
    intensity: float | None = None


def _speaker_roster(n_speakers: int) -> list[tuple[str, str]]:
    roster = []
    for i in range(n_speakers):
        sex = "f" if i % 2 == 0 else "m"
        roster.append((f"{sex}{i // 2 + 1:02d}", sex))
    return roster


@lru_cache(maxsize=None)
def _sentences(style: Style, shout_class: ShoutClass) -> tuple[int, ...]:
    """The sentences that ``class_for_sentence`` puts in ``shout_class``, ascending."""
    return tuple(s for s in range(1, 51) if class_for_sentence(style, s) is shout_class)


def _speaker_eq(rng: np.random.Generator):
    amplitudes = rng.uniform(-1.5, 1.5, size=3)
    phases = rng.uniform(0.0, 2 * np.pi, size=3)
    return amplitudes, phases


def _synth_clip(rng: np.random.Generator, tilt_db_oct: float, env_rate: float,
                eq, n_samples: int) -> np.ndarray:
    n_bins = n_samples // 2 + 1
    freqs = np.arange(n_bins) * SAMPLE_RATE / n_samples
    spectrum = rng.standard_normal(n_bins) + 1j * rng.standard_normal(n_bins)
    octaves = np.log2(np.maximum(freqs, 62.5) / 250.0)
    gain_db = tilt_db_oct * octaves
    amplitudes, phases = eq
    u = np.log(np.maximum(freqs, 1.0)) / np.log(SAMPLE_RATE / 2.0)
    for k, (a, phi) in enumerate(zip(amplitudes, phases), start=1):
        gain_db = gain_db + a * np.cos(k * np.pi * u + phi)
    spectrum *= 10.0 ** (gain_db / 20.0)
    spectrum[0] = 0.0
    x = np.fft.irfft(spectrum, n=n_samples)
    t = np.arange(n_samples) / SAMPLE_RATE
    envelope = 0.3 + 0.7 * (0.5 + 0.5 * np.cos(2 * np.pi * env_rate * t
                                               + rng.uniform(0, 2 * np.pi)))
    x *= envelope
    x *= DEFAULT_TARGET_PEAK / np.max(np.abs(x))
    return x


def make_classification_corpus(n_clips: int = 200, n_speakers: int = 10,
                               n_classes: int = 2, seed: int = 0,
                               clip_seconds: tuple[float, float] = (0.72, 0.85)
                               ) -> list[SynthExample]:
    """Balanced synthetic corpus; class 0 plays the role of normal speech."""
    if n_classes == 2:
        tilts, rates = TWO_CLASS_TILTS, TWO_CLASS_ENV_RATES
    elif n_classes == 4:
        tilts, rates = FOUR_CLASS_TILTS, FOUR_CLASS_ENV_RATES
    else:
        raise ConfigError(f"synthetic corpus supports 2 or 4 classes, got {n_classes}")
    if n_clips < 1 or n_speakers < 1 or n_clips % (n_speakers * n_classes) != 0:
        raise ConfigError(f"{n_clips} clips must divide evenly over {n_speakers} speakers "
                          f"x {n_classes} classes, and clips and speakers must be positive")
    rng = np.random.default_rng(seed)
    roster = _speaker_roster(n_speakers)
    eqs = {speaker: _speaker_eq(rng) for speaker, _ in roster}
    per_cell = n_clips // (n_speakers * n_classes)
    classes = list(ShoutClass)
    examples = []
    for speaker, sex in roster:
        for class_index in range(n_classes):
            for j in range(per_cell):
                n = int(rng.uniform(*clip_seconds) * SAMPLE_RATE)
                samples = _synth_clip(rng, tilts[class_index], rates[class_index],
                                      eqs[speaker], n)
                style = Style.NORMAL if class_index == 0 else Style.SHOUT
                # a two-class shout draws which shout class it plays
                shout_class = classes[class_index if n_classes == 4 or class_index == 0
                                      else int(rng.integers(1, 4))]
                sentence_id = int(rng.choice(_sentences(style, shout_class)))
                clip_id = f"{speaker}_s{sentence_id:02d}_{style.value}_{j}"
                clip = AudioClip(samples=samples, sample_rate=SAMPLE_RATE,
                                 source_id=clip_id)
                examples.append(SynthExample(
                    clip=clip, clip_id=clip_id, speaker_id=speaker, sex=sex,
                    sentence_id=sentence_id, style=style, class_label=shout_class,
                    class_index=class_index))
    return examples


def make_intensity_corpus(n_clips: int = 200, n_speakers: int = 10, seed: int = 0,
                          clip_seconds: tuple[float, float] = (0.72, 0.85)
                          ) -> list[SynthExample]:
    """Shouted clips whose intensity is a monotone affine map of spectral tilt."""
    if n_clips < 1 or n_speakers < 1 or n_clips % n_speakers != 0:
        raise ConfigError(f"{n_clips} clips must divide evenly over {n_speakers} speakers, "
                          "and clips and speakers must be positive")
    rng = np.random.default_rng(seed)
    roster = _speaker_roster(n_speakers)
    eqs = {speaker: _speaker_eq(rng) for speaker, _ in roster}
    low, high = INTENSITY_TILT_RANGE
    examples = []
    for speaker, sex in roster:
        for j in range(n_clips // n_speakers):
            tilt = float(rng.uniform(low, high))
            intensity = 1.0 + 6.0 * (tilt - low) / (high - low)
            n = int(rng.uniform(*clip_seconds) * SAMPLE_RATE)
            samples = _synth_clip(rng, tilt, 5.0, eqs[speaker], n)
            sentence_id = int(rng.integers(1, 51))
            label = class_for_sentence(Style.SHOUT, sentence_id)
            clip_id = f"{speaker}_s{sentence_id:02d}_shout_{j}"
            clip = AudioClip(samples=samples, sample_rate=SAMPLE_RATE,
                             source_id=clip_id)
            examples.append(SynthExample(
                clip=clip, clip_id=clip_id, speaker_id=speaker, sex=sex,
                sentence_id=sentence_id, style=Style.SHOUT, class_label=label,
                class_index=1, intensity=intensity))
    return examples


def write_synth_corpus(examples: list[SynthExample], directory) -> Path:
    """Dump clips as WAV files plus a manifest; returns the manifest path."""
    directory = Path(directory)
    (directory / "wav").mkdir(parents=True, exist_ok=True)
    records = []
    for ex in examples:
        rel = f"wav/{ex.clip_id}.wav"
        write_wav(ex.clip, directory / rel)
        records.append(UtteranceRecord(
            speaker_id=ex.speaker_id, sex=ex.sex, sentence_id=ex.sentence_id,
            style=ex.style, class_label=ex.class_label, path=rel,
            intensity=ex.intensity))
    manifest = directory / "manifest.csv"
    write_manifest(records, manifest)
    return manifest
