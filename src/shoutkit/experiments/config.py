"""Experiment configuration and its key = value document format.

A config file is a flat, human-readable document: one ``key = value`` pair
per line, ``#`` comments, lists comma-separated. The clean SNR condition is
spelled ``clean``. The paper's fixed recipe is not configurable: Adam's betas
(0.9 / 0.999) and epsilon (1e-8), and the 0.2 share of each fold's train
speakers held out for validation. A key naming one of them is an unknown key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from ..audio_io import CLEAN, SAMPLE_RATE, SWEEP_SNRS_DB
from ..corpus import derive_seed  # re-exported for the experiments package
from ..errors import ConfigError
from ..models import HeadKind
from ..textio import read_text


def snr_label(snr_db: float) -> str:
    if snr_db == CLEAN:
        return "clean"
    if float(snr_db).is_integer():
        return str(int(snr_db))
    return repr(float(snr_db))


# Lowest SNR a mix accepts. The noise gain 10 ** (-snr / 20) is 1e300 here
# and overflows a float below about -6165 dB; the margin leaves room for the
# speech/noise RMS ratio that multiplies it.
MIN_SNR_DB = -6000.0


def check_snr(snr_db: float, text: str) -> float:
    """``snr_db`` if it is CLEAN or a finite dB value of at least MIN_SNR_DB,
    else a ConfigError naming ``text``, its spelling in the input."""
    if snr_db != CLEAN and not (math.isfinite(snr_db) and snr_db >= MIN_SNR_DB):
        raise ConfigError(f"bad SNR value {text!r}: expected 'clean' or a finite dB value "
                          f"of at least {MIN_SNR_DB:g}")
    return snr_db


def parse_snr(text: str) -> float:
    """A dB value checked by ``check_snr``, or CLEAN for ``clean`` / ``inf``."""
    text = text.strip().lower()
    if text in ("clean", "inf", "infinity"):
        return CLEAN
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"bad SNR value {text!r}")
    return check_snr(value, text)


# Longest pink noise a spec may ask for; the sweep workloads mix at most 5 s.
MAX_PINK_SECONDS = 600.0


def parse_pink_spec(spec: str) -> tuple[int, int]:
    """``pink:<seed>:<seconds>`` as (seed, samples at 16 kHz); seconds that
    give fewer than 2 samples or exceed MAX_PINK_SECONDS are refused."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"pink noise spec must be pink:<seed>:<seconds>, got {spec!r}")
    try:
        seed, samples = int(parts[1]), float(parts[2]) * SAMPLE_RATE
    except ValueError:
        raise ConfigError(f"bad pink noise spec {spec!r}")
    if seed < 0:
        raise ConfigError(f"bad pink noise spec {spec!r}: the seed must not be negative")
    if not 2 <= samples <= MAX_PINK_SECONDS * SAMPLE_RATE:
        raise ConfigError(f"bad pink noise spec {spec!r}: seconds must be finite, at most "
                          f"{MAX_PINK_SECONDS:g}, and give at least 2 samples")
    return seed, int(samples)


@dataclass(frozen=True)
class ExperimentConfig:
    task: str = "binary"
    archs: tuple[str, ...] = ("cnn",)
    # each entry is one feature kind or "kind+kind" for a fusion cell
    features: tuple[str, ...] = ("spectrogram",)
    snrs_db: tuple[float, ...] = SWEEP_SNRS_DB
    epochs: int = 100
    batch_size: int = 256
    learning_rate: float = 1e-4
    n_folds: int = 5
    seed: int = 7
    dtype: str = "float64"
    width_scale: int = 1
    pretrain_epochs: int = 0            # 0: use `epochs` for fusion branch pretraining
    finetune_epochs: int = 0            # 0: use `epochs` for fusion fine-tuning
    early_stop_patience: int = 0        # 0: fixed-epoch training
    train_snr_augment: bool = False     # mix noise into training clips; off by default
    per_block_eval: bool = False        # score 20-frame blocks instead of clips
    manifest: str = ""
    audio_root: str = ""
    noise: str = ""                     # WAV path, or "pink:<seed>:<seconds>"

    def __post_init__(self):
        tasks = tuple(head.value for head in HeadKind)
        if self.task not in tasks:
            raise ConfigError(f"task must be one of {tasks}, got {self.task!r}")
        if self.epochs < 1 or self.batch_size < 1 or self.n_folds < 1:
            raise ConfigError("epochs, batch_size and n_folds must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must not be negative, got {self.seed}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be finite and above 0, got {self.learning_rate}")
        if self.width_scale < 1:
            raise ConfigError(f"width_scale must be an integer >= 1, got {self.width_scale}")
        if min(self.pretrain_epochs, self.finetune_epochs, self.early_stop_patience) < 0:
            raise ConfigError("pretrain_epochs, finetune_epochs and early_stop_patience "
                              "must not be negative")
        if self.dtype not in ("float32", "float64"):
            raise ConfigError(f"dtype must be float32 or float64, got {self.dtype!r}")
        for snr in self.snrs_db:
            check_snr(snr, snr_label(snr))
        # SNRs compare by label, so 0 and 0.0 (or clean and inf) are one entry
        for key, entries in (("archs", self.archs), ("features", self.features),
                             ("snrs_db", [snr_label(s) for s in self.snrs_db])):
            repeated = sorted({e for e in entries if entries.count(e) > 1})
            if repeated:
                raise ConfigError(f"{key} names {', '.join(repeated)} more than once")
        if self.noise.startswith("pink:"):
            parse_pink_spec(self.noise)

    def echo(self) -> dict:
        """JSON-safe dump of every setting, for report embedding."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "snrs_db":
                value = [snr_label(v) for v in value]
            elif isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        return out


_LIST_FIELDS = {"archs", "features"}


def parse_config_text(text: str) -> ExperimentConfig:
    updates = {}
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {line_number}: expected 'key = value', got {raw!r}")
        updates[key.strip()] = value.strip()
    return apply_overrides(ExperimentConfig(), updates)


def apply_overrides(config: ExperimentConfig, updates: dict[str, str]) -> ExperimentConfig:
    valid = {f.name: f for f in fields(ExperimentConfig)}
    parsed = {}
    for key, value in updates.items():
        if key not in valid:
            raise ConfigError(f"unknown config key {key!r}")
        parsed[key] = _parse_value(key, value, valid[key].type)
    return replace(config, **parsed)


def _parse_value(key: str, value: str, annotation: str):
    if key == "snrs_db":
        return tuple(parse_snr(v) for v in value.split(","))
    if key in _LIST_FIELDS:
        return tuple(v.strip() for v in value.split(",") if v.strip())
    if annotation == "int":
        try:
            return int(value)
        except ValueError:
            raise ConfigError(f"config key {key!r} expects an integer, got {value!r}")
    if annotation == "float":
        try:
            return float(value)
        except ValueError:
            raise ConfigError(f"config key {key!r} expects a number, got {value!r}")
    if annotation == "bool":
        lowered = value.strip().lower()
        if lowered in ("true", "yes", "1", "on"):
            return True
        if lowered in ("false", "no", "0", "off"):
            return False
        raise ConfigError(f"config key {key!r} expects true/false, got {value!r}")
    return value


def load_config(path) -> ExperimentConfig:
    return parse_config_text(read_text(path, "config"))
