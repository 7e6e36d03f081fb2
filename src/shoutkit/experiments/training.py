"""Dataset preparation, the training loop, and the SNR-sweep evaluation."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..audio_io import (CLEAN, SAMPLE_RATE, AudioClip, NoiseSpec, load_wav,
                        mix_noise_at_snr, peak_normalize, pink_noise, resample_to_16k)
from ..corpus import ShoutClass, Style, UtteranceRecord
from ..errors import ConfigError, DegenerateInputError, NumericError
from ..features import BLOCK_FRAMES, FeatureKind, FeatureStats, feature_matrix, split_blocks
from ..models import (NetworkGraph, build_fusion_model, build_single_model, parse_feature_set,
                      predict_clip)
from ..neural import Adam, Tensor, loss as loss_fn, no_grad
from .config import ExperimentConfig, derive_seed, parse_pink_spec, snr_label
from .folds import Fold, check_speaker_independence, split_train_validation
from .metrics import binary_f1, confusion_matrix, rmse, weighted_f1

# Most blocks one no-grad forward (validation loss, block scoring) takes at once.
FORWARD_CHUNK = 64


@dataclass
class ClipExample:
    """One prepared clip: 16 kHz, peak-normalized, with its task label."""

    clip_id: str
    speaker_id: str
    clip: AudioClip
    label: float | int


def prepare_clip(clip: AudioClip) -> AudioClip:
    """Fixed ingestion order: resample to 16 kHz, then peak-normalize.

    Noise mixing happens later, at evaluation (or training augmentation)
    time, always after this stage.
    """
    return peak_normalize(resample_to_16k(clip))


def label_for_task(record: UtteranceRecord, task: str):
    if task == "binary":
        return int(record.style is Style.SHOUT)
    if task == "four_class":
        return list(ShoutClass).index(record.class_label)
    if task == "regression":
        return record.intensity
    raise ConfigError(f"unknown task {task!r}")


def corpus_examples(records: list[UtteranceRecord], audio_root, task: str) -> list[ClipExample]:
    """Load and prepare the clips a task trains on.

    The regression task uses only shouted, intensity-labeled records; the
    classification tasks use everything.
    """
    audio_root = Path(audio_root)
    examples = []
    for r in records:
        if task == "regression":
            if r.style is not Style.SHOUT:
                continue
            if r.intensity is None:
                raise ConfigError(f"shout record {r.path} lacks intensity for regression")
        clip = prepare_clip(load_wav(audio_root / r.path))
        examples.append(ClipExample(clip_id=r.path, speaker_id=r.speaker_id,
                                    clip=clip, label=label_for_task(r, task)))
    if not examples:
        raise ConfigError("no usable examples for this task")
    return examples


def load_noise(spec: str) -> AudioClip | None:
    """Noise source from config: a WAV path or ``pink:<seed>:<seconds>``, at 16 kHz."""
    if not spec:
        return None
    if spec.startswith("pink:"):
        seed, samples = parse_pink_spec(spec)
        return pink_noise(samples, SAMPLE_RATE, seed=seed)
    return resample_to_16k(load_wav(spec))


def check_noise(snrs_db, noise: AudioClip | None, examples: list[ClipExample]) -> None:
    """Refuse a sweep that cannot be mixed: each finite SNR needs a noise
    source at least as long as the longest clip it will be mixed into."""
    finite = [snr for snr in snrs_db if snr != CLEAN]
    if not finite:
        return
    if noise is None:
        raise ConfigError(f"SNR {snr_label(finite[0])} requested but no noise source configured")
    if noise.samples.size < max((e.clip.samples.size for e in examples), default=0):
        raise DegenerateInputError("noise must be at least as long as the speech clip")


# -- fold data -------------------------------------------------------------------


@dataclass
class FoldData:
    kinds: tuple[FeatureKind, ...]
    stats: dict
    train_x: dict            # kind -> (N, D, 20) in cfg.dtype
    train_y: np.ndarray
    val_x: dict
    val_y: np.ndarray
    test_examples: list[ClipExample]


def _augment_training_clip(example: ClipExample, cfg: ExperimentConfig,
                           noise: AudioClip | None) -> ClipExample:
    """Train-time noise mixing, off by default (models train on clean
    speech): one SNR drawn per clip from the configured sweep."""
    rng = np.random.default_rng(derive_seed(cfg.seed, "augment.pick", example.clip_id))
    snr = cfg.snrs_db[int(rng.integers(0, len(cfg.snrs_db)))]
    spec = NoiseSpec(snr_db=snr, noise=noise,
                     seed=derive_seed(cfg.seed, "augment.mix", example.clip_id))
    return ClipExample(clip_id=example.clip_id, speaker_id=example.speaker_id,
                       clip=mix_noise_at_snr(example.clip, spec), label=example.label)


def build_fold_data(examples: list[ClipExample], fold: Fold,
                    kinds: tuple[FeatureKind, ...], cfg: ExperimentConfig,
                    noise: AudioClip | None = None) -> FoldData:
    """Feature matrices, training statistics and block tensors for one fold.

    Statistics come from the training split only; validation and test reuse
    them. Blocks are z-scored in float64 and stored in ``cfg.dtype``. Test
    clips stay as audio so each SNR condition can re-mix them.
    """
    check_speaker_independence(fold)
    train_speakers, val_speakers = split_train_validation(
        fold, seed=derive_seed(cfg.seed, "validation"))
    train = [e for e in examples if e.speaker_id in train_speakers]
    val = [e for e in examples if e.speaker_id in val_speakers]
    test = [e for e in examples if e.speaker_id in fold.test_speakers]
    if not train or not test:
        raise ConfigError("fold produced an empty train or test split")
    if cfg.train_snr_augment:
        check_noise(cfg.snrs_db, noise, train + val)
        train = [_augment_training_clip(e, cfg, noise) for e in train]
        val = [_augment_training_clip(e, cfg, noise) for e in val]

    # a kind's train matrices are dropped before its validation ones exist;
    # every kind is cut from the same frames, so any kind's block counts serve
    stats, train_x, val_x = {}, {}, {}
    for kind in kinds:
        matrices = [feature_matrix(e.clip, kind) for e in train]
        stats[kind] = FeatureStats.fit(matrices)
        train_x[kind], train_counts = _write_blocks(matrices, kind, stats[kind], cfg.dtype)
        del matrices
        val_x[kind], val_counts = _write_blocks([feature_matrix(e.clip, kind) for e in val],
                                                kind, stats[kind], cfg.dtype)
    train_y = np.repeat(np.asarray([e.label for e in train]), train_counts)
    val_y = np.repeat(np.asarray([e.label for e in val]), val_counts)
    return FoldData(kinds=kinds, stats=stats, train_x=train_x, train_y=train_y,
                    val_x=val_x, val_y=val_y, test_examples=test)


def _write_blocks(matrices: list[np.ndarray], kind: FeatureKind, stats: FeatureStats,
                  dtype: str) -> tuple[np.ndarray, np.ndarray]:
    """Every (D, T) matrix's z-scored blocks in one (N, D, 20) array, and its block counts."""
    counts = np.array([m.shape[1] // BLOCK_FRAMES for m in matrices], dtype=np.int64)
    out = np.empty((int(counts.sum()), kind.dim, BLOCK_FRAMES), dtype=dtype)
    for m, start, n in zip(matrices, np.cumsum(counts) - counts, counts):
        out[start:start + n] = split_blocks(m, kind, stats=stats)
    return out, counts


# -- training loop -----------------------------------------------------------------


@dataclass
class TrainSettings:
    epochs: int
    batch_size: int
    learning_rate: float = 1e-4
    shuffle_seed: int = 0
    early_stop_patience: int = 0   # 0 disables early stopping


@dataclass
class TrainingLog:
    stage: str = ""                             # "<kind>", "left.<kind>", ... or "fusion"
    fold: int = 0
    epochs: list = field(default_factory=list)  # dicts: epoch, train_loss, val_loss
    best_epoch: int = 0
    best_val_loss: float = float("inf")
    stopped_early: bool = False
    best_state: dict | None = None              # best-validation parameters

    def summary(self) -> dict:
        return {"stage": self.stage, "fold": self.fold,
                "epochs_run": len(self.epochs), "best_epoch": self.best_epoch,
                "best_val_loss": self.best_val_loss, "stopped_early": self.stopped_early,
                "final_train_loss": self.epochs[-1]["train_loss"] if self.epochs else None}


def _forward_chunks(model: NetworkGraph, x: dict) -> np.ndarray:
    """No-grad forward of per-kind block arrays, FORWARD_CHUNK blocks at a
    time; returns the (n, outputs) rows (an empty input is forwarded once)."""
    n = len(x[model.kinds[0]])
    with no_grad():
        rows = [model.forward(model.batch(x, slice(i, i + FORWARD_CHUNK))).data
                for i in range(0, max(n, 1), FORWARD_CHUNK)]
    return np.concatenate(rows)


def train_model(model: NetworkGraph, data: FoldData | None, settings: TrainSettings,
                train_x=None, train_y=None, val_x=None, val_y=None) -> TrainingLog:
    """Seeded mini-batch training with Adam; logs per-epoch losses.

    The final-epoch parameters always stand on the model; the best-validation
    parameters are kept on the log (``best_state``) so both checkpoints can be
    saved. With early_stop_patience > 0, training stops after that many
    epochs without validation improvement and the best-validation parameters
    are restored onto the model instead.

    A step's gradients live from its backward to the next step's
    ``model.zero_grad()``, and its loss graph is dropped before the next
    forward. The gradients are released when training ends, so the returned
    model holds only its weights.
    """
    if data is not None:
        train_x, train_y = data.train_x, data.train_y
        val_x, val_y = data.val_x, data.val_y
    head = model.head_kind
    n = len(train_y)
    if n == 0:
        raise ConfigError("empty training set")
    optimizer = Adam(model.parameters(), lr=settings.learning_rate)
    rng = np.random.default_rng(settings.shuffle_seed)
    log = TrainingLog()
    patience_left = settings.early_stop_patience
    y_train = head.targets(train_y, model.dtype)
    has_val = val_y is not None and len(val_y) > 0
    y_val = head.targets(val_y, model.dtype) if has_val else None

    for epoch in range(1, settings.epochs + 1):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, settings.batch_size):
            idx = order[start : start + settings.batch_size]
            batch = model.batch(train_x, idx)
            target = y_train[idx]
            model.zero_grad()
            out = model.forward(batch)
            batch_loss = loss_fn(out, target, head.loss_kind)
            value = batch_loss.item()
            if not np.isfinite(value):
                raise NumericError(f"non-finite loss at epoch {epoch}, "
                                   f"batch starting {start}")
            batch_loss.backward()
            optimizer.step()
            del out, batch_loss     # the step's graph goes before the next forward
            epoch_loss += value * len(idx)
        epoch_loss /= n
        val_loss = None
        if has_val:
            val_loss = evaluate_loss(model, val_x, y_val)
        log.epochs.append({"epoch": epoch, "train_loss": epoch_loss,
                           "val_loss": val_loss})
        if has_val and val_loss < log.best_val_loss:
            log.best_val_loss = val_loss
            log.best_epoch = epoch
            patience_left = settings.early_stop_patience
            log.best_state = model.state_dict()
        elif settings.early_stop_patience and has_val:
            patience_left -= 1
            if patience_left <= 0:
                log.stopped_early = True
                break
    if settings.early_stop_patience and log.best_state is not None:
        model.load_state_dict(log.best_state)
    optimizer.zero_grad()
    return log


def evaluate_loss(model: NetworkGraph, x: dict, y) -> float:
    """The model's loss on per-kind blocks ``x`` and targets ``y`` (as
    ``HeadKind.targets`` gives them), forwarded without a graph."""
    out = Tensor(_forward_chunks(model, x))
    return loss_fn(out, y, model.head_kind.loss_kind).item()


# -- evaluation under the SNR sweep ----------------------------------------------------


def evaluate_model(model: NetworkGraph, test_examples: list[ClipExample],
                   stats: dict, task: str, snrs_db, noise: AudioClip | None,
                   seed: int, per_block: bool = False) -> dict:
    """Score one trained model across the SNR sweep.

    Returns {snr label: {"metric": value, ...details}}. Noise segments are
    seeded per (seed, clip, SNR), so a re-run reproduces every mix exactly.
    A clip is decided from the mean of its block outputs (``predict_clip``).
    With ``per_block`` each block is decided on its own: every block of the
    SNR condition goes through ``_forward_chunks`` and each output row
    through ``HeadKind.decide``.
    """
    if not test_examples:
        raise ConfigError("empty test set")
    head = model.head_kind
    if head.value != task:
        raise ConfigError(f"a {head.value} model cannot be scored on task {task!r}")
    check_noise(snrs_db, noise, test_examples)
    results = {}
    for snr in snrs_db:
        y_true, y_pred, blocks = [], [], []
        for example in test_examples:
            spec = NoiseSpec(snr_db=snr, noise=noise,
                             seed=derive_seed(seed, example.clip_id, snr_label(snr)))
            mixed = mix_noise_at_snr(example.clip, spec)
            x = {kind: split_blocks(feature_matrix(mixed, kind), kind, stats=stats[kind])
                 for kind in model.kinds}
            if per_block:
                blocks.append(x)
                y_true.extend([example.label] * len(x[model.kinds[0]]))
            else:
                y_true.append(example.label)
                y_pred.append(predict_clip(model, model.batch(x)).decision)
        if per_block:
            x = {kind: np.concatenate([b[kind] for b in blocks], dtype=model.dtype)
                 for kind in model.kinds}
            y_pred = head.decide(_forward_chunks(model, x))
        results[snr_label(snr)] = _score(task, y_true, y_pred)
    return results


def _score(task: str, y_true, y_pred) -> dict:
    if task == "binary":
        return {"metric": binary_f1(np.asarray(y_true), np.asarray(y_pred))}
    if task == "four_class":
        counts, _ = confusion_matrix(np.asarray(y_true), np.asarray(y_pred), 4)
        return {"metric": weighted_f1(np.asarray(y_true), np.asarray(y_pred), 4),
                "confusion_counts": counts.tolist()}
    return {"metric": rmse(np.asarray(y_true, dtype=float), np.asarray(y_pred, dtype=float)),
            "pairs": [[float(a), float(p)] for a, p in zip(y_true, y_pred)]}


# -- model construction for a grid cell --------------------------------------------------


def build_cell_model(arch: str, kinds: tuple[FeatureKind, ...], cfg: ExperimentConfig,
                     data: FoldData, fold_index: int,
                     raw_logs: list | None = None) -> NetworkGraph:
    """Build and train the model for one (arch, features, fold) cell.

    Fusion cells pretrain each branch on its own feature, then fine-tune the
    fused network end to end. ``raw_logs`` collects each stage's TrainingLog.
    """

    def trained(model: NetworkGraph, stage: str, epochs: int, *shuffle_tag) -> NetworkGraph:
        settings = TrainSettings(epochs=epochs, batch_size=cfg.batch_size,
                                 learning_rate=cfg.learning_rate,
                                 shuffle_seed=derive_seed(cfg.seed, *shuffle_tag, fold_index),
                                 early_stop_patience=cfg.early_stop_patience)
        log = train_model(model, data, settings)
        log.stage, log.fold = stage, fold_index
        if raw_logs is not None:
            raw_logs.append(log)
        return model

    def single(kind: FeatureKind, tag: str, epochs: int) -> NetworkGraph:
        model = build_single_model(arch, kind, cfg.task,
                                   seed=derive_seed(cfg.seed, "model", tag, fold_index),
                                   dtype=cfg.dtype, width_scale=cfg.width_scale)
        return trained(model, tag, epochs, "shuffle", tag)

    if len(kinds) == 1:
        return single(kinds[0], kinds[0].value, cfg.epochs)
    left = single(kinds[0], f"left.{kinds[0].value}", cfg.pretrain_epochs or cfg.epochs)
    right = single(kinds[1], f"right.{kinds[1].value}", cfg.pretrain_epochs or cfg.epochs)
    fusion = build_fusion_model(left, right, seed=derive_seed(cfg.seed, "fusion", fold_index))
    return trained(fusion, "fusion", cfg.finetune_epochs or cfg.epochs, "shuffle.fusion")
