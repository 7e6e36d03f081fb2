#!/usr/bin/env python3
"""Train a small binary shout classifier on a synthetic corpus.

Builds a 40-clip, 4-speaker synthetic corpus, holds one fold of speakers out,
trains a CNN on mel spectrogram blocks, and evaluates clean and at 0 dB SNR.
Takes well under a minute on a laptop core.
"""

import numpy as np

from shoutkit.experiments import (ExperimentConfig, TrainSettings, build_fold_data,
                                  derive_seed, evaluate_model, load_noise,
                                  make_classification_corpus, plan_folds, train_model)
from shoutkit.experiments.training import ClipExample
from shoutkit.features import FeatureKind
from shoutkit.models import build_single_model

synth = make_classification_corpus(n_clips=40, n_speakers=4, n_classes=2, seed=5)
examples = [ClipExample(clip_id=s.clip_id, speaker_id=s.speaker_id,
                        clip=s.clip, label=s.class_index) for s in synth]

cfg = ExperimentConfig(task="binary", epochs=10, batch_size=20, learning_rate=1e-3,
                       dtype="float32", n_folds=2, seed=5, noise="pink:9:2.0")
plan = plan_folds(sorted({e.speaker_id for e in examples}),
                  seed=derive_seed(cfg.seed, "folds"), n_folds=cfg.n_folds)
fold = plan.folds[0]
print(f"fold 0: train/val speakers {fold.train_validation_speakers}, "
      f"test {fold.test_speakers}")

data = build_fold_data(examples, fold, (FeatureKind.MEL_SPECTROGRAM,), cfg)
print(f"training blocks: {len(data.train_y)}, validation: {len(data.val_y)}, "
      f"test clips: {len(data.test_examples)}")

model = build_single_model("cnn", FeatureKind.MEL_SPECTROGRAM, "binary",
                           seed=5, dtype=np.float32)
log = train_model(model, data, TrainSettings(epochs=10, batch_size=20,
                                             learning_rate=1e-3, shuffle_seed=1))
for entry in log.epochs:
    print(f"epoch {entry['epoch']:2d}  train {entry['train_loss']:.5f}  "
          f"val {entry['val_loss']:.5f}")

noise = load_noise(cfg.noise)
scores = evaluate_model(model, data.test_examples, data.stats, "binary",
                        (float("inf"), 0.0), noise, seed=derive_seed(cfg.seed, "noise"))
for label, detail in scores.items():
    print(f"test F1 @ {label}: {detail['metric']:.3f}")
