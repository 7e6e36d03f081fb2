#!/usr/bin/env python3
"""Run a miniature experiment suite with a spectral-cepstral fusion cell.

Writes a synthetic corpus to a temporary directory, runs a two-cell grid
(a single-feature CNN and a fusion CNN) over two SNR conditions, and prints
the aggregate table. A few minutes of CPU.
"""

import tempfile
from pathlib import Path

from shoutkit.experiments import ExperimentConfig, run_suite
from shoutkit.experiments.synthetic import make_classification_corpus
from shoutkit.experiments.training import ClipExample

synth = make_classification_corpus(n_clips=48, n_speakers=4, n_classes=2, seed=21)
examples = [ClipExample(clip_id=s.clip_id, speaker_id=s.speaker_id,
                        clip=s.clip, label=s.class_index) for s in synth]

cfg = ExperimentConfig(
    task="binary",
    archs=("cnn",),
    features=("mel_spectrogram", "mel_spectrogram+tmfcc"),
    snrs_db=(float("inf"), 0.0),
    epochs=6, pretrain_epochs=6, finetune_epochs=4,
    batch_size=24, learning_rate=1e-3, dtype="float32",
    n_folds=2, seed=21, noise="pink:22:2.0",
)

out = Path(tempfile.mkdtemp(prefix="shoutkit_suite_"))
result = run_suite(cfg, out, examples=examples)
print(f"suite wrote {len(result.reports)} report(s) to {out}")
print((out / "aggregate.csv").read_text())
for report in result.reports:
    print(f"{report['arch']} + {report['features']}: "
          f"avg F1 {report['average']:.3f} over the sweep")
