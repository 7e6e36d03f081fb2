"""perfbench's step clock and span tracer still find every hook they wrap in shoutkit.

``perfbench/run.py`` times each training step by wrapping
``NetworkGraph.zero_grad``, ``training.loss_fn`` and ``Adam.step``, and flags
the optimiser's first step (``step_count == 1``) as warm-up; its end-to-end
training metrics come from those records. ``--trace 1`` also swaps module
attributes (``predict_clip``, ``feature_matrix``, ...) for timing wrappers and
divides by the call count of ``models.predict_clip``, and measures every build
that ``tables._builds`` makes. A hook that moves, a clip path that stops
calling ``predict_clip`` or a builder that changes its signature breaks the
benchmark; these tests catch all three without running it. They only read
``perfbench/``.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

import shoutkit as sk
from shoutkit.audio_io import CLEAN, pink_noise
from shoutkit.experiments import make_classification_corpus
from shoutkit.experiments.training import ClipExample, TrainSettings, train_model
from shoutkit.features import FeatureKind, FeatureStats, feature_matrix
from shoutkit.models import build_fusion_model, build_single_model

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def scoring_setup():
    synth = make_classification_corpus(n_clips=4, n_speakers=2, n_classes=2, seed=3,
                                       clip_seconds=(1.4, 1.9))
    examples = [ClipExample(clip_id=s.clip_id, speaker_id=s.speaker_id, clip=s.clip,
                            label=s.class_index) for s in synth]
    kinds = (FeatureKind.MEL_SPECTROGRAM, FeatureKind.TMFCC)
    stats = {kind: FeatureStats.fit([feature_matrix(e.clip, kind) for e in examples])
             for kind in kinds}
    left, right = (build_single_model("cnn", kind, "binary", seed=i, dtype=np.float32,
                                      width_scale=4) for i, kind in enumerate(kinds))
    model = build_fusion_model(left, right, seed=2)
    return examples, stats, model, pink_noise(2 * 16000, 16000, seed=5)


def test_every_span_point_resolves():
    spans = load_perfbench("spans")
    for owner, attr, name, _ in spans._span_points(sk):
        assert attr in vars(owner), f"{name}: {owner!r} has no attribute {attr!r}"


def test_every_benchmark_build_builds():
    tables = load_perfbench("tables")
    builds = list(tables._builds(sk, 0))
    assert len(builds) == 9
    for prefix, model in builds:
        assert model.parameters(), prefix
        assert model.kinds and all(isinstance(k, FeatureKind) for k in model.kinds), prefix
        assert prefix.startswith(f"models.{model.arch.value}."), prefix


@pytest.mark.parametrize("per_block", [False, True], ids=["per-clip", "per-block"])
def test_tracer_records_scoring(scoring_setup, per_block):
    spans = load_perfbench("spans")
    examples, stats, model, noise = scoring_setup
    snrs = (CLEAN, 0.0)
    tracer = spans.Tracer()
    with spans.installed(tracer, sk):
        tracer.phase = "pass"
        scores = sk.experiments.evaluate_model(model, examples, stats, "binary", snrs,
                                               noise, seed=1, per_block=per_block)
    assert set(scores) == {"clean", "0"}
    summary = tracer.summary()
    assert summary["experiments.evaluate_model"]["calls"] == 1
    assert summary["models.forward"]["calls"] >= len(snrs)
    assert summary["audio_io.mix_noise_at_snr"]["calls"] == len(examples) * len(snrs)
    assert summary["features.feature_matrix"]["calls"] == 2 * len(examples) * len(snrs)
    if not per_block:
        # run.py divides by this count: the clip path must call predict_clip
        assert summary["models.predict_clip"]["calls"] == len(examples) * len(snrs)
    # the wrappers are gone again afterwards
    assert sk.experiments.training.predict_clip is sk.models.predict_clip


def test_step_clock_records_every_training_step():
    spans = load_perfbench("spans")
    kind = FeatureKind.TMFCC
    model = build_single_model("gru", kind, "binary", seed=0, dtype=np.float32, width_scale=8)
    rng = np.random.default_rng(4)
    train_x = {kind: rng.standard_normal((8, kind.dim, 20)).astype(np.float32)}
    train_y = np.array([0, 1] * 4)
    settings = TrainSettings(epochs=2, batch_size=4, learning_rate=1e-3)
    hooks = (sk.models.NetworkGraph.zero_grad, sk.experiments.training.loss_fn,
             sk.neural.Adam.step)
    with spans.installed(spans.StepClock(), sk) as clock:
        train_model(model, None, settings, train_x=train_x, train_y=train_y)
    # two mini-batches per epoch; only the optimiser's first step is warm-up
    assert len(clock.steps) == 4
    assert all(seconds > 0 and batch == 4 and math.isfinite(loss)
               for seconds, batch, loss, _ in clock.steps)
    assert [warmup for *_, warmup in clock.steps] == [True, False, False, False]
    # the wrappers are gone again afterwards
    assert (sk.models.NetworkGraph.zero_grad, sk.experiments.training.loss_fn,
            sk.neural.Adam.step) == hooks
