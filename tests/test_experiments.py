"""experiments: folds, metrics, config, synthetic corpora, training, suites."""

import ast
import json
import re
import tracemalloc
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from shoutkit.audio_io import CLEAN
from shoutkit.errors import ConfigError, DegenerateInputError, NumericError, RangeError
from shoutkit.experiments import (ExperimentConfig, MetricsReport, TrainSettings, binary_f1,
                                  build_fold_data, cell_name, confusion_matrix,
                                  derive_seed, evaluate_model,
                                  export_plot_csvs, load_noise,
                                  make_classification_corpus, make_intensity_corpus,
                                  parse_config_text, parse_snr, plan_folds, rmse,
                                  run_suite, snr_label, split_train_validation,
                                  train_model, validate_report, weighted_f1,
                                  write_synth_corpus)
from shoutkit import neural
from shoutkit.experiments import suite, training
from shoutkit.experiments.training import ClipExample, evaluate_loss
from shoutkit.features import FeatureKind, feature_matrix
from shoutkit.models import Arch, build_baseline_mlp, build_fusion_model, build_single_model
from shoutkit.corpus import parse_manifest, validate_manifest

from oracles import (stacked_fold_blocks, tally_binary_f1, tally_confusion, tally_rmse,
                     tally_weighted_f1)


def synth_examples(n_clips=40, n_speakers=4, n_classes=2, seed=1, clip_seconds=(0.72, 0.85)):
    synth = make_classification_corpus(n_clips=n_clips, n_speakers=n_speakers,
                                       n_classes=n_classes, seed=seed,
                                       clip_seconds=clip_seconds)
    return [ClipExample(clip_id=s.clip_id, speaker_id=s.speaker_id,
                        clip=s.clip, label=s.class_index) for s in synth]


class TestFoldPlanning:
    def test_fifty_speakers_five_by_ten(self):
        speakers = [f"s{i}" for i in range(50)]
        plan = plan_folds(speakers, seed=3)
        assert plan.canonical_split
        assert len(plan.folds) == 5
        seen = []
        for fold in plan.folds:
            assert len(fold.test_speakers) == 10
            assert len(fold.train_validation_speakers) == 40
            assert not set(fold.test_speakers) & set(fold.train_validation_speakers)
            seen.extend(fold.test_speakers)
        assert sorted(seen) == sorted(speakers)

    def test_same_seed_same_plan(self):
        speakers = [f"s{i}" for i in range(50)]
        assert plan_folds(speakers, seed=9) == plan_folds(speakers, seed=9)

    def test_forty_nine_speakers_flagged(self):
        speakers = [f"s{i}" for i in range(49)]
        plan = plan_folds(speakers, seed=0)
        assert not plan.canonical_split
        sizes = sorted(len(f.test_speakers) for f in plan.folds)
        assert sizes == [9, 10, 10, 10, 10]

    def test_duplicates_rejected(self):
        with pytest.raises(ConfigError):
            plan_folds(["a", "b", "a", "c", "d"], seed=0)

    @pytest.mark.parametrize("n_folds", [0, -1])
    def test_fewer_than_one_fold_rejected(self, n_folds):
        with pytest.raises(ConfigError, match="n_folds"):
            plan_folds([f"s{i}" for i in range(10)], seed=0, n_folds=n_folds)

    def test_validation_split_is_32_8(self):
        speakers = [f"s{i}" for i in range(50)]
        plan = plan_folds(speakers, seed=1)
        train, val = split_train_validation(plan.folds[0], seed=2)
        assert len(train) == 32 and len(val) == 8
        assert not set(train) & set(val)
        assert sorted(train + val) == sorted(plan.folds[0].train_validation_speakers)


class TestMetrics:
    def test_f1_example(self):
        # TP=45, FP=5, FN=5 -> F1 = 0.9
        y_true = np.array([1] * 50 + [0] * 50)
        y_pred = np.array([1] * 45 + [0] * 5 + [1] * 5 + [0] * 45)
        assert binary_f1(y_true, y_pred) == pytest.approx(0.9, abs=1e-12)

    def test_weighted_f1_example(self):
        # true=[A,A,B,B], pred=[A,A,B,A] -> (2*0.8 + 2*(2/3)) / 4 = 11/15
        y_true = np.array([0, 0, 1, 1])
        y_pred = np.array([0, 0, 1, 0])
        value = weighted_f1(y_true, y_pred, 2)
        assert value == pytest.approx(11 / 15, abs=1e-12)
        assert round(value, 4) == 0.7333

    def test_rmse_example(self):
        value = rmse([1.0, 7.0], [2.0, 5.0])
        assert value == pytest.approx(np.sqrt(2.5), abs=1e-12)
        assert round(value, 4) == 1.5811

    def test_perfect_confusion_is_diagonal(self):
        y = np.array([0, 1, 2, 3, 2, 1])
        counts, percent = confusion_matrix(y, y, 4)
        assert np.array_equal(counts, np.diag([1, 2, 2, 1]))
        assert np.allclose(percent[percent > 0], 100.0)

    def test_collapsed_predictions_single_column(self):
        y_true = np.array([0, 1, 2, 3])
        y_pred = np.zeros(4, dtype=int)
        counts, _ = confusion_matrix(y_true, y_pred, 4)
        assert counts[:, 0].sum() == 4
        assert counts[:, 1:].sum() == 0

    def test_confusion_against_tally(self):
        rng = np.random.default_rng(0)
        y_true = rng.integers(0, 4, 40)
        y_pred = rng.integers(0, 4, 40)
        counts, percent = confusion_matrix(y_true, y_pred, 4)
        assert counts.tolist() == tally_confusion(y_true.tolist(), y_pred.tolist(), 4)
        for row, total in zip(percent, counts.sum(axis=1)):
            if total:
                assert row.sum() == pytest.approx(100.0, abs=1e-9)

    def test_unknown_label_rejected(self):
        with pytest.raises(RangeError):
            confusion_matrix(np.array([0, 4]), np.array([0, 0]), 4)

    @pytest.mark.parametrize("score", [confusion_matrix, weighted_f1],
                             ids=["confusion", "weighted-f1"])
    @pytest.mark.parametrize("which", ["true", "pred"])
    def test_float_labels_rejected(self, score, which):
        ints, floats = np.array([1, 0]), np.array([1.0, 0.0])
        args = (floats, ints) if which == "true" else (ints, floats)
        with pytest.raises(RangeError, match="integer class indices"):
            score(*args, 2)

    def test_bool_and_empty_labels_keep_their_scores(self):
        y_true, y_pred = np.array([True, True, False]), np.array([True, False, False])
        counts, _ = confusion_matrix(y_true, y_pred, 2)
        assert counts.tolist() == [[1, 0], [1, 1]]
        assert weighted_f1(y_true, y_pred, 2) == weighted_f1(y_true.astype(int),
                                                             y_pred.astype(int), 2)
        counts, percent = confusion_matrix([], [], 4)
        assert not counts.any() and not percent.any()

    def test_random_vectors_match_tallies(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(1, 30))
            yt = rng.integers(0, 2, n)
            yp = rng.integers(0, 2, n)
            assert binary_f1(yt, yp) == pytest.approx(
                tally_binary_f1(yt.tolist(), yp.tolist()), abs=1e-12)
            yt4 = rng.integers(0, 4, n)
            yp4 = rng.integers(0, 4, n)
            assert weighted_f1(yt4, yp4, 4) == pytest.approx(
                tally_weighted_f1(yt4.tolist(), yp4.tolist(), 4), abs=1e-12)
            actual = rng.uniform(1, 7, n)
            predicted = rng.uniform(1, 7, n)
            assert rmse(actual, predicted) == pytest.approx(
                tally_rmse(actual.tolist(), predicted.tolist()), abs=1e-12)


class TestConfig:
    def test_parse(self):
        text = """
        # comment
        task = four_class
        archs = cnn, gru
        features = spectrogram+cepstrogram, mel_spectrogram
        snrs_db = clean, 20, -10
        epochs = 7
        batch_size = 16
        learning_rate = 0.001
        dtype = float32
        """
        cfg = parse_config_text(text)
        assert cfg.task == "four_class"
        assert cfg.archs == ("cnn", "gru")
        assert cfg.features == ("spectrogram+cepstrogram", "mel_spectrogram")
        assert cfg.snrs_db == (CLEAN, 20.0, -10.0)
        assert cfg.epochs == 7

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("learning_rte = 0.1")
        # cells run one after another; there is no worker pool to size
        with pytest.raises(ConfigError, match="'workers'"):
            parse_config_text("workers = 2")
        # the paper's fixed recipe: Adam's betas and epsilon, the 32 / 8 validation split
        for key, value in (("beta1", "0.8"), ("beta2", "0.99"), ("epsilon", "1e-6"),
                           ("validation_fraction", "0.25")):
            with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
                parse_config_text(f"{key} = {value}")

    def test_config_fields_are_pinned(self):
        # a new field is a new knob; one that only ever holds its default belongs
        # in the code as a constant
        assert [f.name for f in fields(ExperimentConfig)] == [
            "task", "archs", "features", "snrs_db", "epochs", "batch_size",
            "learning_rate", "n_folds", "seed", "dtype", "width_scale",
            "pretrain_epochs", "finetune_epochs", "early_stop_patience",
            "train_snr_augment", "per_block_eval", "manifest", "audio_root", "noise"]
        assert [f.name for f in fields(TrainSettings)] == [
            "epochs", "batch_size", "learning_rate", "shuffle_seed", "early_stop_patience"]

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("epochs = many")

    def test_bad_task_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(task="quinary")

    def test_snr_labels(self):
        assert snr_label(CLEAN) == "clean"
        assert snr_label(-10.0) == "-10"
        assert parse_snr("clean") == CLEAN
        assert parse_snr("inf") == CLEAN
        assert parse_snr("-5") == -5.0
        for bad in ("nan", "-inf", "abc"):
            with pytest.raises(ConfigError):
                parse_snr(bad)

    def test_snr_below_the_gain_bound_refused_wherever_it_enters(self):
        # the noise gain 10 ** (-snr / 20) overflows a float below about -6165 dB
        assert parse_snr("-6000") == -6000.0
        with pytest.raises(ConfigError, match="'-7000'"):
            parse_snr("-7000")
        with pytest.raises(ConfigError, match="'-7000'"):
            ExperimentConfig(snrs_db=(CLEAN, -7000.0))

    def test_derive_seed_stable(self):
        assert derive_seed(7, "folds") == derive_seed(7, "folds")
        assert derive_seed(7, "folds") != derive_seed(7, "noise")
        assert derive_seed(7, "a", 1) != derive_seed(7, "a", 2)


class TestSyntheticCorpus:
    def test_balanced_and_deterministic(self):
        a = make_classification_corpus(n_clips=40, n_speakers=4, n_classes=2, seed=3)
        b = make_classification_corpus(n_clips=40, n_speakers=4, n_classes=2, seed=3)
        assert len(a) == 40
        labels = [e.class_index for e in a]
        assert labels.count(0) == labels.count(1) == 20
        assert len({e.speaker_id for e in a}) == 4
        for x, y in zip(a, b):
            assert np.array_equal(x.clip.samples, y.clip.samples)

    def test_clips_are_valid_and_long_enough(self):
        for e in make_classification_corpus(n_clips=16, n_speakers=4, n_classes=4, seed=1):
            e.clip.validate()
            assert e.clip.samples.size >= 1024 + 19 * 512

    def test_intensity_monotone_range(self):
        examples = make_intensity_corpus(n_clips=30, n_speakers=5, seed=2)
        values = [e.intensity for e in examples]
        assert all(1.0 <= v <= 7.0 for v in values)
        assert max(values) - min(values) > 2.0

    def test_written_corpus_passes_validation(self, tmp_path):
        examples = make_classification_corpus(n_clips=16, n_speakers=4, n_classes=4, seed=5)
        manifest = write_synth_corpus(examples, tmp_path)
        records = parse_manifest(manifest)
        assert len(records) == 16
        validate_manifest(records)

    def test_uneven_split_rejected(self):
        with pytest.raises(ConfigError):
            make_classification_corpus(n_clips=41, n_speakers=4, n_classes=2)

    @pytest.mark.parametrize("make", [make_classification_corpus, make_intensity_corpus])
    @pytest.mark.parametrize("n_clips, n_speakers", [(0, 4), (-8, 4), (8, 0), (8, -2)])
    def test_no_clips_or_speakers_rejected(self, make, n_clips, n_speakers):
        with pytest.raises(ConfigError, match="clips and speakers must be positive"):
            make(n_clips=n_clips, n_speakers=n_speakers)


@pytest.fixture(scope="module")
def fold_setup():
    examples = synth_examples()
    cfg = ExperimentConfig(task="binary", epochs=8, batch_size=20,
                           learning_rate=1e-3, dtype="float32", n_folds=2,
                           snrs_db=(CLEAN, 0.0), noise="pink:5:2.0")
    plan = plan_folds(sorted({e.speaker_id for e in examples}),
                      seed=derive_seed(cfg.seed, "folds"), n_folds=2)
    data = build_fold_data(examples, plan.folds[0],
                           (FeatureKind.MEL_SPECTROGRAM,), cfg)
    return examples, cfg, plan, data


class TestTraining:

    def test_speaker_independence_in_fold_data(self, fold_setup):
        # the train half is test_fold_data_equals_clip_by_clip_stacking's oracle
        _, _, plan, data = fold_setup
        test_speakers = set(plan.folds[0].test_speakers)
        for example in data.test_examples:
            assert example.speaker_id in test_speakers

    def test_untrained_binary_loss_near_quarter(self, fold_setup):
        _, _, _, data = fold_setup
        model = build_single_model("cnn", FeatureKind.MEL_SPECTROGRAM, "binary",
                                   seed=0, dtype=np.float32)
        y = data.train_y.astype(np.float32).reshape(-1, 1)
        value = evaluate_loss(model, data.train_x, y)
        assert abs(value - 0.25) < 0.07

    def test_training_reduces_loss(self, fold_setup):
        _, _, _, data = fold_setup
        model = build_single_model("cnn", FeatureKind.MEL_SPECTROGRAM, "binary",
                                   seed=0, dtype=np.float32)
        log = train_model(model, data, TrainSettings(epochs=8, batch_size=20,
                                                     learning_rate=1e-3, shuffle_seed=1))
        assert log.epochs[-1]["train_loss"] < log.epochs[0]["train_loss"]
        assert len(log.epochs) == 8

    def test_training_deterministic_in_float64(self):
        examples = synth_examples(n_clips=16, n_speakers=4)
        cfg = ExperimentConfig(task="binary", epochs=3, batch_size=8, dtype="float64",
                               n_folds=2)
        plan = plan_folds(sorted({e.speaker_id for e in examples}), seed=1, n_folds=2)
        data = build_fold_data(examples, plan.folds[0], (FeatureKind.TMFCC,), cfg)

        def run():
            model = build_single_model("cnn", FeatureKind.TMFCC, "binary", seed=5)
            train_model(model, data, TrainSettings(epochs=3, batch_size=8,
                                                   learning_rate=1e-3, shuffle_seed=7))
            return {k: v.tobytes() for k, v in model.state_dict().items()}

        assert run() == run()

    def test_baseline_mlp_cell(self):
        # the cell is the builder plus train_model, with the cell's derived seeds
        examples = synth_examples(n_clips=16, n_speakers=4)
        cfg = ExperimentConfig(task="binary", epochs=2, batch_size=8, learning_rate=1e-3,
                               dtype="float64", n_folds=2, width_scale=4)
        plan = plan_folds(sorted({e.speaker_id for e in examples}), seed=1, n_folds=2)
        kinds = (FeatureKind.MFCC_DELTA_DELTA,)
        data = build_fold_data(examples, plan.folds[0], kinds, cfg)
        logs = []
        model = training.build_cell_model("mlp_baseline_standin", kinds, cfg, data, 0,
                                          raw_logs=logs)
        assert model.arch is Arch.MLP_BASELINE and model.kinds == kinds
        assert [(log.stage, len(log.epochs)) for log in logs] == [("mfcc_delta_delta", 2)]
        assert all(np.isfinite(e["val_loss"]) for e in logs[0].epochs)
        expected = build_baseline_mlp(
            "binary", seed=derive_seed(cfg.seed, "model", "mfcc_delta_delta", 0), width_scale=4)
        train_model(expected, data, TrainSettings(
            epochs=2, batch_size=8, learning_rate=1e-3,
            shuffle_seed=derive_seed(cfg.seed, "shuffle", "mfcc_delta_delta", 0)))
        state = model.state_dict()
        assert all(np.array_equal(state[k], v) for k, v in expected.state_dict().items())
        with pytest.raises(ConfigError, match="mfcc_delta_delta"):
            training.build_cell_model("mlp_baseline_standin", (FeatureKind.TMFCC,), cfg, data, 0)

    def test_fusion_cell_trains_three_stages_through_one_recipe(self):
        # two branches pretrained and the fusion fine-tuned, each stage built
        # and trained by hand with the cell's derived seeds and settings
        examples = synth_examples(n_clips=16, n_speakers=4, n_classes=4)
        cfg = ExperimentConfig(task="four_class", epochs=5, pretrain_epochs=2, finetune_epochs=3,
                               batch_size=8, learning_rate=1e-2, early_stop_patience=1,
                               dtype="float32", n_folds=2, width_scale=4)
        plan = plan_folds(sorted({e.speaker_id for e in examples}), seed=1, n_folds=2)
        kinds = (FeatureKind.MEL_SPECTROGRAM, FeatureKind.TMFCC)
        data = build_fold_data(examples, plan.folds[1], kinds, cfg)
        logs = []
        model = training.build_cell_model("cnn", kinds, cfg, data, 1, raw_logs=logs)
        assert [(log.stage, log.fold) for log in logs] == [
            ("left.mel_spectrogram", 1), ("right.tmfcc", 1), ("fusion", 1)]
        assert logs[-1].stopped_early  # the fusion stage restores its best epoch

        def settings(epochs, *shuffle_tag):
            return TrainSettings(epochs=epochs, batch_size=8, learning_rate=1e-2,
                                 shuffle_seed=derive_seed(cfg.seed, *shuffle_tag, 1),
                                 early_stop_patience=1)

        branches, expected_logs = [], []
        for side, kind in zip(("left", "right"), kinds):
            tag = f"{side}.{kind.value}"
            branch = build_single_model("cnn", kind, "four_class", dtype=np.float32, width_scale=4,
                                        seed=derive_seed(cfg.seed, "model", tag, 1))
            expected_logs.append(train_model(branch, data, settings(2, "shuffle", tag)))
            branches.append(branch)
        expected = build_fusion_model(*branches, seed=derive_seed(cfg.seed, "fusion", 1))
        expected_logs.append(train_model(expected, data, settings(3, "shuffle.fusion")))
        state = model.state_dict()
        assert state.keys() == expected.state_dict().keys()
        assert all(np.array_equal(state[k], v) for k, v in expected.state_dict().items())
        assert [log.epochs for log in logs] == [log.epochs for log in expected_logs]

    def test_non_finite_loss_raises_numeric_error(self, fold_setup):
        _, _, _, data = fold_setup
        model = build_single_model("cnn", FeatureKind.MEL_SPECTROGRAM, "binary",
                                   seed=0, dtype=np.float32)
        poisoned = {FeatureKind.MEL_SPECTROGRAM:
                    data.train_x[FeatureKind.MEL_SPECTROGRAM].copy()}
        poisoned[FeatureKind.MEL_SPECTROGRAM][0, 0, 0] = np.nan
        with pytest.raises(NumericError, match="epoch"):
            train_model(model, None, TrainSettings(epochs=1, batch_size=20,
                                                   learning_rate=1e-3),
                        train_x=poisoned, train_y=data.train_y,
                        val_x=None, val_y=None)

    def test_early_stopping_restores_best(self, fold_setup):
        _, _, _, data = fold_setup
        model = build_single_model("cnn", FeatureKind.MEL_SPECTROGRAM, "binary",
                                   seed=0, dtype=np.float32)
        log = train_model(model, data, TrainSettings(epochs=50, batch_size=20,
                                                     learning_rate=1e-3, shuffle_seed=1,
                                                     early_stop_patience=2))
        assert log.best_epoch >= 1
        assert len(log.epochs) <= 50

    @pytest.mark.parametrize("patience", [0, 2], ids=["final", "restored"])
    def test_a_trained_model_holds_no_gradient(self, fold_setup, patience):
        _, _, _, data = fold_setup
        model = build_single_model("cnn", FeatureKind.MEL_SPECTROGRAM, "binary",
                                   seed=0, dtype=np.float32)
        log = train_model(model, data, TrainSettings(epochs=3, batch_size=20,
                                                     learning_rate=1e-3, shuffle_seed=1,
                                                     early_stop_patience=patience))
        assert (log.best_state is not None) and len(log.epochs) == 3
        assert all(p.grad is None for p in model.parameters().values())

    def test_a_step_graph_is_gone_before_the_next_forward(self, fold_setup, monkeypatch):
        _, _, _, data = fold_setup
        model = build_single_model("cnn", FeatureKind.MEL_SPECTROGRAM, "binary",
                                   seed=0, dtype=np.float32)
        losses, live = [], []
        loss_fn, forward = training.loss_fn, model.forward

        def recorded(*args):
            out = loss_fn(*args)
            losses.append(weakref.ref(out))
            return out

        def checked(x):
            live.append(sum(ref() is not None for ref in losses))
            return forward(x)

        monkeypatch.setattr(training, "loss_fn", recorded)
        model.forward = checked
        train_model(model, data, TrainSettings(epochs=2, batch_size=20,
                                               learning_rate=1e-3, shuffle_seed=1))
        assert len(losses) > 2 and len(live) > 2
        assert live == [0] * len(live)

    def test_a_tie_in_validation_loss_keeps_the_earlier_epoch(self, fold_setup, monkeypatch):
        _, _, _, data = fold_setup
        model = build_single_model("cnn", FeatureKind.MEL_SPECTROGRAM, "binary",
                                   seed=0, dtype=np.float32)
        monkeypatch.setattr(training, "evaluate_loss", lambda *args: 0.5)
        log = train_model(model, data, TrainSettings(epochs=3, batch_size=20,
                                                     learning_rate=1e-3, shuffle_seed=1))
        assert [epoch["val_loss"] for epoch in log.epochs] == [0.5, 0.5, 0.5]
        assert log.best_epoch == 1 and log.best_val_loss == 0.5
        final = model.state_dict()
        assert not all(np.array_equal(log.best_state[k], v) for k, v in final.items())

    def test_evaluate_across_snrs(self, fold_setup):
        _, cfg, _, data = fold_setup
        model = build_single_model("cnn", FeatureKind.MEL_SPECTROGRAM, "binary",
                                   seed=0, dtype=np.float32)
        train_model(model, data, TrainSettings(epochs=8, batch_size=20,
                                               learning_rate=1e-3, shuffle_seed=1))
        noise = load_noise(cfg.noise)
        scores = evaluate_model(model, data.test_examples, data.stats, "binary",
                                cfg.snrs_db, noise, seed=3)
        assert set(scores) == {"clean", "0"}
        for detail in scores.values():
            assert 0.0 <= detail["metric"] <= 1.0

    def test_per_block_evaluation_mode(self, fold_setup):
        _, cfg, _, data = fold_setup
        model = build_single_model("cnn", FeatureKind.MEL_SPECTROGRAM, "binary",
                                   seed=0, dtype=np.float32)
        train_model(model, data, TrainSettings(epochs=4, batch_size=20,
                                               learning_rate=1e-3, shuffle_seed=1))
        noise = load_noise(cfg.noise)
        by_clip = evaluate_model(model, data.test_examples, data.stats, "binary",
                                 (CLEAN,), noise, seed=3)
        outputs = []
        forward = model.forward

        def spy(x):
            out = forward(x)
            outputs.append(out.data[:, 0].copy())
            return out

        model.forward = spy
        # 1.4-1.9 s clips hold two blocks each
        clips = synth_examples(n_clips=8, n_speakers=2, seed=4, clip_seconds=(1.4, 1.9))
        by_block = evaluate_model(model, clips, data.stats, "binary",
                                  cfg.snrs_db, noise, seed=3, per_block=True)
        assert 0.0 <= by_block["clean"]["metric"] <= 1.0
        assert 0.0 <= by_clip["clean"]["metric"] <= 1.0
        # one forward per SNR over every clip's blocks, each block decided from its own row
        assert len(outputs) == len(cfg.snrs_db)
        assert all(rows.size == 2 * len(clips) for rows in outputs)
        truth = [e.label for e in clips for _ in range(2)]
        for snr, rows in zip(cfg.snrs_db, outputs):
            pred = [int(v > 0.5) for v in rows]
            assert by_block[snr_label(snr)]["metric"] == tally_binary_f1(truth, pred)

    def test_scoring_forwards_are_chunked(self, fold_setup, monkeypatch):
        _, cfg, _, data = fold_setup
        model = build_single_model("cnn", FeatureKind.MEL_SPECTROGRAM, "binary",
                                   seed=0, dtype=np.float64)
        train_model(model, data, TrainSettings(epochs=4, batch_size=20,
                                               learning_rate=1e-3, shuffle_seed=1))
        noise = load_noise(cfg.noise)
        kind = FeatureKind.MEL_SPECTROGRAM
        y = data.train_y.astype(np.float64).reshape(-1, 1)
        with neural.no_grad():
            whole = neural.loss(model.forward(data.train_x[kind]), y,
                                model.head_kind.loss_kind).item()
        rows = []
        forward = model.forward

        def spy(x):
            out = forward(x)
            rows.append(out.data.copy())
            return out

        model.forward = spy
        # 8 two-block clips: 16 blocks per SNR
        clips = synth_examples(n_clips=8, n_speakers=2, seed=4, clip_seconds=(1.4, 1.9))
        unchunked = evaluate_model(model, clips, data.stats, "binary", cfg.snrs_db,
                                   noise, seed=3, per_block=True)
        assert len(rows) == len(cfg.snrs_db)
        decisions = model.head_kind.decide(np.concatenate(rows))
        rows.clear()

        monkeypatch.setattr(training, "FORWARD_CHUNK", 3)
        chunked = evaluate_model(model, clips, data.stats, "binary", cfg.snrs_db,
                                 noise, seed=3, per_block=True)
        assert len(rows) == 6 * len(cfg.snrs_db)  # ceil(16 / 3) per SNR
        assert all(len(r) <= 3 for r in rows)
        assert np.array_equal(model.head_kind.decide(np.concatenate(rows)), decisions)
        assert chunked == unchunked
        rows.clear()
        chunked_loss = evaluate_loss(model, data.train_x, y)
        n = len(data.train_y)
        assert n > 3 and len(rows) == -(-n // 3)
        assert chunked_loss == pytest.approx(whole, rel=1e-12, abs=0)

    def test_fold_blocks_stored_in_cfg_dtype(self, fold_setup):
        examples, cfg, plan, data = fold_setup
        wide = build_fold_data(examples, plan.folds[0], (FeatureKind.MEL_SPECTROGRAM,),
                               replace(cfg, dtype="float64"))
        for split in ("train_x", "val_x"):
            narrow = getattr(data, split)[FeatureKind.MEL_SPECTROGRAM]
            assert narrow.dtype == np.float32
            assert np.array_equal(
                narrow, getattr(wide, split)[FeatureKind.MEL_SPECTROGRAM].astype(np.float32))
        assert np.array_equal(data.train_y, wide.train_y)

    def test_evaluate_empty_test_rejected(self, fold_setup):
        _, cfg, _, data = fold_setup
        model = build_single_model("cnn", FeatureKind.MEL_SPECTROGRAM, "binary",
                                   seed=0, dtype=np.float32)
        with pytest.raises(ConfigError):
            evaluate_model(model, [], data.stats, "binary", cfg.snrs_db, None, seed=0)

    def test_evaluate_refuses_head_of_another_task(self, fold_setup):
        _, cfg, _, data = fold_setup
        model = build_single_model("cnn", FeatureKind.MEL_SPECTROGRAM, "binary",
                                   seed=0, dtype=np.float32)
        for task in ("four_class", "regression"):
            with pytest.raises(ConfigError, match="binary"):
                evaluate_model(model, data.test_examples, data.stats, task,
                               cfg.snrs_db, None, seed=0)

    @pytest.mark.parametrize("snrs", [(0.0,), (CLEAN, 0.0)], ids=["noisy", "clean_first"])
    def test_evaluate_requires_noise_for_finite_snr(self, fold_setup, monkeypatch, snrs):
        _, _, _, data = fold_setup
        model = build_single_model("cnn", FeatureKind.MEL_SPECTROGRAM, "binary",
                                   seed=0, dtype=np.float32)

        def forward(*args):
            raise AssertionError("a forward ran before the refusal")

        monkeypatch.setattr(training, "predict_clip", forward)
        with pytest.raises(ConfigError, match="SNR 0 requested but no noise source configured"):
            evaluate_model(model, data.test_examples, data.stats, "binary",
                           snrs, None, seed=0)

    def test_train_time_augmentation_changes_features(self, fold_setup):
        examples, cfg, plan, clean_data = fold_setup
        noisy_cfg = ExperimentConfig(**{**{f: getattr(cfg, f) for f in
                                           ("task", "epochs", "batch_size", "dtype",
                                            "n_folds", "snrs_db", "noise")},
                                        "train_snr_augment": True,
                                        "learning_rate": cfg.learning_rate})
        noise = load_noise(cfg.noise)
        noisy_data = build_fold_data(examples, plan.folds[0],
                                     (FeatureKind.MEL_SPECTROGRAM,), noisy_cfg,
                                     noise=noise)
        a = clean_data.train_x[FeatureKind.MEL_SPECTROGRAM]
        b = noisy_data.train_x[FeatureKind.MEL_SPECTROGRAM]
        assert a.shape == b.shape
        assert not np.allclose(a, b)
        # deterministic under the same seed
        again = build_fold_data(examples, plan.folds[0],
                                (FeatureKind.MEL_SPECTROGRAM,), noisy_cfg, noise=noise)
        assert np.array_equal(b, again.train_x[FeatureKind.MEL_SPECTROGRAM])

    @pytest.mark.parametrize("task, dtype, kinds", [
        ("binary", "float32", (FeatureKind.SPECTROGRAM, FeatureKind.CEPSTROGRAM)),
        ("regression", "float64", (FeatureKind.MFCC_DELTA_DELTA,)),
    ], ids=["float32-binary-fusion", "float64-regression"])
    def test_fold_data_equals_clip_by_clip_stacking(self, task, dtype, kinds):
        if task == "regression":
            examples = [ClipExample(clip_id=s.clip_id, speaker_id=s.speaker_id, clip=s.clip,
                                    label=s.intensity)
                        for s in make_intensity_corpus(n_clips=16, n_speakers=4, seed=2,
                                                       clip_seconds=(1.3, 1.9))]
        else:
            examples = synth_examples(n_clips=16, n_speakers=4, clip_seconds=(1.3, 1.9))
        cfg = ExperimentConfig(task=task, dtype=dtype, n_folds=2)
        plan = plan_folds(sorted({e.speaker_id for e in examples}), seed=4, n_folds=2)
        data = build_fold_data(examples, plan.folds[0], kinds, cfg)
        train_speakers, val_speakers = split_train_validation(
            plan.folds[0], seed=derive_seed(cfg.seed, "validation"))
        train, val = ([(e.clip, e.label) for e in examples if e.speaker_id in speakers]
                      for speakers in (train_speakers, val_speakers))
        stats, x, y = stacked_fold_blocks(train, val, kinds, feature_matrix, dtype)

        def same(got, want):
            return got.dtype == want.dtype and got.shape == want.shape and np.array_equal(
                got, want)

        for kind in kinds:
            assert same(data.stats[kind].mean, stats[kind][0])
            assert same(data.stats[kind].std, stats[kind][1])
            assert same(data.train_x[kind], x["train"][kind])
            assert same(data.val_x[kind], x["val"][kind])
        assert same(data.train_y, y["train"]) and same(data.val_y, y["val"])
        # several blocks per clip, so the labels really are repeated per block
        assert len(data.train_y) > len(train) and len(data.val_y) > len(val)

    def test_fold_data_peak_is_bounded_by_its_blocks(self):
        # spectrogram + cepstrogram are the two 512-d kinds, the largest fold data
        examples = synth_examples()
        cfg = ExperimentConfig(task="binary", dtype="float32", n_folds=2)
        kinds = (FeatureKind.SPECTROGRAM, FeatureKind.CEPSTROGRAM)
        plan = plan_folds(sorted({e.speaker_id for e in examples}),
                          seed=derive_seed(cfg.seed, "folds"), n_folds=2)
        tracemalloc.start()
        try:
            data = build_fold_data(examples, plan.folds[0], kinds, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(a.nbytes for a in (*data.train_x.values(), *data.val_x.values()))
        assert kept and peak <= 4 * kept


class TestSuite:
    def make_cfg(self, **overrides):
        defaults = dict(task="binary", archs=("cnn",),
                        features=("mel_spectrogram",), snrs_db=(CLEAN, 0.0),
                        epochs=4, batch_size=20, learning_rate=1e-3,
                        dtype="float32", n_folds=2, seed=3, noise="pink:5:2.0")
        defaults.update(overrides)
        return ExperimentConfig(**defaults)

    def test_suite_writes_reports(self, tmp_path):
        examples = synth_examples()
        cfg = self.make_cfg()
        result = run_suite(cfg, tmp_path / "out", examples=examples)
        assert result.exit_code == 0
        report_path = tmp_path / "out" / (cell_name("cnn", "mel_spectrogram") + ".json")
        assert report_path.exists()
        report = json.loads(report_path.read_text())
        validate_report(report)
        assert set(report) == {"schema"} | {f.name for f in fields(MetricsReport)}
        validate_report({**report, "failures": []})   # an older report still reads
        assert set(report["snr_means"]) == {"clean", "0"}
        assert (tmp_path / "out" / "aggregate.csv").exists()
        assert (tmp_path / "out" / "suite_meta.json").exists()

    def test_failed_cell_recorded_suite_continues(self, tmp_path):
        examples = synth_examples()
        cfg = self.make_cfg(archs=("cnn", "transformer"))
        result = run_suite(cfg, tmp_path / "out", examples=examples)
        assert result.exit_code == 1
        assert len(result.failures) == 1
        assert "transformer" in result.failures[0]["cell"]
        assert len(result.reports) == 1

    def test_empty_grid_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            run_suite(self.make_cfg(archs=()), tmp_path / "out", examples=synth_examples())

    def test_export_plot_csvs(self, tmp_path):
        examples = synth_examples(n_clips=48, n_speakers=4, n_classes=4)
        cfg = self.make_cfg(task="four_class", batch_size=24)
        result = run_suite(cfg, tmp_path / "out", examples=examples)
        assert result.exit_code == 0
        written = export_plot_csvs(result.reports[0], tmp_path / "plots")
        assert any("confusion" in p.name for p in written)

    @pytest.mark.parametrize("arch, features, error", [
        ("mlp_baseline_standin", "mfcc_delta_delta+tmfcc",
         "ConfigError: the baseline MLP consumes mfcc_delta_delta features, got tmfcc"),
        ("cnn", "spectrogram+mel_spectrogram",
         "ConfigError: cannot fuse a high-dimensional branch with a low-dimensional one"),
    ], ids=["mlp-fusion", "high-low-fusion"])
    def test_mismatched_cell_refused_before_fold_data(self, tmp_path, monkeypatch,
                                                      arch, features, error):
        calls = []
        monkeypatch.setattr(suite, "build_fold_data", lambda *a, **k: calls.append(a))
        cfg = self.make_cfg(archs=(arch,), features=(features,))
        result = run_suite(cfg, tmp_path / "out", examples=synth_examples(n_clips=16))
        assert calls == []
        assert result.reports == []
        assert result.failures == [{"cell": cell_name(arch, features), "error": error}]
        meta = json.loads((tmp_path / "out" / "suite_meta.json").read_text())
        assert meta["failures"] == result.failures

    def test_unexpected_cell_error_recorded_with_trace(self, tmp_path, monkeypatch):
        build = suite.build_fold_data

        def build_or_fail(examples, fold, kinds, cfg, noise=None):
            if FeatureKind.TMFCC in kinds:
                raise ValueError("boom")
            return build(examples, fold, kinds, cfg, noise=noise)

        monkeypatch.setattr(suite, "build_fold_data", build_or_fail)
        cfg = self.make_cfg(features=("tmfcc", "mel_spectrogram"), epochs=2, batch_size=8)
        result = run_suite(cfg, tmp_path / "out", examples=synth_examples(n_clips=16))
        assert [r["features"] for r in result.reports] == ["mel_spectrogram"]
        [failure] = result.failures
        assert failure["cell"] == cell_name("cnn", "tmfcc")
        assert failure["error"] == "ValueError: boom"
        assert "ValueError: boom" in failure["trace"]

    def test_report_schema_rejects_garbage(self):
        from shoutkit.errors import FormatError
        with pytest.raises(FormatError):
            validate_report({"schema": "???"})

    @pytest.mark.parametrize("payload", [[1, 2], "report", 3])
    def test_report_schema_rejects_a_non_object(self, payload):
        from shoutkit.errors import FormatError
        with pytest.raises(FormatError, match="JSON object"):
            validate_report(payload)

    @pytest.mark.parametrize("fault", ["missing", "wrong type"])
    @pytest.mark.parametrize("name", [f.name for f in fields(MetricsReport)])
    def test_report_schema_refuses_a_missing_or_mistyped_field(self, name, fault):
        from shoutkit.errors import FormatError
        payload = MetricsReport(task="binary", arch="cnn", features="tmfcc",
                                numeric_mode="float32", seed=7, average=0.5).to_dict()
        validate_report(payload)
        if fault == "missing":
            del payload[name]
            message = f"report missing key '{name}'"
        else:
            payload[name] = {} if isinstance(payload[name], list) else []
            message = f"report key '{name}' should be "
        with pytest.raises(FormatError, match=re.escape(message)) as info:
            validate_report(payload)
        assert "<class" not in str(info.value)   # the type is named as it is declared

    def test_fusion_cell_through_suite(self, tmp_path):
        examples = synth_examples(n_clips=16, n_speakers=4)
        cfg = self.make_cfg(features=("mel_spectrogram+tmfcc",), epochs=2,
                            batch_size=8)
        result = run_suite(cfg, tmp_path / "out", examples=examples)
        assert result.exit_code == 0
        report = result.reports[0]
        assert report["features"] == "mel_spectrogram+tmfcc"
        stages = {entry["stage"] for entry in report["training"]}
        assert {"left.mel_spectrogram", "right.tmfcc", "fusion"} <= stages

    @pytest.mark.parametrize("noise, error, text", [
        ("", ConfigError, "SNR 20 requested but no noise source configured"),
        ("pink:5:0.5", DegenerateInputError, "noise must be at least as long as the speech clip"),
    ], ids=["no_noise", "short_noise"])
    def test_unmixable_sweep_refused_before_any_fold_data(self, tmp_path, monkeypatch,
                                                          noise, error, text):
        calls = []
        monkeypatch.setattr(suite, "build_fold_data", lambda *a, **k: calls.append(a))
        cfg = self.make_cfg(archs=("cnn", "gru"), features=("mel_spectrogram", "tmfcc"),
                            snrs_db=ExperimentConfig().snrs_db, noise=noise)
        with pytest.raises(error, match=text):
            run_suite(cfg, tmp_path / "out", examples=synth_examples(n_clips=16))
        assert calls == []
        assert not (tmp_path / "out").exists()

    def test_distinct_seeds_distinct_reports_same_schema(self, tmp_path):
        examples = synth_examples(n_clips=16, n_speakers=4)
        a = run_suite(self.make_cfg(seed=1, epochs=2, batch_size=8),
                      tmp_path / "a", examples=examples)
        b = run_suite(self.make_cfg(seed=2, epochs=2, batch_size=8),
                      tmp_path / "b", examples=examples)
        for result in (a, b):
            validate_report(result.reports[0])
        assert a.reports[0]["per_fold_snr"] != b.reports[0]["per_fold_snr"]
        assert set(a.reports[0]) == set(b.reports[0])


def test_load_noise_specs(tmp_path):
    clip = load_noise("pink:3:1.0")
    assert clip.samples.size == 16000
    with pytest.raises(ConfigError):
        load_noise("pink:3")
    assert load_noise("") is None


@pytest.mark.parametrize("spec", ["pink:1:nan", "pink:1:inf", "pink:1:1e400", "pink:1:0",
                                  "pink:1:-3", "pink:1:1e-4"])
def test_pink_spec_not_finite_or_under_two_samples_refused(spec):
    # one parser: the config refuses the spec before any corpus is read, and
    # load_noise refuses it the same way
    with pytest.raises(ConfigError, match="pink noise spec"):
        ExperimentConfig(noise=spec)
    with pytest.raises(ConfigError, match="pink noise spec"):
        load_noise(spec)


# -- one owner of the fold and noise seeds ---------------------------------------------

SOURCE_ROOT = Path(suite.__file__).parents[1]
SEED_OWNER = Path("experiments") / "suite.py"


def fold_and_noise_seed_calls(source: str) -> list[int]:
    """Line numbers of the ``derive_seed(...)`` calls in ``source`` whose first
    tag is the literal "folds" or "noise"."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call) or len(node.args) < 2:
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        tag = node.args[1]
        if (name == "derive_seed" and isinstance(tag, ast.Constant)
                and tag.value in ("folds", "noise")):
            lines.append(node.lineno)
    return sorted(lines)


def test_fold_and_noise_seeds_are_derived_in_suite_only():
    found = [f"{path.relative_to(SOURCE_ROOT)}:{line}"
             for path in sorted(SOURCE_ROOT.rglob("*.py"))
             if path.relative_to(SOURCE_ROOT) != SEED_OWNER
             for line in fold_and_noise_seed_calls(path.read_text(encoding="utf-8"))]
    assert not found, f"fold or noise seed derived outside {SEED_OWNER} at {', '.join(found)}"


@pytest.mark.parametrize("snippet", [
    'derive_seed(cfg.seed, "folds")', 'exp.derive_seed(seed, "folds")',
    'derive_seed(cfg.seed, "noise", fold_index)', 'config.derive_seed(7, "noise", 0)',
])
def test_seed_guard_flags_each_form(snippet):
    assert fold_and_noise_seed_calls(f"x = 1\n{snippet}\n") == [2]


@pytest.mark.parametrize("snippet", [
    'derive_seed(cfg.seed, "validation")', 'derive_seed(seed, "model", "folds")',
    'derive_seed(seed, tag)', 'plan_folds(speakers, seed=seed, n_folds=2)',
])
def test_seed_guard_passes_other_seeds(snippet):
    assert fold_and_noise_seed_calls(snippet) == []
