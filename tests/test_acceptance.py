"""Acceptance suite: twelve criteria, one test each, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The heavyweight criteria (6, 7, 8) train real models
on synthetic corpora and together take several minutes.
"""

import itertools
import json
import time
import warnings

import numpy as np
import pytest

from shoutkit import features as F
from shoutkit import neural
from shoutkit.audio_io import CLEAN, SWEEP_SNRS_DB, AudioClip, NoiseSpec, mix_noise_at_snr, rms
from shoutkit.corpus import (SentenceVote, aggregate_intensity, classify_sentence_votes,
                             filter_spammers, make_rating_subsets)
from shoutkit.errors import InsufficientRatingsError
from shoutkit.experiments import (ExperimentConfig, binary_f1, build_fold_data,
                                  confusion_matrix, derive_seed, evaluate_model,
                                  load_noise, make_classification_corpus,
                                  make_intensity_corpus, plan_folds, rmse, run_cell,
                                  run_suite, weighted_f1)
from shoutkit.experiments.training import ClipExample, TrainSettings, train_model
from shoutkit.features import FeatureKind, FeatureStats, feature_matrix, split_blocks
from shoutkit.models import (build_fusion_model, build_single_model, predict_clip)
from shoutkit.neural import Tensor, cross_entropy_loss, mse_loss
from shoutkit.neural import tensor as T

from oracles import (finite_difference_check, tally_binary_f1, tally_confusion,
                     tally_rmse, tally_weighted_f1)
from test_corpus import rating


def line(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:02d} {name}: {status} ({detail})")


def synth_binary_examples(n_clips, n_speakers, seed):
    synth = make_classification_corpus(n_clips=n_clips, n_speakers=n_speakers,
                                       n_classes=2, seed=seed)
    return [ClipExample(clip_id=s.clip_id, speaker_id=s.speaker_id,
                        clip=s.clip, label=s.class_index) for s in synth]


def test_c01_dft_against_naive_oracle():
    started = time.time()
    rng = np.random.default_rng(101)
    basis = np.exp(-2j * np.pi * np.outer(np.arange(1024), np.arange(1024)) / 1024)
    worst = 0.0
    for _ in range(100):
        for n in (64, 1024):
            signal = rng.standard_normal(n)
            padded = np.zeros(1024)
            padded[:n] = signal
            oracle = np.abs(basis @ padded) ** 2
            fast = F.power_spectrum_full(signal)
            worst = max(worst, np.max(np.abs(fast - oracle[:513])) / np.max(oracle))
    elapsed = time.time() - started
    ok = worst <= 1e-9 and elapsed < 10.0
    line(1, "dft vs naive oracle", ok, f"max rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed < 10.0


def test_c02_parseval():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        frame = rng.standard_normal(1024)
        full = F.power_spectrum_full(frame)
        total = full[0] + full[512] + 2 * full[1:512].sum()
        expected = 1024 * np.sum(frame * frame)
        worst = max(worst, abs(total - expected) / expected)
    line(2, "parseval identity", worst <= 1e-6, f"max rel err {worst:.2e}")
    assert worst <= 1e-6


def test_c03_cepstrum_round_trip():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(100):
        frame = rng.standard_normal(1024)
        power = F.power_spectrum_full(frame)
        recovered = np.fft.rfft(F.cepstrum_full(power)).real
        target = np.log(np.maximum(power, F.LOG_FLOOR))
        worst = max(worst, np.max(np.abs(recovered - target)))
    line(3, "cepstrum round trip", worst <= 1e-8, f"max abs err {worst:.2e}")
    assert worst <= 1e-8


def test_c04_shape_ledger():
    checks = []

    m = build_single_model("cnn", FeatureKind.SPECTROGRAM, "binary", seed=0)
    led = m.shape_ledger()
    checks.append(led["input_height"] == 512 and led["pooled_heights"] == [102, 20, 4]
                  and led["flatten"] == 1280 and led["dense"] == 64)
    m = build_single_model("cnn", FeatureKind.MEL_SPECTROGRAM, "binary", seed=0)
    led = m.shape_ledger()
    checks.append(led["input_height"] == 30 and led["pooled_heights"] == [10, 3, 1]
                  and led["flatten"] == 320 and led["dense"] == 16)
    m = build_single_model("gru", FeatureKind.CEPSTROGRAM, "binary", seed=0)
    led = m.shape_ledger()
    checks.append(led["bigru_width"] == 1024 and led["dense"] == 64)
    m = build_single_model("gru", FeatureKind.TMFCC, "binary", seed=0)
    led = m.shape_ledger()
    checks.append(led["bigru_width"] == 60 and led["dense"] == 16)
    m = build_single_model("cnn_gru", FeatureKind.SPECTROGRAM, "binary", seed=0)
    led = m.shape_ledger()
    checks.append(led["pooled_heights"] == [102, 20, 4] and led["dense"] == 64)
    m = build_single_model("cnn_gru", FeatureKind.MEL_SPECTROGRAM, "binary", seed=0)
    led = m.shape_ledger()
    checks.append(led["pooled_heights"] == [10, 3, 1] and led["dense"] == 16)

    high = build_fusion_model(
        build_single_model("cnn", FeatureKind.SPECTROGRAM, "binary", seed=0),
        build_single_model("cnn", FeatureKind.CEPSTROGRAM, "binary", seed=1))
    low = build_fusion_model(
        build_single_model("cnn", FeatureKind.MEL_SPECTROGRAM, "binary", seed=0),
        build_single_model("cnn", FeatureKind.TMFCC, "binary", seed=1))
    checks.append(high.concat_dim == 128 and low.concat_dim == 32)

    ok = all(checks)
    line(4, "shape ledger", ok, f"{sum(checks)}/7 structural checks")
    assert ok


def test_c05_gradient_checks():
    started = time.time()
    tol, h = 1e-4, 1e-5
    results = {}
    rng = np.random.default_rng(105)

    layer = neural.Dense(6, 4, rng)
    x = Tensor(rng.standard_normal((3, 6)), requires_grad=True)
    w = Tensor(rng.standard_normal((3, 4)))
    results["dense"] = finite_difference_check(
        lambda: T.mean_all(T.mul(T.relu(layer(x)), w)), dict(layer.parameters(), x=x), h=h)

    conv = neural.Conv2d(2, 3, kernel=5, padding=2, rng=rng)
    xc = Tensor(rng.standard_normal((2, 2, 8, 6)), requires_grad=True)
    wc = Tensor(rng.standard_normal((2, 3, 8, 6)))
    results["conv2d"] = finite_difference_check(
        lambda: T.mean_all(T.mul(conv(xc), wc)), dict(conv.parameters(), x=xc), h=h)

    xp = Tensor(rng.standard_normal((1, 2, 11, 4)), requires_grad=True)
    wp = Tensor(rng.standard_normal((1, 2, 5, 4)))
    results["maxpool2d"] = finite_difference_check(
        lambda: T.mean_all(T.mul(neural.maxpool2d(xp, 2), wp)), {"x": xp}, h=h)

    gru = neural.BiGRU(4, 3, rng)
    xg = Tensor(rng.standard_normal((2, 5, 4)), requires_grad=True)
    wg = Tensor(rng.standard_normal((2, 5, 6)))

    def gru_forward():
        seq, final = gru(xg)
        return T.add(T.mean_all(T.mul(seq, wg)), T.mean_all(final))

    results["bigru"] = finite_difference_check(gru_forward, dict(gru.parameters(), x=xg), h=h)

    head = neural.Dense(5, 1, rng)
    xm = Tensor(rng.standard_normal((6, 5)), requires_grad=True)
    ym = rng.standard_normal((6, 1))
    results["mse"] = finite_difference_check(
        lambda: mse_loss(T.sigmoid(head(xm)), ym), dict(head.parameters(), x=xm), h=h)

    head4 = neural.Dense(5, 4, rng)
    targets = np.array([0, 1, 2, 3, 2, 1])
    results["cross_entropy"] = finite_difference_check(
        lambda: cross_entropy_loss(T.softmax(head4(xm), axis=1), targets),
        dict(head4.parameters(), x=xm), h=h)

    # reduced-width clones, widths divided by 8, same topology
    batch = rng.standard_normal((2, 512, 20))
    y_binary = np.array([[1.0], [0.0]])
    for arch in ("cnn", "gru", "cnn_gru"):
        model = build_single_model(arch, FeatureKind.SPECTROGRAM, "binary",
                                   seed=7, width_scale=8)
        results[f"model.{arch}"] = finite_difference_check(
            lambda m=model: mse_loss(m.forward(batch), y_binary),
            m_params(model), h=h, max_coords=6)

    left = build_single_model("cnn", FeatureKind.SPECTROGRAM, "binary", seed=8,
                              width_scale=8)
    right = build_single_model("cnn", FeatureKind.CEPSTROGRAM, "binary", seed=9,
                               width_scale=8)
    fusion = build_fusion_model(left, right, seed=10)
    pair = (rng.standard_normal((2, 512, 20)), rng.standard_normal((2, 512, 20)))
    results["model.fusion"] = finite_difference_check(
        lambda: mse_loss(fusion.forward(pair), y_binary), m_params(fusion),
        h=h, max_coords=6)

    elapsed = time.time() - started
    worst = max(results.values())
    ok = worst <= tol and elapsed < 300
    detail = ", ".join(f"{k}={v:.1e}" for k, v in results.items())
    line(5, "gradient checks", ok, f"worst {worst:.2e}, {elapsed:.0f}s; {detail}")
    assert worst <= tol
    assert elapsed < 300


def m_params(model):
    return model.parameters()


def test_c06_overfit_oracle():
    started = time.time()
    examples = synth_binary_examples(40, 4, seed=106)
    kind = FeatureKind.SPECTROGRAM
    matrices = {e.clip_id: feature_matrix(e.clip, kind) for e in examples}
    stats = FeatureStats.fit(list(matrices.values()))
    blocks_by_clip = {cid: split_blocks(m, kind, stats=stats)
                      for cid, m in matrices.items()}
    x = np.concatenate([blocks_by_clip[e.clip_id] for e in examples])
    y = np.concatenate([[e.label] * len(blocks_by_clip[e.clip_id]) for e in examples])

    model = build_single_model("cnn", kind, "binary", seed=6, dtype=np.float32)
    settings = TrainSettings(epochs=200, batch_size=40, learning_rate=1e-3,
                             shuffle_seed=61)
    log = train_model(model, None, settings, train_x={kind: x}, train_y=y,
                      val_x=None, val_y=None)
    final_loss = log.epochs[-1]["train_loss"]

    y_true, y_pred = [], []
    for e in examples:
        prediction = predict_clip(model, blocks_by_clip[e.clip_id])
        y_true.append(e.label)
        y_pred.append(prediction.label)
    f1 = binary_f1(np.array(y_true), np.array(y_pred))
    elapsed = time.time() - started
    ok = f1 == 1.0 and final_loss <= 0.05 and elapsed < 300
    line(6, "overfit oracle", ok,
         f"train F1 {f1:.3f}, loss {final_loss:.2e}, {elapsed:.0f}s")
    assert f1 == 1.0
    assert final_loss <= 0.05
    assert elapsed < 300


def test_c07_desk_scale_end_to_end():
    started = time.time()
    examples = synth_binary_examples(200, 10, seed=107)
    cfg = ExperimentConfig(task="binary", archs=("cnn",),
                           features=("spectrogram+cepstrogram",),
                           snrs_db=(20.0, -10.0), epochs=8, pretrain_epochs=8,
                           finetune_epochs=5, batch_size=32, learning_rate=1e-3,
                           dtype="float32", n_folds=5, seed=107, noise="pink:70:2.5")
    plan = plan_folds(sorted({e.speaker_id for e in examples}),
                      seed=derive_seed(cfg.seed, "folds"), n_folds=5)
    noise = load_noise(cfg.noise)
    report = run_cell(cfg, "cnn", "spectrogram+cepstrogram", plan, examples, noise)
    f1_20 = report.snr_means["20"]
    f1_neg10 = report.snr_means["-10"]
    elapsed = time.time() - started
    ok = f1_20 >= 0.90 and f1_20 >= f1_neg10 and elapsed < 1800
    line(7, "desk-scale end-to-end", ok,
         f"F1@20dB {f1_20:.3f}, F1@-10dB {f1_neg10:.3f}, {elapsed:.0f}s")
    assert f1_20 >= 0.90
    assert f1_20 >= f1_neg10
    assert elapsed < 1800


def test_c08_regression_head():
    started = time.time()
    synth = make_intensity_corpus(n_clips=200, n_speakers=10, seed=108)
    examples = [ClipExample(clip_id=s.clip_id, speaker_id=s.speaker_id,
                            clip=s.clip, label=s.intensity) for s in synth]
    cfg = ExperimentConfig(task="regression", archs=("cnn",), features=("cepstrogram",),
                           snrs_db=(CLEAN,), epochs=30, batch_size=32,
                           learning_rate=1e-3, dtype="float32", n_folds=5, seed=108,
                           early_stop_patience=4)
    plan = plan_folds(sorted({e.speaker_id for e in examples}),
                      seed=derive_seed(cfg.seed, "folds"), n_folds=5)
    data = build_fold_data(examples, plan.folds[0], (FeatureKind.CEPSTROGRAM,), cfg)
    from shoutkit.experiments.training import build_cell_model
    model = build_cell_model("cnn", (FeatureKind.CEPSTROGRAM,), cfg, data, 0)
    scores = evaluate_model(model, data.test_examples, data.stats, "regression",
                            cfg.snrs_db, None, seed=derive_seed(cfg.seed, "noise", 0))
    detail = scores["clean"]
    predictions = [p for _, p in detail["pairs"]]
    in_range = all(1.0 <= p <= 7.0 for p in predictions)
    value = detail["metric"]
    elapsed = time.time() - started
    ok = value <= 1.0 and in_range and elapsed < 1800
    line(8, "regression head", ok,
         f"RMSE {value:.3f}, preds in [{min(predictions):.2f}, {max(predictions):.2f}], "
         f"{elapsed:.0f}s")
    assert value <= 1.0
    assert in_range
    assert elapsed < 1800


def test_c09_snr_mixer_accuracy():
    rng = np.random.default_rng(109)
    worst = 0.0
    for pair in range(50):
        n = int(rng.integers(3000, 8000))
        speech = AudioClip(0.02 * rng.standard_normal(n), 16000, f"s{pair}")
        noise = AudioClip(0.03 * rng.standard_normal(n), 16000, f"n{pair}")
        for snr in SWEEP_SNRS_DB:
            spec = NoiseSpec(snr_db=snr, noise=noise, seed=pair)
            mixed = mix_noise_at_snr(speech, spec)
            if snr == CLEAN:
                assert mixed is speech
                continue
            residual = mixed.samples - speech.samples
            achieved = 20 * np.log10(rms(speech.samples) / rms(residual))
            worst = max(worst, abs(achieved - snr))
    ok = worst <= 0.01
    line(9, "snr mixer accuracy", ok, f"worst deviation {worst:.2e} dB over 50x8 mixes")
    assert ok


def test_c10_metric_oracles():
    # worked examples, exactly
    w = weighted_f1(np.array([0, 0, 1, 1]), np.array([0, 0, 1, 0]), 2)
    assert round(w, 4) == 0.7333 and abs(w - 11 / 15) < 1e-12
    r = rmse([1.0, 7.0], [2.0, 5.0])
    assert round(r, 4) == 1.5811 and abs(r - np.sqrt(2.5)) < 1e-12

    checked = 0

    def check(y_true, y_pred, n_classes):
        nonlocal checked
        yt, yp = np.array(y_true), np.array(y_pred)
        assert binary_f1(yt, yp) == pytest.approx(
            tally_binary_f1(y_true, y_pred), abs=1e-12)
        assert weighted_f1(yt, yp, n_classes) == pytest.approx(
            tally_weighted_f1(y_true, y_pred, n_classes), abs=1e-12)
        counts, _ = confusion_matrix(yt, yp, n_classes)
        assert counts.tolist() == tally_confusion(y_true, y_pred, n_classes)
        checked += 1

    # exhaustive 2-class pairs through length 6
    for length in range(1, 7):
        for y_true in itertools.product(range(2), repeat=length):
            for y_pred in itertools.product(range(2), repeat=length):
                check(list(y_true), list(y_pred), 2)

    # 4-class: exhaustive through length 4, dense random sample at 5 and 6
    # (full enumeration at length 6 is 16.7M pairs; see the note in the tests)
    for length in range(1, 5):
        for y_true in itertools.product(range(4), repeat=length):
            for y_pred in itertools.product(range(4), repeat=length):
                check(list(y_true), list(y_pred), 4)
    rng = np.random.default_rng(110)
    for length in (5, 6):
        for _ in range(5000):
            check(rng.integers(0, 4, length).tolist(),
                  rng.integers(0, 4, length).tolist(), 4)

    # 1000 random longer vectors, plus RMSE agreement
    for _ in range(1000):
        length = int(rng.integers(7, 50))
        check(rng.integers(0, 4, length).tolist(),
              rng.integers(0, 4, length).tolist(), 4)
        actual = rng.uniform(1, 7, length)
        predicted = rng.uniform(1, 7, length)
        assert rmse(actual, predicted) == pytest.approx(
            tally_rmse(actual.tolist(), predicted.tolist()), abs=1e-12)

    line(10, "metric oracles", True,
         f"{checked} label-vector pairs vs brute-force tallies, examples exact")


def test_c11_corpus_pipeline():
    started = time.time()
    # spammer predicate boundary
    assert filter_spammers([rating(dummy_score=1)]) != []
    assert filter_spammers([rating(dummy_score=2)]) == []
    # exactly-10 aggregation, mean in range
    rng = np.random.default_rng(111)
    for trial in range(200):
        ratings = rng.integers(1, 8, size=int(rng.integers(10, 25))).tolist()
        label = aggregate_intensity(ratings, seed=trial)
        assert len(label.contributing_ratings) == 10
        assert 1.0 <= label.mean_score <= 7.0
    with pytest.raises(InsufficientRatingsError):
        aggregate_intensity([4] * 9, seed=0)
    # tie votes resolve to hl
    for h in range(6):
        for l in range(6 - h):
            hl = 5 - h - l
            top = max(h, l, hl)
            if [h, l, hl].count(top) > 1:
                assert classify_sentence_votes(SentenceVote(1, h, l, hl)) == "hl"
    # 2500 -> 125 x 21 partition
    items = [f"item{i}" for i in range(2500)]
    subsets = make_rating_subsets(items, seed=11)
    assert len(subsets) == 125
    assert all(len(s.task_order()) == 21 for s in subsets)
    seen = sorted(i for s in subsets for i in s.item_ids)
    assert seen == sorted(items)
    elapsed = time.time() - started
    ok = elapsed < 10
    line(11, "corpus pipeline", ok, f"properties hold, {elapsed:.1f}s")
    assert ok


def test_c12_suite_determinism(tmp_path):
    started = time.time()
    examples = synth_binary_examples(24, 4, seed=112)
    cfg = ExperimentConfig(task="binary", archs=("cnn",), features=("mel_spectrogram",),
                           snrs_db=(CLEAN, 0.0), epochs=2, batch_size=12,
                           learning_rate=1e-3, dtype="float64", n_folds=2, seed=112,
                           noise="pink:13:2.0")

    def run(tag):
        out = tmp_path / tag
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = run_suite(cfg, out, examples=examples)
        assert result.exit_code == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    first = run("first")
    second = run("second")
    identical = first.keys() == second.keys() and all(
        first[k] == second[k] for k in first)
    elapsed = time.time() - started
    line(12, "suite determinism", identical,
         f"{len(first)} artifacts byte-identical across reruns, {elapsed:.0f}s")
    assert identical
    # spot-check that numbers really are present
    report = json.loads(first["cnn__mel_spectrogram.json"].decode())
    assert report["snr_means"]
