"""End-to-end CLI coverage: every subcommand against a tiny synthetic corpus."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from shoutkit.cli import main
from shoutkit.corpus import (RatingRecord, make_rating_subsets, write_ratings_csv,
                             write_subsets_csv)
from shoutkit.audio_io import SAMPLE_RATE, AudioClip, load_wav, pink_noise, write_wav
from shoutkit.experiments import MetricsReport, prepare_clip
from shoutkit.features import (FeatureKind, FeatureStats, assemble_blocks, feature_matrix,
                               load_blocks)
from shoutkit.models import build_single_model, save_model
from shoutkit.neural import save_checkpoint


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    code = main(["synth", "--task", "binary", "--clips", "24", "--speakers", "4",
                 "--seed", "3", "--output", str(root)])
    assert code == 0
    return root


def test_synth_writes_manifest_and_noise(corpus_dir):
    assert (corpus_dir / "manifest.csv").exists()
    assert (corpus_dir / "noise.wav").exists()
    assert len(list((corpus_dir / "wav").glob("*.wav"))) == 24


def test_corpus_validate(corpus_dir, capsys):
    assert main(["corpus", "validate", str(corpus_dir / "manifest.csv")]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["records"] == 24


def test_extract_and_csv(corpus_dir, tmp_path):
    wav = next((corpus_dir / "wav").glob("*.wav"))
    out = tmp_path / "blocks.fbk"
    csv_path = tmp_path / "blocks.csv"
    code = main(["extract", str(wav), str(out), "--kind", "mel_spectrogram",
                 "--csv", str(csv_path)])
    assert code == 0
    kind, blocks = load_blocks(out)
    assert kind is FeatureKind.MEL_SPECTROGRAM
    assert len(blocks) and blocks.shape[1:] == (30, 20)
    assert csv_path.exists()


def test_extract_ingests_a_clip_as_training_does(tmp_path):
    # a quarter-peak clip: training peak-normalizes it before framing
    rng = np.random.default_rng(4)
    samples = rng.uniform(-1.0, 1.0, 16000)
    wav = tmp_path / "quiet.wav"
    write_wav(AudioClip(0.25 * samples / np.abs(samples).max(), 16000, "quiet"), wav)
    out = tmp_path / "o.fbk"
    assert main(["extract", str(wav), str(out), "--kind", "spectrogram"]) == 0
    expected = assemble_blocks(prepare_clip(load_wav(wav)), FeatureKind.SPECTROGRAM)
    assert np.array_equal(load_blocks(out)[1], expected.astype(np.float32))


def test_extract_refuses_a_silent_clip_as_training_does(tmp_path, capsys):
    wav = tmp_path / "silent.wav"
    write_wav(AudioClip(np.zeros(16000), 16000, "silent"), wav)
    out = tmp_path / "o.fbk"
    assert main(["extract", str(wav), str(out), "--kind", "tmfcc"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and err.count("\n") == 1
    assert not out.exists()


def test_mix_subcommand(corpus_dir, tmp_path):
    wav = next((corpus_dir / "wav").glob("*.wav"))
    out = tmp_path / "mixed.wav"
    code = main(["mix", str(wav), str(out), "--noise", str(corpus_dir / "noise.wav"),
                 "--snr", "0", "--seed", "5"])
    assert code == 0
    assert out.exists()
    clean = tmp_path / "clean.wav"
    assert main(["mix", str(wav), str(clean), "--snr", "clean"]) == 0


def test_mix_refuses_an_overflowing_gain_in_one_line(corpus_dir, tmp_path, capsys,
                                                     monkeypatch):
    # a 16-bit WAV cannot hold noise quiet enough to overflow the gain, so the
    # noise file reads as 1e-12-RMS noise here
    wav = next((corpus_dir / "wav").glob("*.wav"))
    quiet = AudioClip(1e-12 * np.resize([1.0, -1.0], 40000), SAMPLE_RATE, "quiet")
    monkeypatch.setattr("shoutkit.cli.audio_io.load_wav",
                        lambda path: quiet if Path(path).name == "noise.wav" else load_wav(path))
    out = tmp_path / "mixed.wav"
    code = main(["mix", str(wav), str(out), "--noise", str(corpus_dir / "noise.wav"),
                 "--snr", "-6000"])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("numeric failure: noise gain overflows") and err.count("\n") == 1
    assert not out.exists()


def test_folds_subcommand(corpus_dir, capsys):
    code = main(["folds", str(corpus_dir / "manifest.csv"), "--seed", "1",
                 "--n-folds", "2"])
    assert code == 0
    plan = json.loads(capsys.readouterr().out)
    assert len(plan["folds"]) == 2


def test_folds_prints_the_plan_the_suite_records(corpus_dir, tmp_path, capsys):
    assert main(["folds", str(corpus_dir / "manifest.csv"), "--seed", "7",
                 "--n-folds", "2"]) == 0
    printed = json.loads(capsys.readouterr().out)
    settings = ["seed=7", "n_folds=2", "archs=cnn", "features=tmfcc", "epochs=1",
                "batch_size=16", "snrs_db=clean", f"manifest={corpus_dir / 'manifest.csv'}"]
    assert main(["suite", *[a for s in settings for a in ("--set", s)],
                 "--output", str(tmp_path / "suite")]) == 0
    meta = json.loads((tmp_path / "suite" / "suite_meta.json").read_text())
    assert printed["folds"] == meta["folds"]


def test_synth_with_zero_noise_seconds_writes_no_noise(tmp_path):
    out = tmp_path / "corpus"
    assert main(["synth", "--clips", "4", "--speakers", "2", "--noise-seconds", "0",
                 "--output", str(out)]) == 0
    assert (out / "manifest.csv").exists() and not (out / "noise.wav").exists()


def test_train_evaluate_cycle(corpus_dir, tmp_path):
    settings = [
        "task=binary", "archs=cnn", "features=mel_spectrogram",
        "epochs=3", "batch_size=16", "learning_rate=0.001", "dtype=float32",
        "n_folds=2", "snrs_db=clean",
        f"manifest={corpus_dir / 'manifest.csv'}",
        f"audio_root={corpus_dir}",
    ]
    args = []
    for s in settings:
        args.extend(["--set", s])
    out = tmp_path / "run"
    code = main(["train", *args, "--fold", "0", "--output", str(out), "--name", "m"])
    assert code == 0
    descriptor = out / "m.descriptor"
    assert descriptor.exists()
    assert (out / "m.ckpt").exists()
    assert (out / "m.best.ckpt").exists()   # best-validation parameters kept alongside
    assert (out / "m.training.json").exists()
    result = tmp_path / "eval.json"
    code = main(["evaluate", *args, "--fold", "0", "--model", str(descriptor),
                 "--output", str(result)])
    assert code == 0
    payload = json.loads(result.read_text())
    assert "clean" in payload["metrics"]


def test_evaluate_finds_the_stats_of_a_name_ending_in_descriptor(corpus_dir, tmp_path):
    out, kind = tmp_path / "run", FeatureKind.MEL_SPECTROGRAM
    model = build_single_model("cnn", kind, "binary", seed=0, dtype=np.float32, width_scale=8)
    descriptor = save_model(model, out, "m.descriptor")
    FeatureStats(mean=np.zeros(kind.dim), std=np.ones(kind.dim)).save(
        out / f"m.descriptor.stats.{kind.value}.json", kind)
    settings = ["n_folds=2", "snrs_db=clean", f"manifest={corpus_dir / 'manifest.csv'}",
                f"audio_root={corpus_dir}"]
    result = tmp_path / "eval.json"
    assert main(["evaluate", *[a for s in settings for a in ("--set", s)], "--fold", "0",
                 "--model", str(descriptor), "--output", str(result)]) == 0
    assert "clean" in json.loads(result.read_text())["metrics"]


def test_evaluate_refuses_a_checkpoint_holding_nan(corpus_dir, tmp_path, capsys):
    # with the stats and the corpus in place, a NaN weight is all that is wrong
    out, kind = tmp_path / "run", FeatureKind.MEL_SPECTROGRAM
    model = build_single_model("cnn", kind, "binary", seed=0, dtype=np.float32, width_scale=8)
    descriptor = save_model(model, out, "m")
    state = model.state_dict()
    name = min(state)
    state[name].flat[0] = np.nan
    save_checkpoint(state, out / "m.ckpt")
    FeatureStats(mean=np.zeros(kind.dim), std=np.ones(kind.dim)).save(
        out / f"m.stats.{kind.value}.json", kind)
    settings = ["n_folds=2", "snrs_db=clean", f"manifest={corpus_dir / 'manifest.csv'}",
                f"audio_root={corpus_dir}"]
    result = tmp_path / "eval.json"
    assert main(["evaluate", *[a for s in settings for a in ("--set", s)], "--fold", "0",
                 "--model", str(descriptor), "--output", str(result)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and err.count("\n") == 1
    assert f"tensor {name!r} holds a non-finite value" in err
    assert not result.exists()


def test_non_standard_split_adds_no_stderr_line(corpus_dir, tmp_path):
    # a subprocess, because pytest captures warnings that the command line would print
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parent.parent / "src"),
                    env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-m", "shoutkit.cli", "train", "--set", "n_folds=2",
         "--set", f"manifest={corpus_dir / 'manifest.csv'}", "--set", f"audio_root={corpus_dir}",
         "--fold", "5", "--output", str(tmp_path / "run")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 2
    assert result.stderr.startswith("config error:") and result.stderr.count("\n") == 1


def test_suite_and_report(corpus_dir, tmp_path):
    config = tmp_path / "suite.cfg"
    config.write_text("\n".join([
        "task = binary",
        "archs = cnn",
        "features = mel_spectrogram",
        "epochs = 3",
        "batch_size = 16",
        "learning_rate = 0.001",
        "dtype = float32",
        "n_folds = 2",
        "snrs_db = clean, 0",
        f"manifest = {corpus_dir / 'manifest.csv'}",
        f"audio_root = {corpus_dir}",
        f"noise = {corpus_dir / 'noise.wav'}",
    ]) + "\n")
    out = tmp_path / "suite_out"
    code = main(["suite", "--config", str(config), "--output", str(out)])
    assert code == 0
    assert (out / "aggregate.csv").exists()
    plots = tmp_path / "plots"
    assert main(["report", str(out), "--output", str(plots)]) == 0


def test_train_augmenting_without_noise_is_config_error(corpus_dir, tmp_path, capsys):
    settings = ["archs=cnn", "features=mel_spectrogram", "epochs=1", "batch_size=16",
                "dtype=float32", "n_folds=2", "train_snr_augment=true",
                f"manifest={corpus_dir / 'manifest.csv'}", f"audio_root={corpus_dir}"]
    out = tmp_path / "run"
    assert main(["train", *[a for s in settings for a in ("--set", s)], "--fold", "0",
                 "--output", str(out), "--name", "m"]) == 2
    err = capsys.readouterr().err
    assert err == "config error: SNR 20 requested but no noise source configured\n"
    assert not (out / "m.descriptor").exists()


@pytest.mark.parametrize("noise_seconds, code, line", [
    (None, 2, "config error: SNR 20 requested but no noise source configured"),
    (0.5, 3, "data error: noise must be at least as long as the speech clip"),
], ids=["no_noise", "short_noise"])
def test_suite_refuses_an_unmixable_sweep_before_writing(corpus_dir, tmp_path, capsys,
                                                          noise_seconds, code, line):
    settings = ["archs=cnn", "features=mel_spectrogram", "epochs=1", "batch_size=16",
                "dtype=float32", "n_folds=2", f"manifest={corpus_dir / 'manifest.csv'}",
                f"audio_root={corpus_dir}"]
    if noise_seconds is not None:
        noise = tmp_path / "noise.wav"
        write_wav(pink_noise(int(noise_seconds * SAMPLE_RATE), SAMPLE_RATE, seed=1), noise)
        settings.append(f"noise={noise}")
    out = tmp_path / "suite_out"
    assert main(["suite", *[a for s in settings for a in ("--set", s)],
                 "--output", str(out)]) == code
    assert capsys.readouterr().err == line + "\n"
    assert not out.exists()


def test_report_on_a_train_output_is_data_error(corpus_dir, tmp_path, capsys):
    settings = ["archs=cnn", "features=mel_spectrogram", "epochs=1", "batch_size=16",
                "dtype=float32", "n_folds=2", f"manifest={corpus_dir / 'manifest.csv'}",
                f"audio_root={corpus_dir}"]
    run = tmp_path / "run"
    args = [a for s in settings for a in ("--set", s)]
    assert main(["train", *args, "--output", str(run), "--name", "m"]) == 0
    capsys.readouterr()
    plots = tmp_path / "plots"
    # a train run's stats and training logs are JSON, but not cell reports
    assert main(["report", str(run), "--output", str(plots)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and err.count("\n") == 1
    assert "m.stats.mel_spectrogram.json" in err
    assert not plots.exists()


@pytest.mark.parametrize("stray", [b"[1, 2]", b"{not json", b"\xff\xfe\x00",
                                   b'{"schema": "shoutkit.report.v1"}'],
                         ids=["json-list", "not-json", "not-text", "report-missing-keys"])
def test_report_with_a_stray_json_writes_no_csv(tmp_path, capsys, stray):
    suite_dir = tmp_path / "suite"
    suite_dir.mkdir()
    # sorts first and would export a confusion CSV
    report = MetricsReport(task="four_class", arch="cnn", features="tmfcc",
                           numeric_mode="float32", seed=1,
                           confusions={"fold0/clean": [[1, 0], [0, 1]]})
    (suite_dir / "a_cell.json").write_text(json.dumps(report.to_dict()))
    (suite_dir / "z_stray.json").write_bytes(stray)
    plots = tmp_path / "plots"
    assert main(["report", str(suite_dir), "--output", str(plots)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and err.count("\n") == 1
    assert "z_stray.json" in err
    assert not plots.exists()


def test_corpus_aggregate_and_summarize(tmp_path):
    items = [f"item{i}" for i in range(20)]
    subsets = make_rating_subsets(items, seed=2)
    rng = np.random.default_rng(0)
    ratings = []
    for w in range(12):
        scores = list(rng.integers(3, 8, size=21))
        scores[subsets[0].dummy_position] = 1
        ratings.append(RatingRecord(worker_id=f"w{w}", subset_id=1,
                                    scores=tuple(int(s) for s in scores),
                                    dummy_index=subsets[0].dummy_position))
    ratings_csv = tmp_path / "ratings.csv"
    subsets_csv = tmp_path / "subsets.csv"
    write_ratings_csv(ratings, ratings_csv)
    write_subsets_csv(subsets, subsets_csv)
    out = tmp_path / "intensity.csv"
    code = main(["corpus", "aggregate", "--ratings", str(ratings_csv),
                 "--subsets", str(subsets_csv), "--seed", "4", "--output", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 21  # header + 20 items

    manifest = tmp_path / "manifest.csv"
    manifest.write_text(
        "path,speaker,sex,sentence_id,style,class,intensity\n"
        "a.wav,f1,f,35,shout,shout_h,4.0\n"
        "b.wav,f1,f,12,shout,shout_l,2.5\n")
    summary = tmp_path / "summary.csv"
    assert main(["corpus", "summarize", str(manifest), "--output", str(summary)]) == 0
    assert "speaker,f1" in summary.read_text()


def test_exit_codes(tmp_path):
    # config error
    assert main(["suite", "--set", "epochs=zero", "--output", str(tmp_path / "x")]) == 2
    # data error: malformed manifest
    bad = tmp_path / "bad.csv"
    bad.write_text("nope\n")
    assert main(["corpus", "validate", str(bad)]) == 3
    # config error: unknown feature kind
    wav = tmp_path / "t.wav"
    write_wav(AudioClip(np.zeros(2000) + 0.1, 16000, "t"), wav)
    assert main(["extract", str(wav), str(tmp_path / "o.fbk"), "--kind", "mystery"]) == 2


@pytest.mark.parametrize("argv", [
    ["extract", "{missing}.wav", "{tmp}/o.fbk", "--kind", "tmfcc"],
    ["extract", "{wav}", "{tmp}/o.fbk", "--kind", "tmfcc", "--stats", "{missing}.json"],
    ["evaluate", "--model", "{missing}.descriptor"],
], ids=["extract-input", "extract-stats", "evaluate-model"])
def test_missing_file_is_data_error(corpus_dir, tmp_path, capsys, argv):
    wav = next((corpus_dir / "wav").glob("*.wav"))
    fill = dict(missing=tmp_path / "missing", tmp=tmp_path, wav=wav)
    assert main([a.format(**fill) for a in argv]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and err.count("\n") == 1


SUBSETS_HEADER = "subset_id,item_index,item_id,is_dummy\n"
RATED_SUBSET = make_rating_subsets([f"item{i}" for i in range(20)], seed=2)[0]


def ratings_text(subset_id=1, dummy=RATED_SUBSET.dummy_position, score=4):
    """One worker's task: each item scores ``score`` and the dummy scores 1, so
    the spammer filter keeps it. Slot 0, on row 2, is an item."""
    return "worker_id,subset_id,item_index,score,is_dummy\n" + "".join(
        f"w0,{subset_id},{slot},{1 if slot == dummy else score},{int(slot == dummy)}\n"
        for slot in range(21))


@pytest.mark.parametrize("case", [
    ("subsets", SUBSETS_HEADER + "x,0,a,0\n", "row 2"),
    ("subsets", SUBSETS_HEADER + "1,0\n", "row 2"),
    ("ratings", ratings_text(score=9), "row 2: score 9 is outside the 1..7 scale"),
    ("ratings", ratings_text(score=0), "row 2: score 0 is outside the 1..7 scale"),
    ("ratings", ratings_text(subset_id=7), "unknown subset 7"),
    ("ratings", ratings_text(dummy=(RATED_SUBSET.dummy_position + 1) % 21),
     "dummy position disagrees with the subset definition"),
    ("stats", "{not json", "stats"),
    ("stats", '{"std": [1.0]}', "stats"),
    ("stats", json.dumps({"mean": [0.0] * 30, "std": [1.0] * 29}), "stats"),
], ids=["subsets-not-an-int", "subsets-short-row", "ratings-score-9", "ratings-score-0",
        "ratings-unknown-subset", "ratings-dummy-mismatch", "stats-bad-json",
        "stats-no-mean", "stats-lengths-differ"])
def test_malformed_file_is_data_error(corpus_dir, tmp_path, capsys, case):
    what, text, mentioned = case
    bad = tmp_path / f"bad.{what}"
    bad.write_text(text)
    if what == "stats":
        wav = next((corpus_dir / "wav").glob("*.wav"))
        argv = ["extract", str(wav), str(tmp_path / "o.fbk"), "--kind", "tmfcc",
                "--stats", str(bad)]
    else:
        # the other file of the pair is well formed
        files = {"ratings": tmp_path / "ratings.csv", "subsets": tmp_path / "subsets.csv"}
        files["ratings"].write_text(ratings_text())
        write_subsets_csv([RATED_SUBSET], files["subsets"])
        files[what] = bad
        argv = ["corpus", "aggregate", "--ratings", str(files["ratings"]),
                "--subsets", str(files["subsets"]), "--output", str(tmp_path / "out.csv")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and err.count("\n") == 1
    assert mentioned in err


def test_stats_of_another_kind_is_data_error(corpus_dir, tmp_path, capsys):
    wav = next((corpus_dir / "wav").glob("*.wav"))
    stats = tmp_path / "spectrogram.json"
    FeatureStats.fit([feature_matrix(load_wav(wav), FeatureKind.SPECTROGRAM)]).save(
        stats, FeatureKind.SPECTROGRAM)
    out = tmp_path / "o.fbk"
    assert main(["extract", str(wav), str(out), "--kind", "tmfcc",
                 "--stats", str(stats)]) == 3
    assert capsys.readouterr().err.startswith("data error:")
    assert not out.exists()


@pytest.mark.parametrize("case", [
    ("extract", FeatureKind.MEL_SPECTROGRAM, "fitted on mel_spectrogram, not tmfcc"),
    ("extract", None, "fitted on an unrecorded kind, not tmfcc"),
    ("evaluate", FeatureKind.MEL_SPECTROGRAM, "fitted on mel_spectrogram, not tmfcc"),
    *(("extract", FeatureKind.TMFCC, "must be finite, and std above 0", bad)
      for bad in (0.0, -1.0, float("nan"))),
], ids=["extract-same-width-kind", "extract-kind-less", "evaluate-swapped-stats",
        "extract-zero-std", "extract-negative-std", "extract-nan-std"])
def test_stats_file_of_another_or_no_kind_is_data_error(corpus_dir, tmp_path, capsys, case):
    # mel_spectrogram and tmfcc are both 30-d, so only the recorded kind tells them apart;
    # a fourth entry is a std value that no fitted file holds
    command, saved_kind, mentioned, *bad_std = case
    wav = next((corpus_dir / "wav").glob("*.wav"))
    stats_path = tmp_path / "m.stats.tmfcc.json"
    stats = FeatureStats.fit([feature_matrix(load_wav(wav), saved_kind or FeatureKind.TMFCC)])
    if bad_std:
        stats.std[0] = bad_std[0]
    if saved_kind is None:
        # the format before stats files recorded their kind
        stats_path.write_text(json.dumps({"mean": stats.mean.tolist(),
                                          "std": stats.std.tolist()}))
    else:
        stats.save(stats_path, saved_kind)
    out = tmp_path / "o.fbk"
    if command == "extract":
        argv = ["extract", str(wav), str(out), "--kind", "tmfcc", "--stats", str(stats_path)]
    else:
        # refused before the corpus is read, so no manifest is needed
        model = build_single_model("cnn", FeatureKind.TMFCC, "binary", seed=0, width_scale=4)
        argv = ["evaluate", "--model", str(save_model(model, tmp_path, "m")),
                "--output", str(out)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and err.count("\n") == 1
    assert mentioned in err
    assert not out.exists()


def test_evaluate_without_manifest_is_config_error(corpus_dir, tmp_path, capsys):
    wav = next((corpus_dir / "wav").glob("*.wav"))
    model = build_single_model("cnn", FeatureKind.TMFCC, "binary", seed=0, width_scale=4)
    descriptor = save_model(model, tmp_path, "m")
    FeatureStats.fit([feature_matrix(load_wav(wav), FeatureKind.TMFCC)]).save(
        tmp_path / "m.stats.tmfcc.json", FeatureKind.TMFCC)
    out = tmp_path / "eval.json"
    assert main(["evaluate", "--model", str(descriptor), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "no manifest" in err
    assert not out.exists()


def test_model_head_of_another_task_is_config_error(corpus_dir, tmp_path, capsys):
    wav = next((corpus_dir / "wav").glob("*.wav"))
    model = build_single_model("cnn", FeatureKind.TMFCC, "binary", seed=0, width_scale=4)
    descriptor = save_model(model, tmp_path, "m")
    FeatureStats.fit([feature_matrix(load_wav(wav), FeatureKind.TMFCC)]).save(
        tmp_path / "m.stats.tmfcc.json", FeatureKind.TMFCC)
    settings = ["task=four_class", "n_folds=2", "snrs_db=clean",
                f"manifest={corpus_dir / 'manifest.csv'}", f"audio_root={corpus_dir}"]
    args = [a for s in settings for a in ("--set", s)]
    assert main(["evaluate", *args, "--fold", "0", "--model", str(descriptor)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


@pytest.mark.parametrize("case", [
    ("snr", "nan", "'nan'"),
    ("snr", "-inf", "'-inf'"),
    ("snr", "abc", "'abc'"),
    ("width_scale", "0", "width_scale"),
    ("width_scale", "-2", "width_scale"),
    ("dtype", "int8", "'int8'"),
    ("dtype", "float16", "'float16'"),
    ("checkpoint", None, "'checkpoint'"),
    ("features", "tmfcc+mel_spectrogram+tmfcc", "'tmfcc+mel_spectrogram+tmfcc'"),
    ("arch", "mlp_baseline_standin", "mfcc_delta_delta"),
    # a spaced negative non-number still reaches parse_snr, which names it
    ("argv", ["mix", "{wav}", "{out}", "--snr", "-inf"], "'-inf'"),
    ("argv", ["mix", "{wav}", "{out}", "--snr", "-infinity"], "'-infinity'"),
    ("argv", ["mix", "{wav}", "{out}", "--snr", "-nan"], "'-nan'"),
    ("argv", ["mix", "{wav}", "{out}", "--snr", "-INF"], "'-inf'"),
    # an SNR whose noise gain would overflow a float
    ("argv", ["mix", "{wav}", "{out}", "--noise", "{wav}", "--snr", "-7000"], "'-7000'"),
    ("argv", ["train", "--set", "snrs_db=-7000", "--output", "{out}"], "'-7000'"),
    ("argv", ["train"], "--output"),
    # refused before the corpus is read, so no manifest is needed
    ("argv", ["train", "--set", "features=tmfcc+tmfcc", "--output", "{out}"], "'tmfcc+tmfcc'"),
    ("argv", ["train", "--set", "features=spectrogram+mel_spectrogram", "--output", "{out}"],
     "cannot fuse"),
    ("argv", ["train", "--set", "archs=mlp_baseline_standin",
              "--set", "features=mfcc_delta_delta+tmfcc", "--output", "{out}"], "got tmfcc"),
    # an unknown feature kind is a config error wherever it is named
    ("argv", ["extract", "{wav}", "{out}", "--kind", "mystery"], "'mystery'"),
    ("argv", ["train", "--set", "features=spectrogram+foo", "--output", "{out}"], "'foo'"),
    ("argv", ["suite", "--set", "workers=2", "--output", "{out}"], "'workers'"),
    # config values no build can use are refused before any work
    ("argv", ["train", "--set", "width_scale=0", "--output", "{out}"], "width_scale"),
    ("argv", ["train", "--set", "width_scale=-2", "--output", "{out}"], "width_scale"),
    ("argv", ["train", "--set", "pretrain_epochs=-1", "--output", "{out}"], "pretrain_epochs"),
    ("argv", ["train", "--set", "finetune_epochs=-1", "--output", "{out}"], "finetune_epochs"),
    ("argv", ["train", "--set", "early_stop_patience=-1", "--output", "{out}"],
     "early_stop_patience"),
    ("argv", ["train", "--set", "validation_fraction=2", "--output", "{out}"],
     "validation_fraction"),
    ("argv", ["train", "--set", "validation_fraction=0", "--output", "{out}"],
     "validation_fraction"),
    ("argv", ["train", "--set", "validation_fraction=1", "--output", "{out}"],
     "validation_fraction"),
    # a pink noise spec too short or not finite is refused before the corpus is read
    *(("argv", ["train", "--set", f"noise=pink:1:{seconds}", "--output", "{out}"],
       "pink noise spec") for seconds in ("nan", "inf", "0", "-3")),
    # the paper's fixed recipe is no config key
    *(("argv", ["train", "--set", f"{key}=0.5", "--output", "{out}"],
       f"unknown config key '{key}'") for key in ("beta1", "beta2", "epsilon")),
    # no manifest is a config error, and suite creates no output before it
    ("argv", ["train", "--output", "{out}"], "no manifest"),
    ("argv", ["suite", "--output", "{out}"], "no manifest"),
    ("argv", ["folds", "{manifest}", "--n-folds", "0"], "n_folds"),
    ("argv", ["folds", "{manifest}", "--n-folds", "-1"], "n_folds"),
    # synth refuses before it writes any file
    *(("argv", ["synth", *flags, "--output", "{out}"], mentioned) for flags, mentioned in (
        (["--speakers", "0"], "speakers must be positive"),
        (["--task", "regression", "--speakers", "0"], "speakers must be positive"),
        (["--clips", "0"], "clips and speakers must be positive"),
        (["--task", "four_class", "--clips", "-8", "--speakers", "2"], "must be positive"),
        *((["--clips", "4", "--speakers", "2", "--noise-seconds", seconds], mentioned)
          for seconds, mentioned in (("inf", "must be finite"), ("nan", "must be finite"),
                                     ("-1", "at least 2 samples"),
                                     ("0.0001", "at least 2 samples"),
                                     ("1e300", "at most 600"))))),
    # a negative seed is refused wherever a seed enters
    ("argv", ["train", "--set", "seed=-1", "--output", "{out}"], "seed must not be negative"),
    ("argv", ["train", "--set", "noise=pink:-1:2", "--output", "{out}"],
     "seed must not be negative"),
    *(("argv", argv, "seed must be an integer >= 0, got '-1'") for argv in (
        ["folds", "{manifest}", "--seed", "-1"],
        ["mix", "{wav}", "{out}", "--noise", "{wav}", "--snr", "0", "--seed", "-1"],
        ["synth", "--seed", "-1", "--output", "{out}"],
        ["corpus", "aggregate", "--ratings", "{manifest}", "--subsets", "{manifest}",
         "--seed", "-1", "--output", "{out}"])),
    # a learning rate that cannot train
    *(("argv", ["train", "--set", f"learning_rate={rate}", "--output", "{out}"],
       "learning_rate must be finite and above 0") for rate in ("nan", "inf", "0", "-1")),
    # a list key that names an entry twice (SNRs compare by label)
    ("argv", ["suite", "--set", "archs=cnn,cnn", "--output", "{out}"], "archs names cnn"),
    ("argv", ["suite", "--set", "snrs_db=0,0.0,clean", "--output", "{out}"],
     "snrs_db names 0 more"),
    ("argv", ["train", "--set", "snrs_db=clean,inf", "--output", "{out}"],
     "snrs_db names clean more"),
    ("argv", ["train", "--set", "features=tmfcc,tmfcc", "--output", "{out}"],
     "features names tmfcc more"),
], ids=["snr-nan", "snr-minus-inf", "snr-not-a-number", "width-scale-zero",
        "width-scale-negative", "dtype-int8", "dtype-float16", "descriptor-no-checkpoint",
        "descriptor-three-kinds", "descriptor-mlp-on-tmfcc",
        "usage-snr-spaced-minus-inf", "usage-snr-spaced-minus-infinity",
        "usage-snr-spaced-minus-nan", "usage-snr-spaced-minus-inf-upper",
        "mix-snr-gain-overflow", "train-snr-gain-overflow",
        "usage-train-without-output", "train-duplicate-feature-kind",
        "train-high-low-fusion", "train-mlp-fusion", "extract-unknown-kind",
        "train-unknown-kind", "suite-workers-key", "train-width-scale-zero",
        "train-width-scale-negative", "train-pretrain-epochs-negative",
        "train-finetune-epochs-negative", "train-early-stop-patience-negative",
        "train-validation-fraction-two", "train-validation-fraction-zero",
        "train-validation-fraction-one", "train-pink-nan-seconds", "train-pink-inf-seconds",
        "train-pink-zero-seconds", "train-pink-negative-seconds", "train-beta1-key",
        "train-beta2-key", "train-epsilon-key", "train-no-manifest", "suite-no-manifest",
        "folds-zero", "folds-negative", "synth-no-speakers", "synth-regression-no-speakers",
        "synth-no-clips", "synth-four-class-negative-clips", "synth-noise-inf",
        "synth-noise-nan", "synth-noise-negative", "synth-noise-under-two-samples",
        "synth-noise-above-cap", "train-seed-negative", "train-pink-seed-negative",
        "folds-seed-negative", "mix-seed-negative", "synth-seed-negative",
        "corpus-aggregate-seed-negative", "train-learning-rate-nan", "train-learning-rate-inf",
        "train-learning-rate-zero", "train-learning-rate-negative", "suite-repeated-arch",
        "suite-repeated-snr", "train-repeated-clean-snr", "train-repeated-features"])
def test_bad_snr_or_descriptor_field_is_config_error(corpus_dir, tmp_path, capsys, case):
    key, value, mentioned = case
    out = tmp_path / "mixed.wav"
    wav = next((corpus_dir / "wav").glob("*.wav"))
    if key == "argv":
        # an argparse usage error is one config-error line too, not usage text
        argv = [a.format(wav=wav, out=out, manifest=corpus_dir / "manifest.csv")
                for a in value]
    elif key == "snr":
        argv = ["mix", str(wav), str(out), f"--snr={value}"]
    else:
        # replace the descriptor's `key` line with `value`, or drop it for None
        model = build_single_model("cnn", FeatureKind.TMFCC, "binary", seed=0, width_scale=4)
        descriptor = save_model(model, tmp_path, "m")
        lines = [line for line in descriptor.read_text().splitlines()
                 if not line.startswith(f"{key} =")]
        if value is not None:
            lines.append(f"{key} = {value}")
        descriptor.write_text("\n".join(lines) + "\n")
        argv = ["evaluate", "--model", str(descriptor)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert mentioned in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["--help"], ["train", "--help"]], ids=["top", "subcommand"])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_pink_noise_above_the_cap_in_a_config_is_config_error(tmp_path, capsys):
    config = tmp_path / "c.cfg"
    config.write_text("noise = pink:1:1e300\n")
    out = tmp_path / "run"
    assert main(["train", "--config", str(config), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "at most 600" in err
    assert not out.exists()


# Every file slot of the CLI against a catalogue of malformed inputs. `{bad}`
# is where the input is placed; report reads the cell reports of a directory.
FILE_SLOTS = {
    "extract-input": ("wav", ["extract", "{bad}", "{out}", "--kind", "tmfcc"]),
    "extract-stats": ("text", ["extract", "{wav}", "{out}", "--kind", "tmfcc",
                               "--stats", "{bad}"]),
    "mix-speech": ("wav", ["mix", "{bad}", "{out}", "--noise", "{noise}", "--snr", "0"]),
    "mix-noise": ("wav", ["mix", "{wav}", "{out}", "--noise", "{bad}", "--snr", "0"]),
    "folds": ("text", ["folds", "{bad}", "--output", "{out}"]),
    "train-config": ("text", ["train", "--config", "{bad}", "--output", "{out}"]),
    "train-manifest": ("text", ["train", "--set", "manifest={bad}", "--output", "{out}"]),
    "evaluate-model": ("text", ["evaluate", "--model", "{bad}", "--output", "{out}"]),
    "corpus-validate": ("text", ["corpus", "validate", "{bad}"]),
    "corpus-summarize": ("text", ["corpus", "summarize", "{bad}", "--output", "{out}"]),
    "corpus-aggregate-ratings": ("text", ["corpus", "aggregate", "--ratings", "{bad}",
                                          "--subsets", "{subsets}", "--output", "{out}"]),
    "report": ("text", ["report", "{tmp}/suite", "--output", "{out}"]),
}
MALFORMED = ["empty", "non-utf8", "plain-text", "json-list", "wav-cut-to-60",
             "bare-riff-header", "wav-at-0-hz", "directory", "missing",
             "csv-field-over-the-limit"]
# every malformed file in every slot, and a NUL byte in a path that a file
# names: a manifest's path column, and a config's path value
SLOT_CASES = [(slot, malformed) for slot in FILE_SLOTS for malformed in MALFORMED] + [
    ("train-manifest", "nul-in-a-manifest-path"), ("train-config", "nul-in-a-config-path")]


@pytest.mark.parametrize("slot,malformed", SLOT_CASES,
                         ids=[f"{slot}-{malformed}" for slot, malformed in SLOT_CASES])
def test_malformed_file_in_any_slot_fails_in_one_line(corpus_dir, tmp_path, capsys, slot,
                                                      malformed):
    reads, argv = FILE_SLOTS[slot]
    wav = next((corpus_dir / "wav").glob("*.wav"))
    subsets = tmp_path / "subsets.csv"
    write_subsets_csv(make_rating_subsets([f"item{i}" for i in range(20)], seed=2), subsets)
    (tmp_path / "suite").mkdir()
    bad = tmp_path / ("suite/cell.json" if slot == "report" else "bad")
    riff = wav.read_bytes()
    contents = {"empty": b"", "non-utf8": b"seed = 1  # caf\xe9\n", "plain-text": b"hello\n",
                "json-list": b"[1, 2, 3]", "wav-cut-to-60": riff[:60],
                "bare-riff-header": riff[:44],
                # the sample rate and byte rate fields of the fmt chunk set to 0
                "wav-at-0-hz": riff[:24] + bytes(8) + riff[32:],
                # the csv module refuses a field over 131072 characters
                "csv-field-over-the-limit": b"a" * 200_000 + b",x\n",
                "nul-in-a-manifest-path":
                    (corpus_dir / "manifest.csv").read_bytes().replace(b"wav/", b"wav/\0"),
                "nul-in-a-config-path": b"manifest = manifest\0.csv\n"}
    if malformed == "directory":
        bad.mkdir()
    elif malformed != "missing":
        bad.write_bytes(contents[malformed])
    out = tmp_path / "out"
    code = main([a.format(bad=bad, out=out, wav=wav, noise=corpus_dir / "noise.wav",
                          subsets=subsets, tmp=tmp_path) for a in argv])
    err = capsys.readouterr().err
    assert code in (2, 3, 4) and err.count("\n") == 1, (code, err)
    assert not out.exists()
    # the two classes fixed at their source: undecodable text, a short WAV payload
    if reads == "text" and malformed == "non-utf8":
        assert code == 3 and "is not UTF-8 text" in err
    if reads == "wav" and malformed in ("wav-cut-to-60", "bare-riff-header"):
        assert code == 3 and "truncated WAV file" in err
    if malformed.startswith("nul-in-"):
        assert code == 3 and "holds a NUL byte" in err


# a NUL byte in a path that a command writes: every file and output directory
# is written through textio, so each is a data error in one line
TRAIN_SETTINGS = ["archs=cnn", "features=mel_spectrogram", "epochs=1", "dtype=float32",
                  "n_folds=2", "width_scale=4", "manifest={manifest}", "audio_root={corpus}"]
NUL_OUTPUTS = {
    "mix": ["mix", "{wav}", "{nul}", "--snr", "clean"],
    "extract": ["extract", "{wav}", "{nul}", "--kind", "tmfcc"],
    "extract-csv": ["extract", "{wav}", "{out}", "--kind", "tmfcc", "--csv", "{nul}"],
    "synth": ["synth", "--clips", "4", "--speakers", "2", "--noise-seconds", "0",
              "--output", "{nul}"],
    "train": ["train", *(a for s in TRAIN_SETTINGS for a in ("--set", s)), "--output", "{nul}"],
    "report": ["report", "{suite}", "--output", "{nul}"],
    "folds": ["folds", "{manifest}", "--n-folds", "2", "--output", "{nul}"],
}


@pytest.mark.parametrize("command", NUL_OUTPUTS)
def test_a_nul_byte_in_an_output_path_fails_in_one_line(corpus_dir, tmp_path, capsys, command):
    suite_dir = tmp_path / "suite"
    suite_dir.mkdir()
    report = MetricsReport(task="four_class", arch="cnn", features="tmfcc",
                           numeric_mode="float32", seed=1,
                           confusions={"fold0/clean": [[1, 0], [0, 1]]})
    (suite_dir / "cell.json").write_text(json.dumps(report.to_dict()))
    argv = [a.format(wav=next((corpus_dir / "wav").glob("*.wav")), nul=tmp_path / "a\0b",
                     out=tmp_path / "out", suite=suite_dir, corpus=corpus_dir,
                     manifest=corpus_dir / "manifest.csv") for a in NUL_OUTPUTS[command]]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 3 and err.startswith("data error:") and err.count("\n") == 1, (code, err)
    assert "holds a NUL byte" in err
    assert not (tmp_path / "a").exists()
