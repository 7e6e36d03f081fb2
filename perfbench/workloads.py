"""The three workloads: inputs, one timed pass, and the correctness checks.

Each workload builds its inputs only from ``make_classification_corpus`` and
``pink_noise`` at the run's seed, and drives shoutkit only through the public
functions of ``experiments``, ``models``, ``neural``, ``features`` and
``audio_io``. A pass always trains a model and then scores it twice over the
workload's SNR conditions: once per clip and once per 20-frame block.
See README.md beside this file for why each workload exists.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from spans import StepClock, installed

SAMPLE_RATE = 16000
BATCH = 32


@dataclass
class Inputs:
    examples: list
    noise: object
    fold: object
    cfg: object
    data: object = None   # FoldData, when set-up builds it


@dataclass
class PassResult:
    seconds: float
    steps: list                 # StepClock entries: (seconds, batch, loss, warmup)
    epoch_losses: list          # train and validation loss of every epoch
    clip_scores: dict           # SNR label -> metric dict, scored per clip
    clip_call_seconds: list     # one evaluate_model call per SNR
    clips_per_call: int
    block_scores: dict          # SNR label -> metric dict, scored per block
    block_call_seconds: list
    blocks_per_call: int
    model: object = None
    data: object = None


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


@dataclass
class Workload:
    name: str
    arch: str
    features: str
    clips: int
    clip_seconds: tuple
    noise_seconds: float
    n_folds: int
    snrs: tuple
    epochs: int                  # single model, or each fusion branch's pretraining
    finetune_epochs: int
    learning_rate: float
    fold_data_in_setup: bool
    pass_seconds: float          # nominal pass time on a 2-core box; sets passes per run
    graph_prefix: str            # model-table entry whose loss graph this workload trains

    # -- inputs ------------------------------------------------------------------

    def setup(self, sk, seed: int) -> Inputs:
        exp = sk.experiments
        synth = exp.make_classification_corpus(n_clips=self.clips, n_speakers=10, n_classes=2,
                                               seed=seed, clip_seconds=self.clip_seconds)
        examples = [exp.ClipExample(clip_id=s.clip_id, speaker_id=s.speaker_id, clip=s.clip,
                                    label=s.class_index) for s in synth]
        noise = sk.audio_io.pink_noise(int(self.noise_seconds * SAMPLE_RATE), SAMPLE_RATE,
                                       seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)   # 10 speakers is a non-standard split
            plan = exp.plan_folds(sorted({e.speaker_id for e in examples}),
                                  seed=exp.derive_seed(seed, "folds"), n_folds=self.n_folds)
        cfg = exp.ExperimentConfig(
            task="binary", archs=(self.arch,), features=(self.features,), snrs_db=self.snrs,
            epochs=self.epochs, pretrain_epochs=self.epochs,
            finetune_epochs=self.finetune_epochs, batch_size=BATCH,
            learning_rate=self.learning_rate, dtype="float32", n_folds=self.n_folds, seed=seed)
        inputs = Inputs(examples=examples, noise=noise, fold=plan.folds[0], cfg=cfg)
        if self.fold_data_in_setup:
            inputs.data = self._fold_data(sk, inputs)
        return inputs

    def _fold_data(self, sk, inputs: Inputs):
        exp = sk.experiments
        return exp.build_fold_data(inputs.examples, inputs.fold,
                                   exp.parse_feature_set(self.features), inputs.cfg,
                                   noise=inputs.noise)

    # -- the timed pass ------------------------------------------------------------

    def train(self, sk, inputs: Inputs, data):
        """Returns the trained model and the TrainingLog of every stage."""
        exp = sk.experiments
        logs = []
        model = exp.build_cell_model(self.arch, data.kinds, inputs.cfg, data, 0,
                                     raw_logs=logs)
        return model, logs

    def run_pass(self, sk, inputs: Inputs, clock) -> PassResult:
        exp = sk.experiments
        first_step = len(clock.steps)
        start = time.perf_counter()
        data = inputs.data if self.fold_data_in_setup else self._fold_data(sk, inputs)
        model, logs = self.train(sk, inputs, data)
        eval_seed = exp.derive_seed(inputs.cfg.seed, "noise", 0)
        # one evaluate_model call per SNR (noise seeds are per clip and SNR,
        # so the scores are the same as one call over the whole sweep); clip
        # and block calls alternate, so both rates sample the same stretch of time
        scores = {False: {}, True: {}}
        call_seconds = {False: [], True: []}
        for snr in self.snrs:
            for per_block in (False, True):
                t0 = time.perf_counter()
                scores[per_block].update(exp.evaluate_model(
                    model, data.test_examples, data.stats, "binary", (snr,), inputs.noise,
                    seed=eval_seed, per_block=per_block))
                call_seconds[per_block].append(time.perf_counter() - t0)
        seconds = time.perf_counter() - start
        return PassResult(
            seconds=seconds, steps=clock.steps[first_step:],
            epoch_losses=[v for log in logs for e in log.epochs
                          for v in (e["train_loss"], e["val_loss"]) if v is not None],
            clip_scores=scores[False], clip_call_seconds=call_seconds[False],
            clips_per_call=len(data.test_examples),
            block_scores=scores[True], block_call_seconds=call_seconds[True],
            blocks_per_call=sum(block_count(sk, e.clip) for e in data.test_examples),
            model=model, data=data)

    # -- correctness -----------------------------------------------------------------

    def check(self, sk, inputs: Inputs, results: list, reference: dict) -> list[Check]:
        checks = []
        for i, r in enumerate(results):
            losses = [s[2] for s in r.steps] + r.epoch_losses
            checks.append(Check(f"pass{i}.losses_finite",
                                bool(losses) and all(map(math.isfinite, losses)),
                                f"{len(losses)} step and epoch losses"))
        return checks


def block_count(sk, clip) -> int:
    return sk.features.frame_signal(clip).n_frames // sk.features.BLOCK_FRAMES


class CnnFusionCell(Workload):
    """The c07 acceptance cell on one fold with fewer epochs."""

    def check(self, sk, inputs, results, reference):
        checks = super().check(sk, inputs, results, reference)
        floor = reference["cnn_fusion_cell"]["f1_20_floor"]
        for i, r in enumerate(results):
            f1_20 = r.clip_scores["20"]["metric"]
            f1_neg10 = r.clip_scores["-10"]["metric"]
            checks.append(Check(f"pass{i}.f1_20_at_least_f1_neg10", f1_20 >= f1_neg10,
                                f"F1@20dB {f1_20:.3f}, F1@-10dB {f1_neg10:.3f}"))
            checks.append(Check(f"pass{i}.f1_20_floor", f1_20 >= floor,
                                f"F1@20dB {f1_20:.3f} >= {floor}"))
        return checks


class GruTrain(Workload):
    """A spectrogram GRU trained for a fixed number of steps, then scored."""

    def train(self, sk, inputs, data, epochs=None):
        exp = sk.experiments
        seed = inputs.cfg.seed
        model = sk.models.build_single_model("gru", data.kinds[0], "binary",
                                             seed=exp.derive_seed(seed, "model", "gru"),
                                             dtype=np.float32)
        settings = exp.TrainSettings(epochs=epochs or self.epochs, batch_size=BATCH,
                                     learning_rate=self.learning_rate,
                                     shuffle_seed=exp.derive_seed(seed, "shuffle", "gru"))
        log = exp.train_model(model, data, settings)
        return model, [log]

    def check(self, sk, inputs, results, reference):
        """Adds a replay of the first epoch at the reference seed, comparing
        each step's loss with the recorded one."""
        checks = super().check(sk, inputs, results, reference)
        ref = reference["gru_train"]
        replay = self.setup(sk, ref["seed"])
        with installed(StepClock(), sk) as clock:
            self.train(sk, replay, replay.data, epochs=1)
        got = [s[2] for s in clock.steps]
        want = ref["step_losses"]
        rtol = ref["rtol"]
        worst = max((abs(g - w) / abs(w) for g, w in zip(got, want)), default=math.inf)
        ok = len(got) == len(want) and worst <= rtol
        checks.append(Check("step_losses_match_reference", ok,
                            f"{len(got)} steps at seed {ref['seed']}, worst relative "
                            f"difference {worst:.2e} (tolerance {rtol})"))
        return checks


class SnrSweepEval(Workload):
    """A low-dimensional fusion model scored on long clips over the full sweep."""

    def check(self, sk, inputs, results, reference):
        checks = super().check(sk, inputs, results, reference)
        ref = reference["snr_sweep_eval"]
        for i, r in enumerate(results):
            clean = r.clip_scores["clean"]["metric"]
            checks.append(Check(f"pass{i}.clean_f1_floor", clean >= ref["clean_f1_floor"],
                                f"clean F1 {clean:.3f} >= {ref['clean_f1_floor']}"))
        last = results[-1]
        clip_ref, block_ref = reference_sweep(sk, self, inputs, last)
        tol = ref["f1_tolerance"]
        for label, got, want in (("clip", last.clip_scores, clip_ref),
                                 ("block", last.block_scores, block_ref)):
            diffs = {snr: abs(got[snr]["metric"] - want[snr]) for snr in want}
            worst = max(diffs, key=diffs.get)
            checks.append(Check(f"per_snr_{label}_f1_matches_reference",
                                set(got) == set(want) and diffs[worst] <= tol,
                                f"worst |dF1| {diffs[worst]:.3f} at {worst} "
                                f"(tolerance {tol})"))
        return checks


def reference_sweep(sk, workload: Workload, inputs: Inputs, result: PassResult):
    """Per-SNR F1, per clip and per block, recomputed without evaluate_model:
    one batched forward per mixed clip, then the mean (clip) or each row
    (block) thresholded at 0.5."""
    exp, f = sk.experiments, sk.features
    model, data = result.model, result.data
    seed = exp.derive_seed(inputs.cfg.seed, "noise", 0)
    clip_f1, block_f1 = {}, {}
    for snr in workload.snrs:
        label = exp.snr_label(snr)
        truth, clip_pred, block_truth, block_pred = [], [], [], []
        for e in data.test_examples:
            spec = sk.audio_io.NoiseSpec(snr_db=snr, noise=inputs.noise,
                                         seed=exp.derive_seed(seed, e.clip_id, label))
            mixed = sk.audio_io.mix_noise_at_snr(e.clip, spec)
            x = tuple(np.stack([b.data for b in f.split_blocks(
                f.feature_matrix(mixed, kind), kind, stats=data.stats[kind])]).astype(np.float32)
                for kind in model.kinds)
            with sk.neural.no_grad():
                out = model.forward(x if len(x) == 2 else x[0]).data[:, 0]
            truth.append(e.label)
            clip_pred.append(int(float(out.mean()) > 0.5))
            block_truth.extend([e.label] * out.size)
            block_pred.extend(int(v > 0.5) for v in out)
        clip_f1[label] = exp.binary_f1(np.asarray(truth), np.asarray(clip_pred))
        block_f1[label] = exp.binary_f1(np.asarray(block_truth), np.asarray(block_pred))
    return clip_f1, block_f1


def make_workloads(sk) -> dict:
    """Clip lengths are chosen so every clip yields a fixed number of blocks
    (one at 0.72-0.85 s, five at 3.25-3.9 s): each seed then does the same work."""
    return {w.name: w for w in (
        CnnFusionCell(
            name="cnn_fusion_cell", arch="cnn", features="spectrogram+cepstrogram",
            clips=200, clip_seconds=(0.72, 0.85), noise_seconds=2.5, n_folds=5,
            snrs=(20.0, -10.0), epochs=2, finetune_epochs=1, learning_rate=1e-3,
            fold_data_in_setup=False, pass_seconds=14.0,
            graph_prefix="models.cnn.spectrogram_plus_cepstrogram"),
        GruTrain(
            name="gru_train", arch="gru", features="spectrogram",
            clips=200, clip_seconds=(0.72, 0.85), noise_seconds=2.5, n_folds=5,
            # the library's default learning rate: at 1e-3 the loss collapses
            # to ~1e-8 after one step, leaving the reference losses nothing to pin
            snrs=(20.0, -10.0), epochs=3, finetune_epochs=0, learning_rate=1e-4,
            fold_data_in_setup=True, pass_seconds=8.0,
            graph_prefix="models.gru.spectrogram"),
        SnrSweepEval(
            name="snr_sweep_eval", arch="cnn", features="mel_spectrogram+tmfcc",
            clips=80, clip_seconds=(3.25, 3.9), noise_seconds=5.0, n_folds=2,
            # at 1e-3, or with fewer epochs, some seeds end with their shouted
            # clips scored below 0.5, and clean F1 falls under its floor
            snrs=tuple(sk.audio_io.SWEEP_SNRS_DB), epochs=5, finetune_epochs=5,
            learning_rate=3e-4, fold_data_in_setup=True, pass_seconds=14.0,
            graph_prefix="models.cnn.mel_spectrogram_plus_tmfcc"),
    )}
