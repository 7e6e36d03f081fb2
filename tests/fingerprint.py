"""A fingerprint of the numbers shoutkit computes, and a compare of two.

    python tests/fingerprint.py OUT.json
    python tests/fingerprint.py --compare A.json B.json

The first form writes the machine facts that the numbers depend on (numpy's
version, the BLAS name, version and thread count) and one entry per group:
the sha256 of the group's bytes and what the compare needs to say how far
two runs moved: a numeric group keeps its arrays (dtype, shape and base64
bytes), a file keeps the numbers written in it. The second form first names
each machine fact on which the two files differ, then lists the groups whose
digests differ, each with its largest relative difference, and exits 1 if
any group differs. An array's difference is max |a - b| over max |b|; a
file's is the largest |a - b| / |b| of any one number in it.

Groups:
  build.<arch>.<kind>.<dtype>.weights|forward|grads
      every cnn, gru and cnn_gru build (width_scale 8) at spectrogram and
      mel_spectrogram, in float32 and float64: its initial weights, the
      output and MSE loss of a fixed batch of 4 blocks, and the gradients
      of one backward of that loss
  train.losses, train.state
      a 3-epoch float32 cnn/spectrogram training run (width_scale 4): its
      per-epoch losses and final state dict
  suite.<file>
      the three files of a 2-fold cnn/mel_spectrogram suite
  corpus.<task>
      a tiny synth corpus of the binary, four_class and regression task:
      its samples, clip lengths, task labels and sentence ids
  folds.<task>
      the first fold's data built from that corpus (float32, spectrogram and
      cepstrogram): the train and validation blocks and labels and each
      kind's stats
  cli.<file>
      the files that ``shoutkit train`` (a 2-epoch float32 cnn on
      mel_spectrogram), ``evaluate`` (clean and 0 dB) and ``extract`` (an
      SKFB container of one clip, z-scored with the trained stats) write
      for a tiny synth corpus; a checkpoint or SKFB file is hashed as bytes
      and compared by the arrays read back from it

It runs in a few seconds. No golden digests are kept: BLAS and FFT results
may differ between machines, and OpenBLAS sums some GEMM shapes in another
order at another thread count, so compare two runs made on one machine at
one BLAS thread count.
"""

from __future__ import annotations

import argparse
import base64
import contextlib
import ctypes
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from shoutkit.audio_io import CLEAN  # noqa: E402
from shoutkit.cli import main as cli  # noqa: E402
from shoutkit.experiments import ExperimentConfig, run_suite  # noqa: E402
from shoutkit.experiments.folds import plan_folds  # noqa: E402
from shoutkit.experiments.synthetic import (make_classification_corpus,  # noqa: E402
                                            make_intensity_corpus)
from shoutkit.experiments.training import (ClipExample, TrainSettings,  # noqa: E402
                                           build_fold_data, train_model)
from shoutkit.features import FeatureKind, load_blocks  # noqa: E402
from shoutkit.models import build_single_model  # noqa: E402
from shoutkit.neural import load_checkpoint, mse_loss  # noqa: E402


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas_name": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": blas_threads()}


def numeric_group(arrays: dict) -> dict:
    """A group of named arrays: their joint sha256 and the arrays themselves."""
    digest = hashlib.sha256()
    stored = {}
    for name in sorted(arrays):
        a = np.ascontiguousarray(arrays[name])
        digest.update(f"{name}|{a.dtype.str}|{a.shape}|".encode())
        digest.update(a.tobytes())
        stored[name] = {"dtype": a.dtype.str, "shape": list(a.shape),
                        "data": base64.b64encode(a.tobytes()).decode("ascii")}
    return {"sha256": digest.hexdigest(), "arrays": stored}


# a number as JSON and CSV write it
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def file_group(path: Path, root: Path | None = None) -> dict:
    """A written text file: the sha256 of its bytes and every number in it,
    in order. A path under ``root`` in the text is hashed as ``<root>/...``."""
    data = path.read_bytes()
    if root is not None:
        data = data.replace(str(root).encode(), b"<root>")
    numbers = [float(v) for v in _NUMBER.findall(data.decode("utf-8"))]
    return {"sha256": hashlib.sha256(data).hexdigest(), "numbers": numbers}


def binary_group(path: Path, arrays: dict) -> dict:
    """A written binary file: the sha256 of its bytes and the arrays read back from it."""
    return {**numeric_group(arrays), "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}


def build_groups() -> dict:
    groups = {}
    for arch in ("cnn", "gru", "cnn_gru"):
        for kind in (FeatureKind.SPECTROGRAM, FeatureKind.MEL_SPECTROGRAM):
            for dtype in (np.float32, np.float64):
                prefix = f"build.{arch}.{kind.value}.{np.dtype(dtype).name}"
                model = build_single_model(arch, kind, "binary", seed=11, dtype=dtype,
                                           width_scale=8)
                rng = np.random.default_rng(12)
                x = rng.standard_normal((4, kind.dim, 20)).astype(dtype)
                y = np.array([[1.0], [0.0], [1.0], [0.0]], dtype=dtype)
                groups[f"{prefix}.weights"] = numeric_group(model.state_dict())
                model.zero_grad()
                out = model.forward(x)
                loss = mse_loss(out, y)
                loss.backward()
                groups[f"{prefix}.forward"] = numeric_group({"output": out.data,
                                                             "loss": loss.data})
                groups[f"{prefix}.grads"] = numeric_group(
                    {name: p.grad for name, p in model.parameters().items()})
    return groups


def training_groups() -> dict:
    kind = FeatureKind.SPECTROGRAM
    model = build_single_model("cnn", kind, "binary", seed=13, dtype=np.float32,
                               width_scale=4)
    rng = np.random.default_rng(14)
    x = rng.standard_normal((24, kind.dim, 20)).astype(np.float32)
    y = np.arange(24) % 2
    log = train_model(model, None, TrainSettings(epochs=3, batch_size=8, learning_rate=1e-3,
                                                 shuffle_seed=15),
                      train_x={kind: x}, train_y=y)
    losses = np.array([epoch["train_loss"] for epoch in log.epochs])
    return {"train.losses": numeric_group({"train_loss": losses}),
            "train.state": numeric_group(model.state_dict())}


def suite_groups() -> dict:
    synth = make_classification_corpus(n_clips=40, n_speakers=4, seed=1)
    examples = [ClipExample(clip_id=s.clip_id, speaker_id=s.speaker_id, clip=s.clip,
                            label=s.class_index) for s in synth]
    cfg = ExperimentConfig(task="binary", archs=("cnn",), features=("mel_spectrogram",),
                           snrs_db=(CLEAN, 0.0), epochs=2, batch_size=20,
                           learning_rate=1e-3, dtype="float32", n_folds=2, seed=3,
                           noise="pink:5:2.0")
    with tempfile.TemporaryDirectory() as tmp:
        run_suite(cfg, tmp, examples=examples)
        return {f"suite.{path.name}": file_group(path) for path in sorted(Path(tmp).iterdir())}


def corpus_groups() -> dict:
    corpora = {
        "binary": [(s, s.class_index) for s in make_classification_corpus(
            n_clips=8, n_speakers=4, seed=21)],
        "four_class": [(s, s.class_index) for s in make_classification_corpus(
            n_clips=16, n_speakers=4, n_classes=4, seed=22)],
        "regression": [(s, s.intensity) for s in make_intensity_corpus(
            n_clips=8, n_speakers=4, seed=23)],
    }
    kinds = (FeatureKind.SPECTROGRAM, FeatureKind.CEPSTROGRAM)
    groups = {}
    for task, corpus in corpora.items():
        groups[f"corpus.{task}"] = numeric_group({
            "samples": np.concatenate([s.clip.samples for s, _ in corpus]),
            "lengths": np.array([len(s.clip.samples) for s, _ in corpus]),
            "labels": np.array([label for _, label in corpus], dtype=np.float64),
            "sentences": np.array([s.sentence_id for s, _ in corpus])})
        examples = [ClipExample(clip_id=s.clip_id, speaker_id=s.speaker_id, clip=s.clip,
                                label=label) for s, label in corpus]
        cfg = ExperimentConfig(task=task, dtype="float32", n_folds=2, seed=24)
        fold = plan_folds(sorted({e.speaker_id for e in examples}), seed=cfg.seed,
                          n_folds=cfg.n_folds).folds[0]
        data = build_fold_data(examples, fold, kinds, cfg)
        groups[f"folds.{task}"] = numeric_group({
            "train_y": data.train_y, "val_y": data.val_y,
            **{f"{kind.value}.{name}": value for kind in kinds for name, value in (
                ("train_x", data.train_x[kind]), ("val_x", data.val_x[kind]),
                ("mean", data.stats[kind].mean), ("std", data.stats[kind].std))}})
    return groups


def _shoutkit(*argv: str) -> None:
    if cli(list(argv)) != 0:
        raise RuntimeError(f"shoutkit {argv[0]} failed")


def cli_groups() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        corpus, run = root / "corpus", root / "run"
        settings = ["task=binary", "archs=cnn", "features=mel_spectrogram", "epochs=2",
                    "batch_size=8", "learning_rate=0.001", "dtype=float32", "n_folds=2",
                    "snrs_db=clean,0", f"noise={corpus / 'noise.wav'}",
                    f"manifest={corpus / 'manifest.csv'}", f"audio_root={corpus}"]
        config = [arg for setting in settings for arg in ("--set", setting)]
        with contextlib.redirect_stdout(io.StringIO()):
            _shoutkit("synth", "--clips", "16", "--speakers", "4", "--seed", "25",
                      "--noise-seconds", "2", "--output", str(corpus))
            _shoutkit("train", *config, "--output", str(run), "--name", "m")
            _shoutkit("evaluate", *config, "--model", str(run / "m.descriptor"),
                      "--output", str(run / "evaluate.json"))
            _shoutkit("extract", str(min((corpus / "wav").iterdir())), str(run / "clip.skfb"),
                      "--kind", "mel_spectrogram",
                      "--stats", str(run / "m.stats.mel_spectrogram.json"))
        groups = {}
        for path in sorted(run.iterdir()):
            if path.suffix == ".ckpt":
                groups[f"cli.{path.name}"] = binary_group(path, load_checkpoint(path))
            elif path.suffix == ".skfb":
                groups[f"cli.{path.name}"] = binary_group(path, {"blocks": load_blocks(path)[1]})
            else:
                groups[f"cli.{path.name}"] = file_group(path, root)
        return groups


def fingerprint() -> dict:
    return {"machine": machine_facts(),
            "groups": {**build_groups(), **training_groups(), **suite_groups(),
                       **corpus_groups(), **cli_groups()}}


def _arrays(group: dict) -> dict:
    return {name: np.frombuffer(base64.b64decode(a["data"]), a["dtype"]).reshape(a["shape"])
            for name, a in group["arrays"].items()}


def largest_difference(a: dict, b: dict) -> str:
    """How far group ``a`` moved from group ``b``, as text."""
    if "numbers" in a:
        x, ref = np.array(a["numbers"]), np.array(b["numbers"])
        if x.shape != ref.shape:
            return f"{len(x)} numbers against {len(ref)}"
        moved = x != ref
        if not moved.any():
            return "the same numbers, other text"
        worst = np.max(np.abs(x - ref)[moved] / np.maximum(np.abs(ref[moved]), 1e-300))
        return f"largest relative difference {worst:.3g} ({moved.sum()} numbers moved)"
    arrays_a, arrays_b = _arrays(a), _arrays(b)
    if arrays_a.keys() != arrays_b.keys():
        return "array names differ"
    worst = 0.0
    for name, x in arrays_a.items():
        ref = arrays_b[name]
        if x.shape != ref.shape or x.dtype != ref.dtype:
            return f"{name}: {x.dtype}{list(x.shape)} against {ref.dtype}{list(ref.shape)}"
        diff = np.max(np.abs(x.astype(np.float64) - ref), initial=0.0)
        scale = np.max(np.abs(ref.astype(np.float64)), initial=0.0)
        worst = max(worst, diff / scale if scale > 0 else np.inf if diff > 0 else 0.0)
    return f"largest relative difference {worst:.3g}"


def compare(path_a, path_b) -> int:
    run_a = json.loads(Path(path_a).read_text())
    run_b = json.loads(Path(path_b).read_text())
    facts_a, facts_b = run_a["machine"], run_b["machine"]
    moved = [f"{key} {facts_a.get(key)} against {facts_b.get(key)}"
             for key in sorted(facts_a.keys() | facts_b.keys())
             if facts_a.get(key) != facts_b.get(key)]
    if moved:
        print(f"machine facts differ: {', '.join(moved)}")
    a, b = run_a["groups"], run_b["groups"]
    differ = 0
    for name in sorted(a.keys() | b.keys()):
        if name not in a or name not in b:
            print(f"{name}: only in {path_a if name in a else path_b}")
            differ += 1
        elif a[name]["sha256"] != b[name]["sha256"]:
            print(f"{name}: {largest_difference(a[name], b[name])}")
            differ += 1
    print(f"{differ} of {len(a.keys() | b.keys())} groups differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", nargs="?", help="write the fingerprint to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="list the groups of A that differ from B")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.out:
        parser.error("give OUT.json or --compare A B")
    Path(args.out).write_text(json.dumps(fingerprint(), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
