"""Command-line interface.

Subcommands: extract, mix, train, evaluate, suite, folds, corpus (validate /
aggregate), report, synth. Exit codes: 0 success, 2 configuration error,
3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from . import audio_io
from .corpus import (aggregate_ratings_pipeline, attach_intensity, class_counts,
                     parse_manifest, read_ratings_csv, read_subsets_csv,
                     summarize_intensity, validate_manifest, write_intensity_summary,
                     write_manifest)
from .errors import ConfigError, FormatError, NumericError, ShoutKitError
from .experiments import (ExperimentConfig, apply_overrides, build_fold_data,
                          export_plot_csvs, fold_plan, load_config, load_corpus, load_noise,
                          make_classification_corpus, make_intensity_corpus,
                          parse_feature_set, parse_snr, prepare_clip, run_suite,
                          score_fold, snr_label, validate_report, write_synth_corpus)
from .experiments.training import build_cell_model
from .features import FeatureStats, assemble_blocks, parse_feature_kind, save_blocks, write_blocks_csv
from .models import HeadKind, check_cell, load_model, save_model
from .neural import save_checkpoint
from .textio import read_text, write_csv, write_text

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _seed(text: str) -> int:
    """A ``--seed`` value: numpy's generators take only an integer >= 0."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"seed must be an integer >= 0, got {text!r}")
    return int(text)


def _load_cfg(args) -> ExperimentConfig:
    cfg = load_config(args.config) if getattr(args, "config", None) else ExperimentConfig()
    overrides = {}
    for item in getattr(args, "set", None) or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        overrides[key.strip()] = value.strip()
    return apply_overrides(cfg, overrides)


def cmd_extract(args) -> int:
    kind = parse_feature_kind(args.kind)
    stats = FeatureStats.load(args.stats, kind) if args.stats else None
    clip = prepare_clip(audio_io.load_wav(args.input))
    blocks = assemble_blocks(clip, kind, stats=stats)
    save_blocks(blocks, kind, args.output)
    if args.csv:
        write_blocks_csv(blocks, args.csv)
    print(f"wrote {len(blocks)} {kind.value} block(s) to {args.output}")
    return EXIT_OK


def cmd_mix(args) -> int:
    speech = audio_io.load_wav(args.speech)
    snr = parse_snr(args.snr)
    noise = audio_io.load_wav(args.noise) if args.noise else None
    spec = audio_io.NoiseSpec(snr_db=snr, noise=noise, seed=args.seed)
    mixed = audio_io.mix_noise_at_snr(speech, spec)
    audio_io.write_wav(mixed, args.output)
    print(f"wrote {args.output} at SNR {snr_label(snr)} dB")
    return EXIT_OK


def cmd_folds(args) -> int:
    plan = fold_plan(args.seed, args.n_folds, (r.speaker_id for r in parse_manifest(args.manifest)))
    text = json.dumps({"seed": args.seed, "canonical_split": plan.canonical_split,
                       "folds": plan.to_json()}, indent=2)
    if args.output:
        write_text(args.output, text)
    else:
        print(text)
    return EXIT_OK


def _corpus_and_fold(cfg: ExperimentConfig, fold_index: int):
    examples, plan = load_corpus(cfg)
    if not 0 <= fold_index < len(plan.folds):
        raise ConfigError(f"fold index {fold_index} outside 0..{len(plan.folds) - 1}")
    return examples, plan.folds[fold_index]


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    if len(cfg.archs) != 1 or len(cfg.features) != 1:
        raise ConfigError("train runs a single cell; give one arch and one feature set")
    kinds = parse_feature_set(cfg.features[0])
    check_cell(cfg.archs[0], kinds)
    examples, fold = _corpus_and_fold(cfg, args.fold)
    data = build_fold_data(examples, fold, kinds, cfg, noise=load_noise(cfg.noise))
    raw_logs: list = []
    model = build_cell_model(cfg.archs[0], kinds, cfg, data, args.fold, raw_logs=raw_logs)
    out_dir = Path(args.output)
    descriptor = save_model(model, out_dir, args.name)
    if raw_logs and raw_logs[-1].best_state is not None:
        # final-epoch parameters are the headline checkpoint; the
        # best-validation parameters are kept alongside
        save_checkpoint(raw_logs[-1].best_state, out_dir / f"{args.name}.best.ckpt")
    for kind in kinds:
        data.stats[kind].save(out_dir / f"{args.name}.stats.{kind.value}.json", kind)
    stages = [{**log.summary(), "curve": log.epochs} for log in raw_logs]
    write_text(out_dir / f"{args.name}.training.json", json.dumps({
        "config": cfg.echo(), "fold": args.fold, "stages": stages}, indent=2, sort_keys=True))
    print(f"trained {cfg.archs[0]} on {cfg.features[0]}; descriptor at {descriptor}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    cfg = _load_cfg(args)
    model = load_model(args.model)
    stats_dir = Path(args.model).parent
    name = Path(args.model).stem
    stats = {kind: FeatureStats.load(stats_dir / f"{name}.stats.{kind.value}.json", kind)
             for kind in model.kinds}
    examples, fold = _corpus_and_fold(cfg, args.fold)
    test = [e for e in examples if e.speaker_id in fold.test_speakers]
    scores = score_fold(cfg, model, test, stats, load_noise(cfg.noise), args.fold)
    payload = {label: detail["metric"] for label, detail in scores.items()}
    text = json.dumps({"fold": args.fold, "metrics": payload}, indent=2, sort_keys=True)
    if args.output:
        write_text(args.output, text)
    else:
        print(text)
    return EXIT_OK


def cmd_suite(args) -> int:
    cfg = _load_cfg(args)
    result = run_suite(cfg, args.output)
    print(f"suite finished: {len(result.reports)} cell(s), "
          f"{len(result.failures)} failure(s); reports in {args.output}")
    for failure in result.failures:
        print(f"  FAILED {failure['cell']}: {failure['error']}", file=sys.stderr)
    return EXIT_OK if result.exit_code == 0 else EXIT_DATA


def cmd_corpus_validate(args) -> int:
    records = parse_manifest(args.manifest)
    counts = validate_manifest(records, expect_full_corpus=args.expect_full)
    print(json.dumps({"records": len(records), "class_counts": counts}, indent=2))
    return EXIT_OK


def cmd_corpus_aggregate(args) -> int:
    ratings = read_ratings_csv(args.ratings)
    subsets = read_subsets_csv(args.subsets)
    labels = aggregate_ratings_pipeline(ratings, subsets, seed=args.seed)
    if args.manifest:
        records = attach_intensity(parse_manifest(args.manifest), labels)
        write_manifest(records, args.output)
        print(f"wrote manifest with {len(labels)} intensity label(s) to {args.output}")
    else:
        write_csv(args.output, ["item_id", "mean", "ratings"],
                  ([item_id, repr(label.mean_score),
                    " ".join(str(r) for r in label.contributing_ratings)]
                   for item_id, label in sorted(labels.items())))
        print(f"wrote {len(labels)} intensity label(s) to {args.output}")
    return EXIT_OK


def cmd_corpus_summarize(args) -> int:
    records = parse_manifest(args.manifest)
    speaker_rows, sentence_rows = summarize_intensity(records)
    write_intensity_summary(speaker_rows, sentence_rows, args.output)
    print(f"wrote intensity summary ({len(speaker_rows)} speakers, "
          f"{len(sentence_rows)} sentences) to {args.output}")
    return EXIT_OK


def cmd_report(args) -> int:
    suite_dir = Path(args.suite_dir)
    paths = [p for p in sorted(suite_dir.glob("*.json")) if p.name != "suite_meta.json"]
    if not paths:
        raise ConfigError(f"no cell reports found in {suite_dir}")
    # every file is read and checked before the first CSV is written
    reports = []
    for path in paths:
        text = read_text(path, "cell report")
        try:
            report = json.loads(text)
            validate_report(report)
        except (ValueError, FormatError) as exc:
            raise FormatError(f"{path} is not a cell report: {exc}") from None
        reports.append(report)
    written = []
    for report in reports:
        written.extend(export_plot_csvs(report, args.output))
    print(f"exported {len(written)} plot CSV(s) to {args.output}")
    return EXIT_OK


def cmd_synth(args) -> int:
    # checked, as a config's pink spec is, before any file is written; 0 is no noise
    noise = load_noise(f"pink:{args.seed + 1}:{args.noise_seconds}") if args.noise_seconds else None
    if args.task == "regression":
        examples = make_intensity_corpus(n_clips=args.clips, n_speakers=args.speakers,
                                         seed=args.seed)
    else:
        n_classes = 4 if args.task == "four_class" else 2
        examples = make_classification_corpus(n_clips=args.clips, n_speakers=args.speakers,
                                              n_classes=n_classes, seed=args.seed)
    manifest = write_synth_corpus(examples, args.output)
    if noise is not None:
        audio_io.write_wav(noise, Path(args.output) / "noise.wav")
    records = parse_manifest(manifest)
    print(f"wrote {len(records)} clips to {args.output} "
          f"(classes: {class_counts(records)})")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors are config errors: one line on stderr, exit 2. Subparsers
    are built from the same class.

    ``-inf``, ``-infinity`` and ``-nan`` count as negative numbers, as ``-5``
    does, so ``--snr -inf`` reaches the value check instead of reading as an
    option.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-\d+$|^-\d*\.\d+$|^-(inf|infinity|nan)$", re.IGNORECASE)

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="shoutkit", description="Shouted-speech analysis toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="clip to feature-block container")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--kind", required=True)
    p.add_argument("--stats", help="z-score statistics JSON (training-set)")
    p.add_argument("--csv", help="also write a CSV debug dump")
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("mix", help="mix noise into speech at an SNR")
    p.add_argument("speech")
    p.add_argument("output")
    p.add_argument("--noise")
    p.add_argument("--snr", required=True, help="dB value or 'clean'")
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(fn=cmd_mix)

    p = sub.add_parser("folds", help="plan speaker-independent folds")
    p.add_argument("manifest")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--n-folds", type=int, default=5)
    p.add_argument("--output")
    p.set_defaults(fn=cmd_folds)

    for name, fn in (("train", cmd_train), ("evaluate", cmd_evaluate)):
        p = sub.add_parser(name, help=f"{name} one experiment cell")
        p.add_argument("--config")
        p.add_argument("--set", action="append", metavar="KEY=VALUE")
        p.add_argument("--fold", type=int, default=0)
        if name == "train":
            p.add_argument("--output", required=True)
            p.add_argument("--name", default="model")
        else:
            p.add_argument("--model", required=True, help="model descriptor path")
            p.add_argument("--output")
        p.set_defaults(fn=fn)

    p = sub.add_parser("suite", help="run the full experiment grid")
    p.add_argument("--config")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--output", required=True)
    p.set_defaults(fn=cmd_suite)

    corpus_parser = sub.add_parser("corpus", help="corpus tooling")
    corpus_sub = corpus_parser.add_subparsers(dest="corpus_command", required=True)

    p = corpus_sub.add_parser("validate", help="check a manifest")
    p.add_argument("manifest")
    p.add_argument("--expect-full", action="store_true")
    p.set_defaults(fn=cmd_corpus_validate)

    p = corpus_sub.add_parser("aggregate", help="ratings to intensity labels")
    p.add_argument("--ratings", required=True)
    p.add_argument("--subsets", required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--manifest", help="attach labels to this manifest")
    p.add_argument("--output", required=True)
    p.set_defaults(fn=cmd_corpus_aggregate)

    p = corpus_sub.add_parser("summarize", help="per-speaker/sentence intensity tables")
    p.add_argument("manifest")
    p.add_argument("--output", required=True)
    p.set_defaults(fn=cmd_corpus_summarize)

    p = sub.add_parser("report", help="export plot-ready CSVs from suite output")
    p.add_argument("suite_dir")
    p.add_argument("--output", required=True)
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("synth", help="generate a synthetic desk-scale corpus")
    p.add_argument("--task", default="binary", choices=[head.value for head in HeadKind])
    p.add_argument("--clips", type=int, default=200)
    p.add_argument("--speakers", type=int, default=10)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--noise-seconds", type=float, default=3.0)
    p.add_argument("--output", required=True)
    p.set_defaults(fn=cmd_synth)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    # OSError covers input files that are missing or unreadable
    except (ShoutKitError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
