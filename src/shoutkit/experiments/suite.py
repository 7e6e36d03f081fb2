"""Experiment grid orchestration and the report bundle.

A suite runs every (architecture x feature set) cell of the config over all
folds, scores each cell across the SNR sweep, and writes one JSON report per
cell plus an aggregate CSV (rows = feature/model, columns = SNRs plus their
average). Failures are recorded and the remaining cells still run.
"""

from __future__ import annotations

import json
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..corpus import parse_manifest
from ..errors import ConfigError, ShoutKitError
from ..models import check_cell
from ..textio import make_dirs, write_csv, write_text
from .config import ExperimentConfig, derive_seed, snr_label
from .folds import FoldPlan, plan_folds
from .metrics import MetricsReport, validate_report
from .training import (ClipExample, build_cell_model, build_fold_data, check_noise,
                       corpus_examples, evaluate_model, load_noise,
                       parse_feature_set)


@dataclass
class SuiteResult:
    reports: list = field(default_factory=list)     # MetricsReport dicts
    failures: list = field(default_factory=list)    # {"cell":..., "error":...}

    @property
    def exit_code(self) -> int:
        return 0 if not self.failures else 1


def cell_name(arch: str, features: str) -> str:
    return f"{arch}__{features.replace('+', '_plus_')}"


def fold_plan(seed: int, n_folds: int, speakers) -> FoldPlan:
    """The folds that ``folds``, ``train``, ``evaluate`` and ``suite`` share at a
    config seed: the only place the "folds" seed is derived."""
    return plan_folds(sorted(set(speakers)), seed=derive_seed(seed, "folds"), n_folds=n_folds)


def load_corpus(cfg: ExperimentConfig, examples: list[ClipExample] | None = None
                ) -> tuple[list[ClipExample], FoldPlan]:
    """The task's clips (read from the config's manifest unless given) and
    their fold plan."""
    if examples is None:
        examples = corpus_examples(parse_manifest(cfg.manifest),
                                   cfg.audio_root or Path(cfg.manifest).parent, cfg.task)
    return examples, fold_plan(cfg.seed, cfg.n_folds, (e.speaker_id for e in examples))


def score_fold(cfg: ExperimentConfig, model, test: list[ClipExample], stats: dict,
               noise, fold_index: int) -> dict:
    """A fold's model scored over the config's SNR sweep: the only place the
    "noise" seed is derived."""
    return evaluate_model(model, test, stats, cfg.task, cfg.snrs_db, noise,
                          seed=derive_seed(cfg.seed, "noise", fold_index),
                          per_block=cfg.per_block_eval)


def run_cell(cfg: ExperimentConfig, arch: str, features: str,
             plan: FoldPlan, examples: list[ClipExample], noise) -> MetricsReport:
    kinds = parse_feature_set(features)
    check_cell(arch, kinds)  # refuse a mismatched cell before any fold data
    report = MetricsReport(task=cfg.task, arch=arch, features=features,
                           numeric_mode=cfg.dtype, seed=cfg.seed,
                           config_echo=cfg.echo())
    snr_values: dict[str, list[float]] = {snr_label(s): [] for s in cfg.snrs_db}
    for fold_index, fold in enumerate(plan.folds):
        data = build_fold_data(examples, fold, kinds, cfg, noise=noise)
        logs: list = []
        model = build_cell_model(arch, kinds, cfg, data, fold_index, raw_logs=logs)
        report.training.extend(log.summary() for log in logs)
        scores = score_fold(cfg, model, data.test_examples, data.stats, noise, fold_index)
        for label, detail in scores.items():
            key = f"fold{fold_index}/{label}"
            report.per_fold_snr[key] = detail["metric"]
            snr_values[label].append(detail["metric"])
            if "confusion_counts" in detail:
                report.confusions[key] = detail["confusion_counts"]
            if "pairs" in detail:
                report.scatter[key] = detail["pairs"]
    report.snr_means = {label: float(np.mean(values))
                        for label, values in snr_values.items() if values}
    if report.snr_means:
        report.average = float(np.mean(list(report.snr_means.values())))
    return report


def run_suite(cfg: ExperimentConfig, out_dir, examples: list[ClipExample] | None = None
              ) -> SuiteResult:
    """Run the whole grid; one report per cell, aggregate table at the end."""
    if not cfg.archs or not cfg.features:
        raise ConfigError("suite needs at least one architecture and one feature set")
    examples, plan = load_corpus(cfg, examples)
    noise = load_noise(cfg.noise)
    check_noise(cfg.snrs_db, noise, examples)

    # nothing is written until the corpus, folds and noise have all loaded
    # and the noise is known to mix into every clip
    out_dir = make_dirs(out_dir)
    result = SuiteResult()
    for arch in cfg.archs:
        for features in cfg.features:
            name = cell_name(arch, features)
            try:
                report = run_cell(cfg, arch, features, plan, examples, noise)
            except ShoutKitError as exc:
                result.failures.append({"cell": name, "error": f"{type(exc).__name__}: {exc}"})
            except Exception as exc:  # keep the suite alive, record the cell
                result.failures.append({"cell": name, "error": f"{type(exc).__name__}: {exc}",
                                        "trace": traceback.format_exc()})
            else:
                payload = report.to_dict()
                validate_report(payload)
                write_text(out_dir / f"{name}.json", json.dumps(payload, indent=2, sort_keys=True))
                result.reports.append(payload)

    write_aggregate_table(result.reports, cfg, out_dir / "aggregate.csv")
    write_text(out_dir / "suite_meta.json", json.dumps({
        "config": cfg.echo(),
        "folds": plan.to_json(),
        "fold_seed": plan.seed,
        "failures": result.failures,
    }, indent=2, sort_keys=True))
    return result


def write_aggregate_table(reports: list[dict], cfg: ExperimentConfig, path) -> None:
    """Rows = (features, model); columns = the SNR sweep plus its average."""
    labels = [snr_label(s) for s in cfg.snrs_db]
    rows = []
    for report in reports:
        values = [report["snr_means"].get(label) for label in labels] + [report.get("average")]
        rows.append([report["features"], report["arch"]]
                    + ["" if value is None else f"{value:.6f}" for value in values])
    write_csv(path, ["features", "model"] + labels + ["avg"], rows)


def export_plot_csvs(report: dict, out_dir) -> list[Path]:
    """Plot-ready CSVs: confusion matrices and regression scatter pairs."""
    out_dir = make_dirs(out_dir)
    written = []
    base = cell_name(report["arch"], report["features"])
    for key, counts in report.get("confusions", {}).items():
        tag = key.replace("/", "_")
        path = out_dir / f"{base}__confusion_{tag}.csv"
        write_csv(path, ["true\\pred"] + [f"c{i}" for i in range(len(counts))],
                  ([f"c{i}"] + list(row) for i, row in enumerate(counts)))
        written.append(path)
    for key, pairs in report.get("scatter", {}).items():
        tag = key.replace("/", "_")
        path = out_dir / f"{base}__scatter_{tag}.csv"
        write_csv(path, ["actual", "predicted"], pairs)
        written.append(path)
    return written
