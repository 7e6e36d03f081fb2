"""Experiment orchestration: folds, metrics, synthetic corpora, training, suites."""

from .config import (ExperimentConfig, apply_overrides, derive_seed, load_config,
                     parse_config_text, parse_snr, snr_label)
from .folds import Fold, FoldPlan, check_speaker_independence, plan_folds, split_train_validation
from .metrics import (MetricsReport, binary_f1, confusion_matrix, rmse,
                      validate_report, weighted_f1)
from .synthetic import (SynthExample, make_classification_corpus, make_intensity_corpus,
                        write_synth_corpus)
from .training import (ClipExample, FoldData, TrainSettings, TrainingLog,
                       build_cell_model, build_fold_data, corpus_examples,
                       evaluate_model, label_for_task, load_noise, parse_feature_set,
                       prepare_clip, train_model)
from .suite import (SuiteResult, cell_name, export_plot_csvs, fold_plan, load_corpus,
                    run_cell, run_suite, score_fold)

__all__ = [
    "ExperimentConfig", "apply_overrides", "derive_seed",
    "load_config", "parse_config_text", "parse_snr", "snr_label",
    "Fold", "FoldPlan", "check_speaker_independence", "plan_folds", "split_train_validation",
    "MetricsReport", "binary_f1", "confusion_matrix", "rmse", "validate_report", "weighted_f1",
    "SynthExample", "make_classification_corpus", "make_intensity_corpus", "write_synth_corpus",
    "ClipExample", "FoldData", "TrainSettings", "TrainingLog", "build_cell_model",
    "build_fold_data", "corpus_examples", "evaluate_model", "label_for_task", "load_noise",
    "parse_feature_set", "prepare_clip", "train_model",
    "SuiteResult", "cell_name", "export_plot_csvs", "fold_plan", "load_corpus", "run_cell",
    "run_suite", "score_fold",
]
