"""Speaker-independent cross-validation fold planning."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError

# Share of a fold's train speakers held out for validation: 40 -> 32 / 8.
VALIDATION_FRACTION = 0.2


@dataclass(frozen=True)
class Fold:
    train_validation_speakers: tuple[str, ...]
    test_speakers: tuple[str, ...]


@dataclass(frozen=True)
class FoldPlan:
    folds: tuple[Fold, ...]
    seed: int
    canonical_split: bool   # True for the canonical 50-speaker, 5x10 split

    def to_json(self) -> list[dict]:
        """Each fold's speakers, as ``folds`` prints them and ``suite_meta.json`` records them."""
        return [{"train_validation": list(f.train_validation_speakers),
                 "test": list(f.test_speakers)} for f in self.folds]


def plan_folds(speakers: list[str], seed: int, n_folds: int = 5) -> FoldPlan:
    """Seeded random partition of speakers into disjoint test sets.

    With 50 speakers and 5 folds each test set holds exactly 10 speakers.
    Other counts are split as evenly as possible, with ``canonical_split`` False.
    """
    speakers = list(speakers)
    if n_folds < 1:
        raise ConfigError(f"n_folds must be at least 1, got {n_folds}")
    if len(set(speakers)) != len(speakers):
        raise ConfigError("duplicate speaker ids in fold planning")
    if len(speakers) < n_folds:
        raise ConfigError(f"cannot build {n_folds} folds from {len(speakers)} speakers")
    rng = np.random.default_rng(seed)
    order = [speakers[i] for i in rng.permutation(len(speakers))]
    base, remainder = divmod(len(order), n_folds)
    conform = len(speakers) == 50 and n_folds == 5
    folds = []
    start = 0
    for i in range(n_folds):
        size = base + (1 if i < remainder else 0)
        test = tuple(sorted(order[start : start + size]))
        start += size
        train = tuple(sorted(s for s in speakers if s not in test))
        folds.append(Fold(train_validation_speakers=train, test_speakers=test))
    plan = FoldPlan(folds=tuple(folds), seed=seed, canonical_split=conform)
    for fold in plan.folds:
        check_speaker_independence(fold)
    return plan


def check_speaker_independence(fold: Fold) -> None:
    overlap = set(fold.train_validation_speakers) & set(fold.test_speakers)
    if overlap:
        raise ConfigError(f"speakers {sorted(overlap)} appear in both train and test")


def split_train_validation(fold: Fold, seed: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Split the 40 train-verification speakers into train and validation,
    by speaker, seeded: 32 train / 8 validation."""
    speakers = list(fold.train_validation_speakers)
    if len(speakers) < 2:
        raise ConfigError("need at least two speakers to carve out validation")
    rng = np.random.default_rng(seed)
    order = [speakers[i] for i in rng.permutation(len(speakers))]
    # round(0.2 * n) < n for every n >= 2, so training keeps a speaker too
    n_val = max(1, round(VALIDATION_FRACTION * len(speakers)))
    validation = tuple(sorted(order[:n_val]))
    train = tuple(sorted(order[n_val:]))
    return train, validation
