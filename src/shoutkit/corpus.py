"""Corpus metadata and construction procedures: manifest handling, sentence
class voting, spammer filtering, and intensity aggregation.

The corpus couples each utterance to a speaker, a sentence (1..50), a style
(normal or shout) and a four-way class. Shouted sentences fall into bands:
sentences 1..10 are class H/L (vowels plus ambiguous sentences), 11..30 are
class L, 31..50 are class H. Shout intensity is a 1..7 mean over exactly ten
crowd ratings that survive the dummy-item spammer filter.
"""

from __future__ import annotations

import warnings
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import ConfigError, InsufficientRatingsError, ManifestError
from .textio import read_csv, write_csv

FULL_CORPUS_COUNTS = {"normal": 2500, "shout_h": 1000, "shout_l": 1000, "shout_hl": 500}
TASK_ITEMS = 21           # 20 corpus items + 1 dummy per rating task
RATINGS_PER_ITEM = 10
SPAMMER_DUMMY_THRESHOLD = 2   # a dummy score of 2 or higher marks a spammer
MAX_TASKS_PER_WORKER = 3


class Style(Enum):
    NORMAL = "normal"
    SHOUT = "shout"


class ShoutClass(Enum):
    """A clip's four-way class; its four-class label is its position here:
    normal 0, H 1, L 2, H/L 3."""

    NORMAL = "normal"
    SHOUT_H = "shout_h"
    SHOUT_L = "shout_l"
    SHOUT_HL = "shout_hl"


def class_for_sentence(style: Style, sentence_id: int) -> ShoutClass:
    if not 1 <= sentence_id <= 50:
        raise ManifestError(f"sentence_id must be 1..50, got {sentence_id}")
    if style is Style.NORMAL:
        return ShoutClass.NORMAL
    if sentence_id <= 10:
        return ShoutClass.SHOUT_HL
    if sentence_id <= 30:
        return ShoutClass.SHOUT_L
    return ShoutClass.SHOUT_H


@dataclass(frozen=True)
class IntensityLabel:
    """Mean of exactly ten contributing crowd ratings."""

    mean_score: float
    contributing_ratings: tuple[int, ...]

    def __post_init__(self):
        if len(self.contributing_ratings) != RATINGS_PER_ITEM:
            raise ConfigError(f"intensity labels average exactly {RATINGS_PER_ITEM} ratings")
        expected = sum(self.contributing_ratings) / RATINGS_PER_ITEM
        if abs(expected - self.mean_score) > 1e-9:
            raise ConfigError("mean_score does not equal the mean of its ratings")


@dataclass(frozen=True)
class UtteranceRecord:
    speaker_id: str
    sex: str
    sentence_id: int
    style: Style
    class_label: ShoutClass
    path: str
    intensity: float | None = None


@dataclass(frozen=True)
class RatingRecord:
    """One worker's 21 scores for one task (20 items plus the dummy)."""

    worker_id: str
    subset_id: int
    scores: tuple[int, ...]
    dummy_index: int

    def __post_init__(self):
        if len(self.scores) != TASK_ITEMS:
            raise ConfigError(f"a rating task has {TASK_ITEMS} items, got {len(self.scores)}")
        if any(not 1 <= s <= 7 for s in self.scores):
            raise ConfigError("scores are integers on the 1..7 scale")
        if not 0 <= self.dummy_index < TASK_ITEMS:
            raise ConfigError(f"dummy_index out of range: {self.dummy_index}")

    @property
    def dummy_score(self) -> int:
        return self.scores[self.dummy_index]

    def item_scores(self) -> list[int]:
        """Scores for the 20 real items, dummy removed, task order kept."""
        return [s for i, s in enumerate(self.scores) if i != self.dummy_index]


@dataclass(frozen=True)
class SentenceVote:
    """Five raters, one vote each, over (H, L, H/L)."""

    sentence_id: int
    votes_h: int
    votes_l: int
    votes_hl: int

    def __post_init__(self):
        total = self.votes_h + self.votes_l + self.votes_hl
        if total != 5:
            raise ConfigError(f"sentence votes must sum to 5, got {total}")


# -- manifest ---------------------------------------------------------------------

MANIFEST_COLUMNS = ["path", "speaker", "sex", "sentence_id", "style", "class", "intensity"]

_STYLE_NAMES = {s.value: s for s in Style}
_CLASS_NAMES = {c.value: c for c in ShoutClass}


def parse_manifest(path) -> list[UtteranceRecord]:
    """Read and validate the corpus manifest CSV.

    Raises ManifestError with the offending row number on any invariant
    violation (style/class inconsistency, band mismatch, bad intensity).
    """
    if not path:
        raise ConfigError("no manifest given")
    records = [_parse_manifest_row(row, row_number)
               for row_number, row in _numbered_rows(path, "manifest", MANIFEST_COLUMNS)]
    if not records:
        raise ManifestError(f"manifest {path} has no records")
    return records


def _numbered_rows(path, what: str, columns: list[str]) -> list[tuple[int, list[str]]]:
    """The non-empty rows of a corpus CSV, each with its row number, once the
    header is checked to be ``columns``."""
    rows = read_csv(path, what)
    if not rows:
        raise ManifestError(f"{what} {path} is empty")
    if rows[0] != columns:
        raise ManifestError(f"{what} header must be {','.join(columns)}, "
                            f"got {','.join(rows[0])}")
    return [(row_number, row) for row_number, row in enumerate(rows[1:], start=2) if row]


def _parse_manifest_row(row: list[str], row_number: int) -> UtteranceRecord:
    if len(row) != len(MANIFEST_COLUMNS):
        raise ManifestError(f"expected {len(MANIFEST_COLUMNS)} columns, got {len(row)}",
                            row=row_number)
    path, speaker, sex, sentence_raw, style_raw, class_raw, intensity_raw = row
    if sex not in ("f", "m"):
        raise ManifestError(f"sex must be 'f' or 'm', got {sex!r}", row=row_number)
    try:
        sentence_id = int(sentence_raw)
    except ValueError:
        raise ManifestError(f"bad sentence_id {sentence_raw!r}", row=row_number)
    style = _STYLE_NAMES.get(style_raw)
    if style is None:
        raise ManifestError(f"bad style {style_raw!r}", row=row_number)
    class_label = _CLASS_NAMES.get(class_raw)
    if class_label is None:
        raise ManifestError(f"bad class {class_raw!r}", row=row_number)
    try:
        expected = class_for_sentence(style, sentence_id)
    except ManifestError as exc:
        raise ManifestError(str(exc), row=row_number)
    if class_label is not expected:
        raise ManifestError(f"class {class_label.value} inconsistent with style "
                            f"{style.value} and sentence {sentence_id} "
                            f"(expected {expected.value})", row=row_number)
    intensity = None
    if intensity_raw.strip():
        if style is Style.NORMAL:
            raise ManifestError("normal utterances carry no intensity", row=row_number)
        try:
            intensity = float(intensity_raw)
        except ValueError:
            raise ManifestError(f"bad intensity {intensity_raw!r}", row=row_number)
        if not 1.0 <= intensity <= 7.0:
            raise ManifestError(f"intensity {intensity} outside [1, 7]", row=row_number)
    return UtteranceRecord(speaker_id=speaker, sex=sex, sentence_id=sentence_id,
                           style=style, class_label=class_label, path=path,
                           intensity=intensity)


def write_manifest(records: list[UtteranceRecord], path) -> None:
    write_csv(path, MANIFEST_COLUMNS,
              ([r.path, r.speaker_id, r.sex, r.sentence_id, r.style.value, r.class_label.value,
                "" if r.intensity is None else repr(r.intensity)] for r in records))


def class_counts(records: list[UtteranceRecord]) -> dict[str, int]:
    counts = Counter(r.class_label.value for r in records)
    return {c.value: counts.get(c.value, 0) for c in ShoutClass}


def validate_manifest(records: list[UtteranceRecord], expect_full_corpus: bool = False):
    """Cross-record checks; per-row invariants are enforced by parse_manifest."""
    counts = class_counts(records)
    if expect_full_corpus and counts != FULL_CORPUS_COUNTS:
        raise ManifestError(f"full corpus expects counts {FULL_CORPUS_COUNTS}, got {counts}")
    return counts


# -- sentence class voting ----------------------------------------------------------


def classify_sentence_votes(vote: SentenceVote) -> str:
    """Plurality class over five votes; any first-place tie resolves to 'hl'."""
    tally = {"h": vote.votes_h, "l": vote.votes_l, "hl": vote.votes_hl}
    top = max(tally.values())
    winners = [name for name, count in tally.items() if count == top]
    return winners[0] if len(winners) == 1 else "hl"


# -- spammer filtering and aggregation ------------------------------------------------


def filter_spammers(records: list[RatingRecord]) -> list[RatingRecord]:
    """Drop every task response whose dummy score is 2 or higher.

    Removal is per task: a worker flagged in one task keeps their responses
    in other tasks. Workers appearing in more than three tasks draw a warning
    (the participation cap was enforced upstream, not here).
    """
    tasks_per_worker = Counter(r.worker_id for r in records)
    for worker, count in sorted(tasks_per_worker.items()):
        if count > MAX_TASKS_PER_WORKER:
            warnings.warn(f"worker {worker} appears in {count} tasks "
                          f"(cap is {MAX_TASKS_PER_WORKER})", stacklevel=2)
    return [r for r in records if r.dummy_score < SPAMMER_DUMMY_THRESHOLD]


def aggregate_intensity(ratings: list[int], seed: int) -> IntensityLabel:
    """Select exactly ten ratings uniformly without replacement and average.

    Fewer than ten retained ratings raises InsufficientRatingsError; the
    protocol has no fallback for under-rated items.
    """
    if len(ratings) < RATINGS_PER_ITEM:
        raise InsufficientRatingsError(
            f"need at least {RATINGS_PER_ITEM} ratings, got {len(ratings)}")
    rng = np.random.default_rng(seed)
    chosen_idx = rng.choice(len(ratings), size=RATINGS_PER_ITEM, replace=False)
    chosen = tuple(int(ratings[i]) for i in sorted(chosen_idx))
    return IntensityLabel(mean_score=sum(chosen) / RATINGS_PER_ITEM,
                          contributing_ratings=chosen)


@dataclass(frozen=True)
class RatingSubset:
    """Twenty corpus items plus one injected dummy, in task order."""

    subset_id: int
    item_ids: tuple[str, ...]   # the 20 real items, task order
    dummy_position: int         # 0..20 within the 21-slot task

    def task_order(self) -> list[str | None]:
        slots: list[str | None] = list(self.item_ids)
        slots.insert(self.dummy_position, None)
        return slots


def make_rating_subsets(item_ids: list[str], seed: int) -> list[RatingSubset]:
    """Shuffle items, split into subsets of 20 and inject one dummy per subset."""
    if not item_ids or len(item_ids) % 20 != 0:
        raise ConfigError(f"item count must be a positive multiple of 20, got {len(item_ids)}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(item_ids))
    subsets = []
    for i in range(len(item_ids) // 20):
        chunk = tuple(item_ids[j] for j in order[i * 20 : (i + 1) * 20])
        dummy_position = int(rng.integers(0, TASK_ITEMS))
        subsets.append(RatingSubset(subset_id=i + 1, item_ids=chunk,
                                    dummy_position=dummy_position))
    return subsets


# -- summaries ------------------------------------------------------------------------


def summarize_intensity(records: list[UtteranceRecord]):
    """Per-speaker and per-sentence intensity tables over the shout records.

    Returns (speaker_rows, sentence_rows), each a list of
    (key, mean, std, count). Shout records missing intensity raise
    ManifestError; speakers with no rated shout records are skipped with a
    warning.
    """
    by_speaker: dict[str, list[float]] = defaultdict(list)
    by_sentence: dict[int, list[float]] = defaultdict(list)
    speakers_seen = set()
    for r in records:
        speakers_seen.add(r.speaker_id)
        if r.style is Style.SHOUT:
            if r.intensity is None:
                raise ManifestError(f"shout record {r.path} lacks an intensity label")
            by_speaker[r.speaker_id].append(r.intensity)
            by_sentence[r.sentence_id].append(r.intensity)
    for speaker in sorted(speakers_seen - set(by_speaker)):
        warnings.warn(f"speaker {speaker} has no rated shout records; "
                      f"excluded from the summary", stacklevel=2)

    def rows(groups):
        out = []
        for key in sorted(groups):
            values = np.asarray(groups[key], dtype=np.float64)
            out.append((key, float(values.mean()), float(values.std()), len(values)))
        return out

    return rows(by_speaker), rows(by_sentence)


def write_intensity_summary(speaker_rows, sentence_rows, path) -> None:
    write_csv(path, ["group", "key", "mean", "std", "count"],
              ([group, key, repr(mean), repr(std), count]
               for group, rows in (("speaker", speaker_rows), ("sentence", sentence_rows))
               for key, mean, std, count in rows))


# -- ratings and subsets CSV round trip -----------------------------------------------

RATINGS_COLUMNS = ["worker_id", "subset_id", "item_index", "score", "is_dummy"]
SUBSETS_COLUMNS = ["subset_id", "item_index", "item_id", "is_dummy"]


def write_ratings_csv(records: list[RatingRecord], path) -> None:
    write_csv(path, RATINGS_COLUMNS,
              ([r.worker_id, r.subset_id, i, score, int(i == r.dummy_index)]
               for r in records for i, score in enumerate(r.scores)))


def read_ratings_csv(path) -> list[RatingRecord]:
    tasks = _read_tasks(path, "ratings", RATINGS_COLUMNS, lambda row: (
        (row[0], int(row[1])), int(row[2]), _rating_score(row[3]), int(row[4])))
    return [RatingRecord(worker_id=worker, subset_id=subset, scores=tuple(scores),
                         dummy_index=dummy) for (worker, subset), scores, dummy in tasks]


def _rating_score(text: str) -> int:
    score = int(text)
    if not 1 <= score <= 7:
        raise ManifestError(f"score {score} is outside the 1..7 scale")
    return score


def write_subsets_csv(subsets: list[RatingSubset], path) -> None:
    write_csv(path, SUBSETS_COLUMNS,
              ([subset.subset_id, i, "" if item is None else item, int(item is None)]
               for subset in subsets for i, item in enumerate(subset.task_order())))


def read_subsets_csv(path) -> list[RatingSubset]:
    tasks = _read_tasks(path, "subsets", SUBSETS_COLUMNS, lambda row: (
        int(row[0]), int(row[1]), row[2], int(row[3])))
    return [RatingSubset(subset_id=subset_id, item_ids=tuple(items[:dummy] + items[dummy + 1:]),
                         dummy_position=dummy) for subset_id, items, dummy in tasks]


def _read_tasks(path, what: str, columns: list[str], parse_row):
    """Group a ratings or subsets CSV into its 21-slot tasks.

    ``parse_row`` turns a row into (task key, slot, value, is_dummy). Returns
    (key, the 21 values in slot order, dummy slot) per task in key order; a
    task that misses a slot or has other than one dummy is refused.
    """
    grouped: dict = defaultdict(dict)
    for row_number, row in _numbered_rows(path, what, columns):
        try:
            key, slot, value, is_dummy = parse_row(row)
        except (ValueError, IndexError):
            raise ManifestError(f"bad {what} row", row=row_number)
        except ManifestError as exc:
            raise ManifestError(str(exc), row=row_number)
        grouped[key][slot] = (value, bool(is_dummy))
    tasks = []
    for key, slots in sorted(grouped.items()):
        if sorted(slots) != list(range(TASK_ITEMS)):
            raise ManifestError(f"{what} task {key} does not cover slots 0..{TASK_ITEMS - 1}")
        dummies = [slot for slot, (_, is_dummy) in slots.items() if is_dummy]
        if len(dummies) != 1:
            raise ManifestError(f"{what} task {key} must have exactly one dummy slot")
        tasks.append((key, [slots[slot][0] for slot in range(TASK_ITEMS)], dummies[0]))
    return tasks


def aggregate_ratings_pipeline(ratings: list[RatingRecord],
                               subsets: list[RatingSubset],
                               seed: int) -> dict[str, IntensityLabel]:
    """Full aggregation: filter spammers, pool retained scores per item,
    select ten per item and average. Returns item_id -> IntensityLabel."""
    retained = filter_spammers(ratings)
    by_subset: dict[int, RatingSubset] = {s.subset_id: s for s in subsets}
    pooled: dict[str, list[int]] = defaultdict(list)
    for record in retained:
        subset = by_subset.get(record.subset_id)
        if subset is None:
            raise ManifestError(f"ratings reference unknown subset {record.subset_id}")
        if record.dummy_index != subset.dummy_position:
            raise ManifestError(f"task ({record.worker_id}, {record.subset_id}) dummy "
                                f"position disagrees with the subset definition")
        for item_id, score in zip(subset.item_ids, record.item_scores()):
            pooled[item_id].append(score)
    labels = {}
    for item_id in sorted(pooled):
        labels[item_id] = aggregate_intensity(pooled[item_id], seed=derive_seed(seed, item_id))
    return labels


def stable_key(text: str) -> int:
    """A string hash that, unlike ``hash``, is the same in every process."""
    value = 0
    for ch in text:
        value = (value * 1000003 + ord(ch)) % (2**31)
    return value


def derive_seed(master: int, *tags) -> int:
    """Stable sub-seed from a master seed and a sequence of string/int tags."""
    parts = [int(master)] + [stable_key(tag) if isinstance(tag, str) else int(tag) & 0x7FFFFFFF
                             for tag in tags]
    return int(np.random.SeedSequence(tuple(parts)).generate_state(1)[0])


def attach_intensity(records: list[UtteranceRecord],
                     labels: dict[str, IntensityLabel]) -> list[UtteranceRecord]:
    out = []
    for r in records:
        label = labels.get(r.path)
        if label is None:
            out.append(r)
        else:
            out.append(replace(r, intensity=label.mean_score))
    return out
