"""corpus: manifest invariants, voting, spammer filter, aggregation, subsets."""

import numpy as np
import pytest

from shoutkit.corpus import (FULL_CORPUS_COUNTS, IntensityLabel, RatingRecord,
                             SentenceVote, ShoutClass, Style, UtteranceRecord,
                             aggregate_intensity, aggregate_ratings_pipeline,
                             attach_intensity, class_counts, class_for_sentence,
                             classify_sentence_votes, filter_spammers,
                             make_rating_subsets, parse_manifest, read_ratings_csv,
                             read_subsets_csv, summarize_intensity,
                             validate_manifest, write_intensity_summary,
                             write_manifest, write_ratings_csv, write_subsets_csv)
from shoutkit.errors import ConfigError, InsufficientRatingsError, ManifestError


def record(speaker="f1", sex="f", sentence=35, style=Style.SHOUT, intensity=4.0,
           path=None):
    label = class_for_sentence(style, sentence)
    return UtteranceRecord(
        speaker_id=speaker, sex=sex, sentence_id=sentence, style=style,
        class_label=label, path=path or f"{speaker}_{sentence}_{style.value}.wav",
        intensity=intensity if style is Style.SHOUT else None)


def full_corpus_records():
    """50 speakers x 50 sentences x 2 styles = 5000 records."""
    records = []
    for i in range(50):
        sex = "f" if i % 2 == 0 else "m"
        speaker = f"{sex}{i // 2 + 1}"
        for sentence in range(1, 51):
            for style in (Style.NORMAL, Style.SHOUT):
                records.append(record(speaker, sex, sentence, style,
                                      intensity=3.5 if style is Style.SHOUT else None))
    return records


class TestSentenceBands:
    def test_band_mapping(self):
        assert class_for_sentence(Style.SHOUT, 1) is ShoutClass.SHOUT_HL
        assert class_for_sentence(Style.SHOUT, 10) is ShoutClass.SHOUT_HL
        assert class_for_sentence(Style.SHOUT, 11) is ShoutClass.SHOUT_L
        assert class_for_sentence(Style.SHOUT, 30) is ShoutClass.SHOUT_L
        assert class_for_sentence(Style.SHOUT, 31) is ShoutClass.SHOUT_H
        assert class_for_sentence(Style.SHOUT, 50) is ShoutClass.SHOUT_H
        assert class_for_sentence(Style.NORMAL, 31) is ShoutClass.NORMAL

    def test_sentence_out_of_range(self):
        with pytest.raises(ManifestError):
            class_for_sentence(Style.SHOUT, 51)


class TestManifest:
    def test_full_corpus_counts(self, tmp_path):
        records = full_corpus_records()
        path = tmp_path / "manifest.csv"
        write_manifest(records, path)
        back = parse_manifest(path)
        assert len(back) == 5000
        counts = validate_manifest(back, expect_full_corpus=True)
        assert counts == FULL_CORPUS_COUNTS

    def test_style_class_inconsistency_flags_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "path,speaker,sex,sentence_id,style,class,intensity\n"
            "a.wav,f1,f,35,normal,shout_h,\n")
        with pytest.raises(ManifestError) as err:
            parse_manifest(path)
        assert "row 2" in str(err.value)

    def test_band_inconsistency_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "path,speaker,sex,sentence_id,style,class,intensity\n"
            "a.wav,f1,f,35,shout,shout_l,4.0\n")   # sentence 35 is the H band
        with pytest.raises(ManifestError):
            parse_manifest(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ManifestError):
            parse_manifest(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("path,speaker,sex,sentence_id,style,class,intensity\n")
        with pytest.raises(ManifestError):
            parse_manifest(path)

    def test_intensity_on_normal_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "path,speaker,sex,sentence_id,style,class,intensity\n"
            "a.wav,f1,f,5,normal,normal,3.0\n")
        with pytest.raises(ManifestError):
            parse_manifest(path)

    def test_intensity_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "path,speaker,sex,sentence_id,style,class,intensity\n"
            "a.wav,f1,f,35,shout,shout_h,7.5\n")
        with pytest.raises(ManifestError):
            parse_manifest(path)

    def test_round_trip(self, tmp_path):
        records = [record(sentence=5), record(sentence=20, intensity=None),
                   record(style=Style.NORMAL, sentence=12)]
        path = tmp_path / "m.csv"
        write_manifest(records, path)
        back = parse_manifest(path)
        assert back == records

    def test_wrong_counts_rejected(self):
        with pytest.raises(ManifestError):
            validate_manifest([record()], expect_full_corpus=True)


class TestSentenceVotes:
    def test_plurality_h(self):
        assert classify_sentence_votes(SentenceVote(1, 3, 1, 1)) == "h"

    def test_two_way_tie_goes_hl(self):
        assert classify_sentence_votes(SentenceVote(1, 2, 2, 1)) == "hl"

    def test_hl_plurality(self):
        assert classify_sentence_votes(SentenceVote(1, 1, 1, 3)) == "hl"

    def test_all_two_way_first_place_ties(self):
        # enumerate every vote split over 5 raters; any two-way tie -> hl
        for h in range(6):
            for l in range(6 - h):
                hl = 5 - h - l
                vote = SentenceVote(1, h, l, hl)
                result = classify_sentence_votes(vote)
                top = max(h, l, hl)
                winners = [n for n, c in (("h", h), ("l", l), ("hl", hl)) if c == top]
                if len(winners) > 1:
                    assert result == "hl"
                else:
                    assert result == winners[0]

    def test_votes_must_sum_to_five(self):
        with pytest.raises(ConfigError):
            SentenceVote(1, 3, 3, 1)


def rating(worker="w1", subset=1, dummy_score=1, dummy_index=5, fill=4):
    scores = [fill] * 21
    scores[dummy_index] = dummy_score
    return RatingRecord(worker_id=worker, subset_id=subset,
                        scores=tuple(scores), dummy_index=dummy_index)


class TestSpammerFilter:
    def test_dummy_one_kept(self):
        assert filter_spammers([rating(dummy_score=1)]) == [rating(dummy_score=1)]

    def test_dummy_two_removed(self):
        assert filter_spammers([rating(dummy_score=2)]) == []

    def test_dummy_seven_removed(self):
        assert filter_spammers([rating(dummy_score=7)]) == []

    def test_removal_is_per_task(self):
        keep = rating(worker="w9", subset=1, dummy_score=1)
        spam = rating(worker="w9", subset=2, dummy_score=5)
        assert filter_spammers([keep, spam]) == [keep]

    def test_boundary_is_exactly_two(self):
        for score in range(1, 8):
            kept = filter_spammers([rating(dummy_score=score)])
            assert bool(kept) == (score < 2)

    def test_participation_cap_warns(self):
        records = [rating(worker="busy", subset=i) for i in range(1, 5)]
        with pytest.warns(UserWarning, match="busy"):
            filter_spammers(records)


class TestAggregateIntensity:
    def test_ten_fours_mean_four(self):
        label = aggregate_intensity([4] * 10, seed=0)
        assert label.mean_score == 4.0
        assert label.contributing_ratings == (4,) * 10

    def test_twelve_ratings_pick_ten_deterministically(self):
        ratings = [1, 2, 3, 4, 5, 6, 7, 1, 2, 3, 4, 5]
        a = aggregate_intensity(ratings, seed=42)
        b = aggregate_intensity(ratings, seed=42)
        assert a == b
        assert len(a.contributing_ratings) == 10

    def test_nine_ratings_rejected(self):
        with pytest.raises(InsufficientRatingsError):
            aggregate_intensity([4] * 9, seed=0)

    def test_mean_always_in_range(self):
        rng = np.random.default_rng(0)
        for trial in range(50):
            ratings = rng.integers(1, 8, size=rng.integers(10, 30)).tolist()
            label = aggregate_intensity(ratings, seed=trial)
            assert 1.0 <= label.mean_score <= 7.0
            assert len(label.contributing_ratings) == 10

    def test_label_mean_must_match(self):
        with pytest.raises(ConfigError):
            IntensityLabel(mean_score=5.0, contributing_ratings=(4,) * 10)


class TestRatingSubsets:
    def test_125_subsets_of_21(self):
        items = [f"item{i}" for i in range(2500)]
        subsets = make_rating_subsets(items, seed=3)
        assert len(subsets) == 125
        for subset in subsets:
            order = subset.task_order()
            assert len(order) == 21
            assert order.count(None) == 1

    def test_partition_property(self):
        items = [f"item{i}" for i in range(100)]
        subsets = make_rating_subsets(items, seed=1)
        seen = [i for s in subsets for i in s.item_ids]
        assert sorted(seen) == sorted(items)
        assert len(seen) == len(set(seen))

    def test_same_seed_same_subsets(self):
        items = [f"item{i}" for i in range(60)]
        assert make_rating_subsets(items, seed=9) == make_rating_subsets(items, seed=9)

    def test_non_multiple_of_twenty_rejected(self):
        with pytest.raises(ConfigError):
            make_rating_subsets(["a"] * 30, seed=0)


class TestSummaries:
    def test_speaker_mean(self):
        records = [record(speaker="f1", sentence=31, intensity=3.0, path="a.wav"),
                   record(speaker="f1", sentence=32, intensity=5.0, path="b.wav")]
        speaker_rows, sentence_rows = summarize_intensity(records)
        assert speaker_rows == [("f1", 4.0, 1.0, 2)]
        assert [r[0] for r in sentence_rows] == [31, 32]

    def test_missing_intensity_rejected(self):
        with pytest.raises(ManifestError):
            summarize_intensity([record(intensity=None)])

    def test_speaker_without_shouts_warns(self):
        records = [record(speaker="f1", sentence=31, intensity=3.0),
                   record(speaker="m7", style=Style.NORMAL, sentence=2)]
        with pytest.warns(UserWarning, match="m7"):
            speaker_rows, _ = summarize_intensity(records)
        assert [r[0] for r in speaker_rows] == ["f1"]

    def test_summary_csv(self, tmp_path):
        records = [record(speaker="f1", sentence=31, intensity=3.0)]
        rows = summarize_intensity(records)
        path = tmp_path / "summary.csv"
        write_intensity_summary(*rows, path)
        text = path.read_text()
        assert text.startswith("group,key,mean,std,count")
        assert "speaker,f1" in text

    def test_full_corpus_grouping_covers_50_by_50(self):
        speaker_rows, sentence_rows = summarize_intensity(full_corpus_records())
        assert len(speaker_rows) == 50
        assert len(sentence_rows) == 50
        assert all(count == 50 for _, _, _, count in speaker_rows)


class TestRatingsCsv:
    def test_round_trip(self, tmp_path):
        records = [rating(worker="w1", subset=1, dummy_score=1),
                   rating(worker="w2", subset=1, dummy_score=3, dummy_index=0)]
        path = tmp_path / "ratings.csv"
        write_ratings_csv(records, path)
        assert sorted(read_ratings_csv(path), key=lambda r: r.worker_id) == records

    def test_subsets_round_trip(self, tmp_path):
        subsets = make_rating_subsets([f"i{k}" for k in range(40)], seed=5)
        path = tmp_path / "subsets.csv"
        write_subsets_csv(subsets, path)
        assert read_subsets_csv(path) == subsets


class TestAggregationPipeline:
    def make_pipeline_inputs(self, n_items=40, n_workers=12, spam_every=6):
        subsets = make_rating_subsets([f"i{k}" for k in range(n_items)], seed=2)
        rng = np.random.default_rng(0)
        ratings = []
        for subset in subsets:
            for w in range(n_workers):
                worker = f"w{w}_{subset.subset_id}"
                scores = list(rng.integers(2, 8, size=21))
                spam = (w % spam_every) == spam_every - 1
                scores[subset.dummy_position] = 5 if spam else 1
                ratings.append(RatingRecord(worker_id=worker, subset_id=subset.subset_id,
                                            scores=tuple(int(s) for s in scores),
                                            dummy_index=subset.dummy_position))
        return ratings, subsets

    def test_end_to_end_aggregation(self):
        ratings, subsets = self.make_pipeline_inputs()
        labels = aggregate_ratings_pipeline(ratings, subsets, seed=7)
        assert len(labels) == 40
        for label in labels.values():
            assert 1.0 <= label.mean_score <= 7.0
            assert len(label.contributing_ratings) == 10

    def test_pipeline_deterministic(self):
        ratings, subsets = self.make_pipeline_inputs()
        a = aggregate_ratings_pipeline(ratings, subsets, seed=7)
        b = aggregate_ratings_pipeline(ratings, subsets, seed=7)
        assert a == b

    def test_too_many_spammers_fail_aggregation(self):
        ratings, subsets = self.make_pipeline_inputs(n_workers=11, spam_every=2)
        with pytest.raises(InsufficientRatingsError):
            aggregate_ratings_pipeline(ratings, subsets, seed=7)

    def test_attach_intensity(self):
        records = [record(path="i0", intensity=None)]
        label = aggregate_intensity([4] * 10, seed=0)
        out = attach_intensity(records, {"i0": label})
        assert out[0].intensity == 4.0

    def test_labelled_manifest_reads_back_unchanged(self, tmp_path):
        records = [record(path="i0", intensity=None), record(path="i1", intensity=None),
                   record(style=Style.NORMAL, sentence=3, path="n0")]
        labels = {"i0": aggregate_intensity([4, 5, 5, 6, 3, 4, 4, 5, 7, 2], seed=0)}
        labelled = attach_intensity(records, labels)
        path = tmp_path / "manifest.csv"
        write_manifest(labelled, path)
        assert parse_manifest(path) == labelled


def test_class_counts_shape():
    counts = class_counts([record(style=Style.NORMAL, sentence=3), record(sentence=35)])
    assert counts == {"normal": 1, "shout_h": 1, "shout_l": 0, "shout_hl": 0}
