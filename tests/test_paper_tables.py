"""The paper's tables are stated once: each feature kind carries its width and
SKFB kind byte, a four-class label is the class's position in ``ShoutClass``,
and synthetic sentences come from ``class_for_sentence``. A guard keeps
source modules from restating a table as a dict keyed by enum members."""

import ast
from pathlib import Path

import numpy as np
import pytest

import shoutkit
from shoutkit.audio_io import AudioClip
from shoutkit.corpus import ShoutClass, Style, UtteranceRecord, class_for_sentence
from shoutkit.experiments import label_for_task, make_classification_corpus
from shoutkit.features import FRAME_LENGTH, HOP_LENGTH, FeatureKind, feature_matrix

SOURCE_ROOT = Path(shoutkit.__file__).parent
TABLE_ENUMS = ("FeatureKind", "ShoutClass")


def enum_keyed_dicts(source: str) -> list[int]:
    """Line numbers of the dict literals in ``source`` with a key that is a
    member of ``FeatureKind`` or ``ShoutClass``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Dict):
            continue
        for key in node.keys:
            owner = key.value if isinstance(key, ast.Attribute) else None
            name = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
            if name in TABLE_ENUMS:
                lines.append(node.lineno)
                break
    return sorted(lines)


def test_no_source_module_restates_a_table_keyed_by_enum_members():
    found = [f"{path.relative_to(SOURCE_ROOT)}:{line}"
             for path in sorted(SOURCE_ROOT.rglob("*.py"))
             for line in enum_keyed_dicts(path.read_text(encoding="utf-8"))]
    assert not found, f"dict keyed by FeatureKind or ShoutClass members at {', '.join(found)}"


@pytest.mark.parametrize("snippet", [
    "{FeatureKind.TMFCC: 30}",
    "{ShoutClass.NORMAL: 0, ShoutClass.SHOUT_H: 1}",
    "{'x': 1, FeatureKind.SPECTROGRAM: 512}",
    "f({ShoutClass.SHOUT_L: range(11, 31)})",
    "{features.FeatureKind.CEPSTROGRAM: 2}",
    "{\n  ShoutClass.SHOUT_HL: 3,\n}",
])
def test_guard_flags_each_form_of_enum_keyed_dict(snippet):
    assert enum_keyed_dicts(f"x = 1\n{snippet}\n") == [2]


@pytest.mark.parametrize("snippet", [
    "{kind.code: kind for kind in FeatureKind}",
    "{'tmfcc': 30}",
    "{**other}",
    "(FeatureKind.SPECTROGRAM, FeatureKind.CEPSTROGRAM)",
    "{c.value: 0 for c in ShoutClass}",
    "{Style.SHOUT: 1}",
])
def test_guard_passes_derived_tables_and_other_keys(snippet):
    assert enum_keyed_dicts(snippet) == []


def test_feature_kind_table():
    assert [(k.value, k.dim, k.code) for k in FeatureKind] == [
        ("spectrogram", 512, 1), ("cepstrogram", 512, 2), ("mel_spectrogram", 30, 3),
        ("tmfcc", 30, 4), ("mfcc_delta_delta", 60, 5)]
    assert FeatureKind("tmfcc") is FeatureKind.TMFCC


def test_every_kind_computes_its_stated_width():
    n = FRAME_LENGTH + 24 * HOP_LENGTH
    clip = AudioClip(0.3 * np.random.default_rng(0).uniform(-1, 1, n), 16000, "c")
    for kind in FeatureKind:
        assert feature_matrix(clip, kind).shape == (kind.dim, 25), kind


@pytest.mark.parametrize("style, sentence, label", [
    (Style.NORMAL, 40, 0), (Style.SHOUT, 40, 1), (Style.SHOUT, 20, 2), (Style.SHOUT, 5, 3)])
def test_four_class_labels(style, sentence, label):
    record = UtteranceRecord(speaker_id="f01", sex="f", sentence_id=sentence, style=style,
                             class_label=class_for_sentence(style, sentence), path="a.wav")
    assert label_for_task(record, "four_class") == label


def test_four_class_synth_label_is_the_class_position():
    examples = make_classification_corpus(n_clips=32, n_speakers=2, n_classes=4, seed=9)
    assert {e.class_index for e in examples} == {0, 1, 2, 3}
    for e in examples:
        assert list(ShoutClass)[e.class_index] is e.class_label
        assert class_for_sentence(e.style, e.sentence_id) is e.class_label
