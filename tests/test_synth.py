"""Synthetic two-domain corpus generator."""

import hashlib
import os

import numpy as np
import pytest

from labeltransfer.data import entity_counts, extract_spans, parse_conll
from labeltransfer.errors import InputError
from labeltransfer.synth import TRANSFER_MIX, TRANSFER_SPEC, SynthSpec, generate, write_task


def test_generate_deterministic():
    a = generate(SynthSpec(seed=5))
    b = generate(SynthSpec(seed=5))
    assert a.source_train.sentences == b.source_train.sentences
    assert a.target_test.sentences == b.target_test.sentences


def test_generate_seed_sensitivity():
    a = generate(SynthSpec(seed=5))
    b = generate(SynthSpec(seed=6))
    assert a.source_train.sentences != b.source_train.sentences


def test_label_sets():
    task = generate(SynthSpec(seed=0))
    assert task.source_train.label_set == ("L1", "L2")
    assert task.target_train.label_set == ("L1A", "L1B", "L2A", "L2B")


def test_corpus_sizes():
    spec = SynthSpec(seed=0, source_sentences=17, source_test_sentences=5,
                     target_train_sentences=9, target_test_sentences=11)
    task = generate(spec)
    assert len(task.source_train.sentences) == 17
    assert len(task.source_test.sentences) == 5
    assert len(task.target_train.sentences) == 9
    assert len(task.target_test.sentences) == 11


def test_generated_tags_are_valid_bio():
    task = generate(SynthSpec(seed=1))
    for corpus in (task.source_train, task.target_train, task.target_test):
        text = corpus.to_conll()
        reparsed = parse_conll(text)
        assert reparsed.repairs == 0
        assert reparsed.sentences == corpus.sentences


def test_every_target_type_appears():
    task = generate(SynthSpec(seed=2))
    counts = entity_counts(task.target_train)
    assert set(counts) == {"L1A", "L1B", "L2A", "L2B"}
    assert all(c > 0 for c in counts.values())


def test_entity_length_bounds():
    spec = SynthSpec(seed=3, entity_length=(1, 1))
    task = generate(spec)
    for span in extract_spans(task.target_train):
        assert span.end - span.start == 1
    spec2 = SynthSpec(seed=3, entity_length=(2, 3))
    lengths = {s.end - s.start for s in extract_spans(generate(spec2).target_train)}
    assert lengths <= {2, 3}


def test_mixture_normalization_and_default():
    spec = SynthSpec(seed=0, target_mixtures={"L1A": {"L1": 3.0, "L2": 1.0}})
    assert spec.mixture("L1A") == {"L1": 0.75, "L2": 0.25}
    assert spec.mixture("L2B") == {"L2": 1.0}


def test_split_cue_scheme_places_subtype_cue_adjacent():
    spec = SynthSpec(seed=4, cue_scheme="split", cue_prob=1.0,
                     sentence_length=(8, 12), entity_length=(1, 1),
                     entities_per_sentence=(1, 1))
    task = generate(spec)
    seen_sub = 0
    for si, (tokens, tags) in enumerate(task.target_train.sentences):
        for span in extract_spans(task.target_train):
            if span.sentence_index != si or span.start == 0:
                continue
            prev = tokens[span.start - 1]
            if prev.startswith("sub"):
                seen_sub += 1
                subtype = span.entity_type[-1].lower()
                assert prev.startswith(f"sub{subtype}_cue")
    assert seen_sub > 50  # adjacent subtype cues are the norm under cue_prob=1


def test_from_json_round_trip_and_unknown_field():
    spec = SynthSpec.from_json('{"seed": 9, "sentence_length": [6, 8]}')
    assert spec.seed == 9 and spec.sentence_length == (6, 8)
    with pytest.raises(ValueError):
        SynthSpec.from_json('{"not_a_field": 1}')


def test_write_task_round_trip(tmp_path):
    task = generate(SynthSpec(seed=0, source_sentences=5, source_test_sentences=2,
                              target_train_sentences=3, target_test_sentences=2))
    write_task(task, str(tmp_path))
    for name in ("source_train", "source_test", "target_train", "target_test"):
        path = tmp_path / f"{name}.conll"
        assert path.exists()
        reparsed = parse_conll(path.read_text())
        assert reparsed.sentences == getattr(task, name).sentences
    assert len(os.listdir(tmp_path)) == 4


def corpora_sha(task) -> str:
    h = hashlib.sha256()
    for name in ("source_train", "source_test", "target_train", "target_test"):
        h.update(getattr(task, name).to_conll().encode())
    return h.hexdigest()


@pytest.mark.parametrize(
    "spec, digest",
    [
        (SynthSpec(seed=0),
         "aa5f60525d8fcd07b2277fa50e8938ed86f60f8e3c01f62d361969c00bfe2ccc"),
        (SynthSpec(seed=0, target_mixtures=TRANSFER_MIX, **TRANSFER_SPEC),
         "159bea5f759901c4b00c93d5ef6a6d287e78845e6cf237644cb868e67bcd4f5c"),
        (SynthSpec(seed=4, cue_scheme="split", cue_prob=1.0, sentence_length=(8, 12),
                   entity_length=(1, 1), entities_per_sentence=(1, 1)),
         "944889ddcd5ceeafa17965c9d81f34abe0c9066ef0606bbe23d10757b8fcb621"),
        (SynthSpec(seed=3, entity_length=(2, 3)),
         "c5e8f6908a6b5e9b63c63d8b51d230d0f82440d19f7d9f709646279e25152a44"),
    ],
    ids=["default", "transfer", "split_cues", "long_entities"],
)
def test_corpora_match_recorded_hashes(spec, digest):
    # every recorded gate margin and benchmark F1 was measured on these corpora
    assert corpora_sha(generate(spec)) == digest


def test_entity_longer_than_the_sentence_is_skipped():
    task = generate(SynthSpec(seed=0, sentence_length=(3, 8), entity_length=(6, 6),
                              source_sentences=40, target_test_sentences=40))
    spans = extract_spans(task.source_train)
    assert spans and all(span.end - span.start == 6 for span in spans)


@pytest.mark.parametrize(
    "fields",
    [
        {"seed": -1},
        {"entity_length": (3, 1)},
        {"sentence_length": (0, 4)},
        {"cue_prob": 1.5},
        {"distractor_prob": float("nan")},
        {"source_labels": ("L1",)},
        {"target_parents": {}},
        {"target_mixtures": {"L1A": {"L3": 1.0}}},
        {"target_mixtures": {"L1A": {"L1": -1.0, "L2": 2.0}}},
        {"target_mixtures": {"L1A": {"L1": 0.0}}},
        {"target_mixtures": {"L9": {"L1": 1.0}}},
        {"source_labels": ("L1", "L2", "L 3")},
        {"target_parents": {"L1A": "L1", "": "L2"}},
    ],
    ids=["negative_seed", "reversed_range", "empty_sentences", "cue_prob_above_1",
         "nan_distractor_prob", "parent_not_a_source_label", "no_target_labels",
         "mixture_source_unknown", "negative_weight", "zero_weights", "mixture_label_unknown",
         "label_with_space", "empty_label"],
)
def test_spec_rejects_out_of_range_values(fields):
    with pytest.raises(InputError):
        SynthSpec(**fields)


def test_spec_accepts_zero_sentence_counts():
    task = generate(SynthSpec(seed=0, source_sentences=0, source_test_sentences=0,
                              target_train_sentences=0, target_test_sentences=3))
    assert len(task.source_train.sentences) == 0 and len(task.target_test.sentences) == 3
