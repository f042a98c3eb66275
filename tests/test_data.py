"""CoNLL parsing, span extraction, micro-F1, and the rare-type sampler."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labeltransfer.data import (
    EntitySpan,
    InputError,
    ParseError,
    TaggedCorpus,
    entity_counts,
    entity_type,
    extract_spans,
    greedy_sample,
    micro_f1,
    parse_conll,
)

# -- parsing -------------------------------------------------------------------


def test_parse_minimal():
    corpus = parse_conll("john B-PER\nsmith I-PER\nruns O\n")
    assert corpus.sentences == ((("john", "smith", "runs"), ("B-PER", "I-PER", "O")),)
    assert corpus.label_set == ("PER",)
    assert corpus.repairs == 0


def test_parse_blank_line_splits_sentences():
    corpus = parse_conll("a B-X\n\nb B-Y\n")
    assert len(corpus.sentences) == 2


def test_parse_orphan_inside_repaired():
    corpus = parse_conll("a O\nb I-LOC\nc I-LOC\n")
    assert corpus.sentences[0][1] == ("O", "B-LOC", "I-LOC")
    assert corpus.repairs == 1


def test_parse_type_switch_repaired():
    corpus = parse_conll("a B-PER\nb I-LOC\n")
    assert corpus.sentences[0][1] == ("B-PER", "B-LOC")
    assert corpus.repairs == 1


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse_conll("a B-X\nbad_line_without_tag\n")
    assert "2" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        parse_conll("a B-X\nb QZ-X\n")
    assert "2" in str(exc.value)
    for empty_type in ("B-", "I-"):
        with pytest.raises(ParseError) as exc:
            parse_conll(f"a O\nb {empty_type}\n")
        assert "line 2" in str(exc.value)


def test_parse_empty_text_gives_empty_corpus():
    assert parse_conll("").sentences == ()


def test_conll_round_trip():
    text = "john B-PER\nsmith I-PER\nruns O\n\nparis B-LOC\n"
    corpus = parse_conll(text)
    assert parse_conll(corpus.to_conll()).sentences == corpus.sentences


def test_entity_type_helper():
    assert entity_type("B-PER") == "PER"
    assert entity_type("I-LOC") == "LOC"
    assert entity_type("O") is None


# -- span extraction -----------------------------------------------------------


def test_extract_spans_basic():
    corpus = parse_conll("john B-PER\nsmith I-PER\nruns O\nparis B-LOC\n")
    spans = set(extract_spans(corpus))
    assert spans == {
        EntitySpan(0, 0, 2, "PER"),
        EntitySpan(0, 3, 4, "LOC"),
    }


def test_extract_spans_adjacent_entities():
    corpus = parse_conll("a B-X\nb B-X\n")
    assert len(extract_spans(corpus)) == 2


def brute_force_spans(corpus):
    """Oracle: scan tags directly, closing a span on O, B-, or type change."""
    out = set()
    for si, (tokens, tags) in enumerate(corpus.sentences):
        start, cur = None, None
        for k, tag in enumerate(tags + ("O",)):
            t = entity_type(tag)
            begins = tag.startswith("B-")
            if start is not None and (t != cur or begins or tag == "O"):
                out.add(EntitySpan(si, start, k, cur))
                start, cur = None, None
            if t is not None and start is None:
                start, cur = k, t
        # handled by the sentinel "O"
    return out


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 100_000))
def test_extract_spans_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    sentences = []
    for _ in range(4):
        n = int(rng.integers(1, 9))
        tags = [str(rng.choice(["O", "B-A", "I-A", "B-B", "I-B"])) for _ in range(n)]
        sentences.append("\n".join(f"w{k} {t}" for k, t in enumerate(tags)))
    corpus = parse_conll("\n\n".join(sentences) + "\n")
    assert set(extract_spans(corpus)) == brute_force_spans(corpus)


# -- micro F1 ----------------------------------------------------------------------


def test_micro_f1_perfect():
    spans = extract_spans(parse_conll("a B-X\nb O\n"))
    assert micro_f1(spans, spans) == (1.0, 1.0, 1.0)


def test_micro_f1_half_case():
    # 2 gold entities, prediction finds 1 correctly plus 1 spurious
    gold = extract_spans(parse_conll("a B-X\nb O\nc B-Y\nd O\n"))
    pred = extract_spans(parse_conll("a B-X\nb O\nc O\nd B-Y\n"))
    assert micro_f1(gold, pred) == (0.5, 0.5, 0.5)


def test_micro_f1_no_predictions():
    gold = extract_spans(parse_conll("a B-X\n"))
    assert micro_f1(gold, []) == (0.0, 0.0, 0.0)


def test_micro_f1_empty_gold():
    pred = extract_spans(parse_conll("a B-X\n"))
    assert micro_f1([], pred) == (0.0, 0.0, 0.0)


def brute_force_f1(gold, pred):
    gs, ps = set(gold), set(pred)
    tp = len(ps & gs)
    p = tp / len(ps) if ps else 0.0
    r = tp / len(gs) if gs else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000))
def test_micro_f1_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    lengths = [int(rng.integers(1, 7)) for _ in range(3)]

    def random_corpus(shape_seed):
        r = np.random.default_rng(shape_seed)
        sents = []
        for n in lengths:
            tags = [str(r.choice(["O", "B-A", "I-A", "B-B"])) for _ in range(n)]
            sents.append("\n".join(f"w{k} {t}" for k, t in enumerate(tags)))
        return parse_conll("\n\n".join(sents) + "\n")

    gold = extract_spans(random_corpus(seed))
    pred = extract_spans(random_corpus(seed + 1))
    assert micro_f1(gold, pred) == pytest.approx(brute_force_f1(gold, pred))


# -- sampler ---------------------------------------------------------------------------


def build_sampler_corpus(rng, type_counts, sentences=None):
    """Corpus where each sentence carries exactly one entity of one type."""
    sents = []
    for label, count in type_counts.items():
        for _ in range(count):
            filler = int(rng.integers(1, 4))
            toks = [f"w{int(rng.integers(50))}" for _ in range(filler)] + ["ent"]
            tags = ["O"] * filler + [f"B-{label}"]
            sents.append((tuple(toks), tuple(tags)))
    rng.shuffle(sents)
    return TaggedCorpus(tuple(sents))


def test_greedy_sample_reaches_quota():
    rng = np.random.default_rng(0)
    corpus = build_sampler_corpus(rng, {"A": 80, "B": 70, "C": 90})
    sample = greedy_sample(corpus, k=20, seed=1)
    counts = entity_counts(sample)
    assert all(counts[label] >= 20 for label in ("A", "B", "C"))


def test_greedy_sample_includes_all_of_scarce_type():
    rng = np.random.default_rng(1)
    corpus = build_sampler_corpus(rng, {"A": 50, "B": 3})
    sample = greedy_sample(corpus, k=20, seed=0)
    counts = entity_counts(sample)
    assert counts["B"] == 3  # every occurrence of the scarce type is kept
    assert counts["A"] >= 20


def test_greedy_sample_deterministic():
    rng = np.random.default_rng(2)
    corpus = build_sampler_corpus(rng, {"A": 40, "B": 40})
    s1 = greedy_sample(corpus, k=10, seed=7)
    s2 = greedy_sample(corpus, k=10, seed=7)
    assert s1.sentences == s2.sentences


def test_greedy_sample_seed_changes_selection():
    rng = np.random.default_rng(3)
    corpus = build_sampler_corpus(rng, {"A": 60, "B": 60})
    s1 = greedy_sample(corpus, k=5, seed=0)
    s2 = greedy_sample(corpus, k=5, seed=1)
    assert s1.sentences != s2.sentences


def test_greedy_sample_rejects_bad_k():
    corpus = parse_conll("a B-X\n")
    with pytest.raises(InputError):
        greedy_sample(corpus, k=0, seed=0)


def test_greedy_sample_multi_type_sentences_pool():
    # sentences carrying two types at once should count toward both quotas
    text = "\n\n".join("a B-X\nb B-Y" for _ in range(30)) + "\n"
    corpus = parse_conll(text)
    sample = greedy_sample(corpus, k=10, seed=0)
    counts = entity_counts(sample)
    assert counts["X"] >= 10 and counts["Y"] >= 10
    # shared sentences: both quotas met with no more sentences than needed
    assert len(sample.sentences) <= 12


def test_entity_counts():
    corpus = parse_conll("a B-X\nb I-X\nc B-X\nd B-Y\n")
    assert entity_counts(corpus) == {"X": 2, "Y": 1}
