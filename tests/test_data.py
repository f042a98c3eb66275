"""CoNLL parsing, span extraction, micro-F1, and the rare-type sampler."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from labeltransfer import data
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
    micro_f1_ids,
    parse_conll,
)
from labeltransfer.pipeline import tags_for
from labeltransfer.synth import SynthSpec, generate

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


def _reference_repair_tags(tags):
    repaired = 0
    prev_type = None
    out = []
    for tag in tags:
        if tag.startswith("I-"):
            t = tag[2:]
            if prev_type != t:
                tag = "B-" + t
                repaired += 1
        out.append(tag)
        prev_type = entity_type(tag)
    return out, repaired


def reference_parse_conll(text):
    """The parser before it checked each distinct tag once: a reference, not a fixture."""
    sentences = []
    repairs = 0
    cur_tokens, cur_tags = [], []

    def flush():
        nonlocal repairs
        if cur_tokens:
            fixed, n = _reference_repair_tags(cur_tags)
            repairs += n
            sentences.append((tuple(cur_tokens), tuple(fixed)))
            cur_tokens.clear()
            cur_tags.clear()

    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            flush()
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ParseError(f"line {lineno}: expected 'token tag', got {line!r}")
        token, tag = fields
        if tag != "O" and (len(tag) == 2 or not (tag.startswith("B-") or tag.startswith("I-"))):
            raise ParseError(f"line {lineno}: malformed tag {tag!r}")
        cur_tokens.append(token)
        cur_tags.append(tag)
    flush()
    return TaggedCorpus(tuple(sentences), repairs=repairs)


# token lines of any BIO sequence, well formed or not, and blank lines of any whitespace
CONLL_LINES = st.lists(st.one_of(
    st.tuples(st.sampled_from(["w", "x", "héllo"]),
              st.sampled_from(["O", "B-PER", "I-PER", "B-LOC", "I-LOC", "I-X", "B-X"]),
              st.sampled_from([" ", "\t", "  "])).map(lambda f: f"{f[0]}{f[2]}{f[1]}"),
    st.sampled_from(["", " ", "\t"]),
), max_size=30)
MALFORMED_LINES = ["a b c", "a B-", "a I-", "a X-Y", "a b-PER", "lonely"]


@settings(max_examples=200, deadline=None)
@given(CONLL_LINES, st.sampled_from(["\n", "\r\n"]), st.booleans())
def test_parse_conll_equals_the_reference_parser(lines, newline, final_newline):
    text = newline.join(lines) + (newline if final_newline else "")
    expected = reference_parse_conll(text)
    corpus = parse_conll(text)
    assert corpus.sentences == expected.sentences and corpus.repairs == expected.repairs


@settings(max_examples=200, deadline=None)
@given(CONLL_LINES, st.sampled_from(["\n", "\r\n"]), st.sampled_from(MALFORMED_LINES),
       st.integers(0, 30))
def test_parse_conll_malformed_line_error_equals_the_reference(lines, newline, bad, at):
    at = min(at, len(lines))
    text = newline.join(lines[:at] + [bad] + lines[at:]) + newline
    with pytest.raises(ParseError) as expected:
        reference_parse_conll(text)
    with pytest.raises(ParseError) as raised:
        parse_conll(text)
    assert str(raised.value) == str(expected.value)
    assert str(raised.value).startswith(f"line {at + 1}: ")


def test_the_corpus_holds_one_string_per_distinct_token_and_tag():
    corpus = generate(SynthSpec(seed=3)).target_test
    label = corpus.label_set[0]
    # orphan I's: a repair's B- tag before and after the literal one
    text = f"a I-NEW\nb O\n\nc B-NEW\nd I-NEW\n\n{corpus.to_conll()}\ne O\nf I-{label}\n"
    parsed = parse_conll(text)
    assert parsed.repairs == 2
    for column in (0, 1):
        strings = [s for sentence in parsed.sentences for s in sentence[column]]
        assert len({id(s) for s in strings}) == len(set(strings))


# sentence breaks, blank lines of whitespace, \r\n lines and three repairs, over 64 characters
SLICED_TEXT = ("alpha B-PER\r\nbeta I-PER\n\ngamma I-LOC\r\n \r\ndelta O\n"
               "epsilon B-LOC\n\t\nzeta I-LOC\neta O\r\n\ntheta I-PER\niota O\n")


def test_slices_of_any_size_give_the_reference_parse(monkeypatch):
    lines = SLICED_TEXT.split("\n")
    for size in range(1, 65):
        monkeypatch.setattr(data, "SLICE_CHARS", size)
        pieces = list(data._slices(SLICED_TEXT))
        assert len(pieces) > 1 and all(len(piece) >= size for piece in pieces[:-1])
        for text in (SLICED_TEXT, SLICED_TEXT.rstrip("\n")):
            expected, corpus = reference_parse_conll(text), parse_conll(text)
            assert (corpus.sentences, corpus.repairs) == (expected.sentences, expected.repairs)
        for at in range(len(lines)):
            text = "\n".join(lines[:at] + ["a b c\r"] + lines[at:])
            with pytest.raises(ParseError) as expected:
                reference_parse_conll(text)
            with pytest.raises(ParseError) as raised:
                parse_conll(text)
            assert str(raised.value) == str(expected.value)
            assert str(raised.value).startswith(f"line {at + 1}: ")


def _corpus_text(sentences: int) -> str:
    """``sentences`` sentences of 8 to 14 tokens, drawn from 50 distinct tokens and 5 tags."""
    rng = np.random.default_rng(sentences)
    words = [f"word{k}" for k in range(50)]
    tags = ["O", "B-A", "I-A", "B-B", "I-B"]
    blocks = []
    for _ in range(sentences):
        n = int(rng.integers(8, 15))
        blocks.append("\n".join(f"{words[w]} {tags[t]}"
                                for w, t in zip(rng.integers(0, 50, n), rng.integers(0, 5, n))))
    return "\n\n".join(blocks) + "\n"


def _parse_memory(text: str) -> tuple[float, int]:
    """(bytes per token the parsed corpus keeps, peak bytes beyond them), by tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        corpus = parse_conll(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (kept - before) / sum(len(tokens) for tokens, _ in corpus.sentences), peak - kept


def test_parsing_keeps_no_string_per_token_and_no_list_of_every_line():
    per_token, transient = _parse_memory(_corpus_text(20_000))
    _, transient_5k = _parse_memory(_corpus_text(5_000))
    # a string per token and tag would keep about 100 B per token, and the list of
    # every line takes about 9 times the text (3.5 MB at 5,000 sentences, 14 MB at 20,000)
    assert per_token < 40
    assert transient < 1_000_000
    assert abs(transient - transient_5k) < 250_000


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


@st.composite
def tag_id_corpora(draw):
    """(labels, sentence lengths, gold ids, predicted ids) of random BIO taggings.

    Ids are drawn freely, so orphan I's, type switches and I's at a sentence
    start all occur; the prediction is the gold with a few tokens changed, or
    independent of it.
    """
    labels = ["A", "B", "C"][: draw(st.integers(1, 3))]
    tag = st.integers(0, 2 * len(labels))
    lengths = draw(st.lists(st.integers(1, 6), max_size=6))
    n = sum(lengths)
    gold = draw(st.lists(tag, min_size=n, max_size=n))
    if draw(st.booleans()):
        pred = draw(st.lists(tag, min_size=n, max_size=n))
    else:
        pred = list(gold)
        for k, t in draw(st.lists(st.tuples(st.integers(0, max(n - 1, 0)), tag), max_size=3)):
            if n:
                pred[k] = t
    return labels, lengths, gold, pred


def _as_corpus(tags, lengths, ids):
    sentences, start = [], 0
    for n in lengths:
        sentences.append((("w",) * n, tuple(tags[i] for i in ids[start : start + n])))
        start += n
    return TaggedCorpus(tuple(sentences))


@settings(max_examples=300, deadline=None)
@example((["A"], [], [], []))  # empty corpus
@example((["A", "B"], [3, 1], [0, 0, 0, 0], [0, 0, 0, 0]))  # no entities
@example((["A", "B"], [3, 1], [0, 0, 0, 0], [1, 2, 0, 3]))  # no gold entities
@example((["A"], [3], [2, 2, 0], [1, 2, 0]))  # orphan I's in the gold
@example((["A"], [2, 2], [1, 2, 2, 2], [1, 2, 1, 2]))  # an I at a sentence start
@example((["A", "B"], [3, 1, 1], [1, 4, 4, 1, 2], [1, 2, 4, 1, 1]))  # type switch, one-token sentences
@given(tag_id_corpora())
def test_micro_f1_ids_equals_micro_f1_of_string_spans(case):
    labels, lengths, gold, pred = case
    tags = tags_for(labels)
    expected = micro_f1(extract_spans(_as_corpus(tags, lengths, gold)),
                        extract_spans(_as_corpus(tags, lengths, pred)))
    assert micro_f1_ids(np.array(gold, dtype=np.intp), np.array(pred, dtype=np.intp),
                        lengths) == expected


def test_micro_f1_ids_rejects_arrays_of_other_lengths():
    with pytest.raises(InputError):
        micro_f1_ids(np.zeros(3, dtype=np.intp), np.zeros(2, dtype=np.intp), [3])
    with pytest.raises(InputError):
        micro_f1_ids(np.zeros(3, dtype=np.intp), np.zeros(3, dtype=np.intp), [2])
    with pytest.raises(InputError):  # a negative length, though the lengths sum to the tokens
        micro_f1_ids(np.zeros(4, dtype=np.intp), np.zeros(4, dtype=np.intp), [5, -1])
    for gold, pred in (([-1, 0], [1, 0]), ([1, 0], [-1, 0])):  # -1 % 2 == 1 would read as a B
        with pytest.raises(InputError):
            micro_f1_ids(np.array(gold), np.array(pred), [2])


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
