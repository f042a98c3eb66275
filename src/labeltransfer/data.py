"""CoNLL/BIO corpus handling, span extraction, micro-F1, few-shot sampling."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import InputError, ParseError


def entity_type(tag: str) -> str | None:
    """Entity type of a BIO tag, or None for O."""
    if tag == "O":
        return None
    return tag[2:]


@dataclass(frozen=True)
class EntitySpan:
    sentence_index: int
    start: int
    end: int  # exclusive
    entity_type: str

    def __post_init__(self):
        if not (0 <= self.start < self.end):
            raise InputError("invalid span bounds")


@dataclass(frozen=True)
class TaggedCorpus:
    sentences: tuple  # of (tokens: tuple[str], tags: tuple[str])
    repairs: int = 0

    @property
    def label_set(self) -> tuple[str, ...]:
        labels = set()
        for _, tags in self.sentences:
            for t in tags:
                et = entity_type(t)
                if et is not None:
                    labels.add(et)
        return tuple(sorted(labels))

    def tokens(self):
        for si, (tokens, tags) in enumerate(self.sentences):
            for k, (tok, tag) in enumerate(zip(tokens, tags)):
                yield si, k, tok, tag

    def to_conll(self) -> str:
        blocks = []
        for tokens, tags in self.sentences:
            blocks.append("\n".join(f"{tok} {tag}" for tok, tag in zip(tokens, tags)))
        return "\n\n".join(blocks) + ("\n" if blocks else "")


# `parse_conll` splits its text into lines this many characters at a time (each
# slice runs on to the next newline), so a corpus never holds all its lines at once.
SLICE_CHARS = 64 * 1024


def _slices(text: str):
    """``text`` cut at the first newline after every ``SLICE_CHARS`` characters.

    The cut newlines are dropped, so splitting each slice at its newlines gives
    the lines of ``text.split("\\n")``; only a trailing empty line, which ends no
    sentence and holds no error, may be left out.
    """
    start, end = 0, len(text)
    while start < end:
        cut = text.find("\n", start + SLICE_CHARS)
        stop = end if cut < 0 else cut
        yield text[start:stop]
        start = stop + 1


def parse_conll(text: str | bytes) -> TaggedCorpus:
    """One token+tag per line, whitespace separated, blank line between sentences.

    Lenient BIO: an I-X that does not continue an X run becomes B-X, and
    ``repairs`` counts those tags. Each distinct tag is checked once. The
    corpus holds one string object per distinct token and per distinct tag,
    and the text is split ``SLICE_CHARS`` characters at a time, so neither
    the corpus nor the parse grows with a string per line.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"corpus is not UTF-8: {exc}") from exc
    sentences = []
    repairs = 0
    tokens: list[str] = []
    tags: list[str] = []
    prev_type = None
    # token -> the one string the corpus holds for it
    vocab: dict[str, str] = {}
    # tag -> (the one string the corpus holds for it, entity type, and the
    # held B- tag if the tag is an I- tag, else None)
    kinds: dict[str, tuple[str, str | None, str | None]] = {"O": ("O", None, None)}
    lines = chain.from_iterable(piece.split("\n") for piece in _slices(text))
    for lineno, line in enumerate(lines, start=1):
        fields = line.split()
        if not fields:
            if tokens:
                sentences.append((tuple(tokens), tuple(tags)))
                tokens, tags = [], []
            prev_type = None
            continue
        if len(fields) != 2:
            raise ParseError(f"line {lineno}: expected 'token tag', got {line!r}")
        token, tag = fields
        kind = kinds.get(tag)
        if kind is None:
            # a B-/I- tag needs a non-empty type
            if len(tag) == 2 or not tag.startswith(("B-", "I-")):
                raise ParseError(f"line {lineno}: malformed tag {tag!r}")
            etype = tag[2:]
            b_tag = "B-" + etype
            b_tag, etype, _ = kinds.setdefault(b_tag, (b_tag, etype, None))
            kind = kinds.setdefault(tag, (tag, etype, b_tag))
        tag, etype, begin = kind
        if begin is not None and prev_type != etype:
            tag = begin
            repairs += 1
        prev_type = etype
        tokens.append(vocab.setdefault(token, token))
        tags.append(tag)
    if tokens:
        sentences.append((tuple(tokens), tuple(tags)))
    return TaggedCorpus(tuple(sentences), repairs=repairs)


def extract_spans(corpus: TaggedCorpus) -> list[EntitySpan]:
    """Maximal B-X (I-X)* runs as entity spans."""
    spans = []
    for si, (_, tags) in enumerate(corpus.sentences):
        start = None
        cur_type = None
        for k, tag in enumerate(tags):
            if tag.startswith("B-"):
                if start is not None:
                    spans.append(EntitySpan(si, start, k, cur_type))
                start, cur_type = k, tag[2:]
            elif tag.startswith("I-") and cur_type == tag[2:] and start is not None:
                continue
            else:
                if start is not None:
                    spans.append(EntitySpan(si, start, k, cur_type))
                    start, cur_type = None, None
        if start is not None:
            spans.append(EntitySpan(si, start, len(tags), cur_type))
    return spans


def micro_f1(gold: list[EntitySpan], pred: list[EntitySpan]) -> tuple[float, float, float]:
    """Exact-match precision/recall/F1 pooled over all spans."""
    gold_set = set(gold)
    pred_set = set(pred)
    tp = len(gold_set & pred_set)
    precision = tp / len(pred_set) if pred_set else 0.0
    recall = tp / len(gold_set) if gold_set else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


def _span_breaks(ids: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Sorted positions at which an open span ends, then ``len(ids)``.

    An open span of type k runs on through an I of type k whose predecessor
    in the sentence is a B or I of type k; any other position ends it. So the
    span a B opens ends at the first break after it: `extract_spans`'s rule,
    under which an I that does not continue its type opens no span.
    """
    types = (ids - 1) // 2  # O is -1
    continues = (ids > 0) & (ids % 2 == 0) & ~first
    continues[1:] &= types[1:] == types[:-1]
    return np.append(np.flatnonzero(~continues), len(ids))


def micro_f1_ids(gold: np.ndarray, pred: np.ndarray, lengths) -> tuple[float, float, float]:
    """`micro_f1` of the `extract_spans` of two taggings of one corpus, given as tag ids.

    ``gold`` and ``pred`` hold the concatenated sentences' tag ids in the
    order of `pipeline.tags_for` (O = 0, B of type k = 2k + 1, I of type
    k = 2k + 2); ``lengths`` are the sentences' token counts. Spans match
    when they start at the same B, of the same type, and end at the same
    token; the float expressions are `micro_f1`'s, so the values are equal.
    """
    gold, pred, lengths = np.asarray(gold), np.asarray(pred), np.asarray(lengths, dtype=np.intp)
    if gold.shape != pred.shape or gold.shape != (lengths.sum(),):
        raise InputError(f"tag id arrays of shapes {gold.shape} and {pred.shape} "
                         f"do not hold {lengths.sum()} tokens")
    # a negative length could still sum to the token count, and -1 % 2 would read as a B
    if (lengths < 0).any() or (gold < 0).any() or (pred < 0).any():
        raise InputError("sentence lengths and tag ids must not be negative")
    starts = np.cumsum(lengths) - lengths
    first = np.zeros(len(gold), dtype=bool)
    first[starts[starts < len(gold)]] = True
    gold_breaks, pred_breaks = _span_breaks(gold, first), _span_breaks(pred, first)
    gold_b = gold % 2 == 1
    both = np.flatnonzero(gold_b & (gold == pred))  # the same B in both
    tp = int(np.count_nonzero(gold_breaks[np.searchsorted(gold_breaks, both, side="right")]
                              == pred_breaks[np.searchsorted(pred_breaks, both, side="right")]))
    n_gold, n_pred = int(np.count_nonzero(gold_b)), int(np.count_nonzero(pred % 2 == 1))
    precision = tp / n_pred if n_pred else 0.0
    recall = tp / n_gold if n_gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


def entity_counts(corpus: TaggedCorpus) -> dict[str, int]:
    counts: dict[str, int] = {}
    for span in extract_spans(corpus):
        counts[span.entity_type] = counts.get(span.entity_type, 0) + 1
    return counts


def greedy_sample(corpus: TaggedCorpus, k: int, seed: int) -> TaggedCorpus:
    """Few-shot sub-corpus with at least k entities per type where available.

    Types are visited rarest first; for each, seed-shuffled sentences
    containing the type are added until the pooled count reaches k (shared
    sentences count toward every type they contain). Types with fewer than k
    entities total contribute all of them.
    """
    if k < 1:
        raise InputError("k must be >= 1")
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    spans = extract_spans(corpus)
    totals: dict[str, int] = {}
    by_type_sentences: dict[str, list[int]] = {}
    sentence_counts: list[dict[str, int]] = [dict() for _ in corpus.sentences]
    for span in spans:
        totals[span.entity_type] = totals.get(span.entity_type, 0) + 1
        sc = sentence_counts[span.sentence_index]
        sc[span.entity_type] = sc.get(span.entity_type, 0) + 1
    for si, sc in enumerate(sentence_counts):
        for t in sc:
            by_type_sentences.setdefault(t, []).append(si)

    selected: list[int] = []
    selected_set: set[int] = set()
    pooled: dict[str, int] = {t: 0 for t in totals}
    for t in sorted(totals, key=lambda t: (totals[t], t)):
        candidates = [si for si in by_type_sentences[t] if si not in selected_set]
        rng.shuffle(candidates)
        for si in candidates:
            if pooled[t] >= k:
                break
            selected.append(si)
            selected_set.add(si)
            for ot, c in sentence_counts[si].items():
                pooled[ot] += c
    selected.sort()
    return TaggedCorpus(tuple(corpus.sentences[si] for si in selected))
