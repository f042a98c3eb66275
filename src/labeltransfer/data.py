"""CoNLL/BIO corpus handling, span extraction, micro-F1, few-shot sampling."""

from __future__ import annotations

from dataclasses import dataclass, field

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


def _repair_tags(tags: list[str]) -> tuple[list[str], int]:
    """Lenient BIO: an I-X not continuing an X run becomes B-X."""
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


def parse_conll(text: str | bytes) -> TaggedCorpus:
    """One token+tag per line, whitespace separated, blank line between sentences."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"corpus is not UTF-8: {exc}") from exc
    sentences = []
    repairs = 0
    cur_tokens: list[str] = []
    cur_tags: list[str] = []

    def flush():
        nonlocal repairs
        if cur_tokens:
            fixed, n = _repair_tags(cur_tags)
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
        if tag != "O" and not (tag.startswith("B-") or tag.startswith("I-")):
            raise ParseError(f"line {lineno}: malformed tag {tag!r}")
        cur_tokens.append(token)
        cur_tags.append(tag)
    flush()
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
