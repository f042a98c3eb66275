"""Synthetic two-domain corpus generator.

Builds a coarse-grained source tagging task and a fine-grained target task.
Every target entity type descends from one source type (its parent); its
surface forms are drawn either from the parent's vocabulary or, when a
mixture table is given, from several source vocabularies with configured
weights, so the source model's score distributions carry structure beyond
the parent identity. Each label also has context-cue words, and distractor
words appear as plain O tokens. Labels are cue/vocab-determined, so the
source task is learnable to high accuracy by construction.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .data import TaggedCorpus
from .errors import InputError, check_field_types, check_lower_bounds, from_json

# SynthSpec count fields and their lowest allowed value; for a (low, high)
# range the bound applies to low, and low <= high
_AT_LEAST = {
    "seed": 0, "entity_words_per_label": 1, "cue_words_per_label": 1, "filler_vocab_size": 1,
    "distractor_words": 0, "sentence_length": 1, "entities_per_sentence": 0, "entity_length": 1,
    "source_sentences": 0, "source_test_sentences": 0, "target_train_sentences": 0,
    "target_test_sentences": 0,
}


@dataclass
class SynthSpec:
    seed: int = 0
    source_labels: tuple[str, ...] = ("L1", "L2")
    target_parents: dict = field(
        default_factory=lambda: {"L1A": "L1", "L1B": "L1", "L2A": "L2", "L2B": "L2"}
    )
    # optional: per target label, weights over source labels for entity words;
    # defaults to all mass on the parent
    target_mixtures: dict | None = None
    entity_words_per_label: int = 6
    cue_words_per_label: int = 2
    cue_prob: float = 0.9
    # "label": one cue word, next to the entity, determines the full label.
    # "split": an adjacent cue carries the within-parent subtype (shared across
    # parents) and a far cue carries the parent, so the two halves of the label
    # travel through different channels.
    cue_scheme: str = "label"
    filler_vocab_size: int = 30
    distractor_words: int = 6
    distractor_prob: float = 0.15
    sentence_length: tuple[int, int] = (5, 10)
    entities_per_sentence: tuple[int, int] = (1, 2)
    entity_length: tuple[int, int] = (1, 2)
    source_sentences: int = 300
    source_test_sentences: int = 100
    target_train_sentences: int = 150
    target_test_sentences: int = 200

    def __post_init__(self):
        check_field_types(self, "synth spec")
        check_lower_bounds(self, "synth spec", _AT_LEAST)
        for name in ("cue_prob", "distractor_prob"):
            if not 0 <= getattr(self, name) <= 1:
                raise InputError(f"synth spec field {name!r} must be in [0, 1]")
        if self.cue_scheme not in ("label", "split"):
            raise InputError("synth spec field 'cue_scheme' must be 'label' or 'split'")
        if not self.target_parents or not all(
            parent in self.source_labels for parent in self.target_parents.values()
        ):
            raise InputError("synth spec field 'target_parents' must map target labels "
                             "to source labels")
        # labels spell tags and cue words, which a CoNLL line splits at whitespace;
        # words are spelled from the lowercased label, and a target label draws
        # from its mixture, so no two labels, source or target, may share a spelling
        spelled = set()
        for label in (*self.source_labels, *self.target_parents):
            if not label or any(c.isspace() for c in label):
                raise InputError(f"synth spec label {label!r} must be non-empty, without spaces")
            if label.lower() in spelled:
                raise InputError(f"synth spec label {label!r} repeats a source or target label "
                                 "ignoring case; each label needs words of its own")
            spelled.add(label.lower())
        for label, mix in (self.target_mixtures or {}).items():
            if not (label in self.target_parents and isinstance(mix, dict)
                    and set(mix) <= set(self.source_labels)
                    and all(map(_is_weight, mix.values())) and sum(mix.values()) > 0):
                raise InputError(f"synth spec mixture {label!r} must map a target label to "
                                 "source-label weights >= 0 with a positive sum")

    @classmethod
    def from_json(cls, text: str) -> "SynthSpec":
        return from_json(cls, text, "synth spec")

    def mixture(self, label: str) -> dict[str, float]:
        if self.target_mixtures and label in self.target_mixtures:
            mix = self.target_mixtures[label]
            total = sum(mix.values())
            return {s: w / total for s, w in mix.items()}
        return {self.target_parents[label]: 1.0}


def _is_weight(w) -> bool:
    return isinstance(w, numbers.Real) and not isinstance(w, bool) and math.isfinite(w) and w >= 0


@dataclass(frozen=True)
class SynthTask:
    source_train: TaggedCorpus
    source_test: TaggedCorpus
    target_train: TaggedCorpus
    target_test: TaggedCorpus
    spec: SynthSpec


def _source_vocab(spec: SynthSpec) -> dict[str, list[str]]:
    return {
        label: [f"{label.lower()}_e{i}" for i in range(spec.entity_words_per_label)]
        for label in spec.source_labels
    }


def _cue_vocab(spec: SynthSpec) -> dict[str, list[str]]:
    cues = {}
    for label in list(spec.source_labels) + sorted(spec.target_parents):
        cues[label] = [f"{label.lower()}_cue{i}" for i in range(spec.cue_words_per_label)]
    if spec.cue_scheme == "split":
        for label, parent in spec.target_parents.items():
            subtype = label[len(parent):] if label.startswith(parent) else label
            cues[f"sub:{label}"] = [
                f"sub{subtype.lower()}_cue{i}" for i in range(spec.cue_words_per_label)
            ]
            cues[f"par:{label}"] = [
                f"{parent.lower()}_cue{i}" for i in range(spec.cue_words_per_label)
            ]
    return cues


def _pick(rng, seq):
    """One uniform draw from ``seq``, by index.

    Gives the value and leaves the generator state that ``rng.choice(seq)``
    does on numpy 2, without ``choice``'s conversion of ``seq`` to an array.
    """
    return seq[int(rng.integers(0, len(seq)))]


def _cdf(weights) -> np.ndarray:
    """The table ``rng.choice(len(weights), p=weights)`` searches."""
    cdf = np.asarray(weights, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    return cdf


def _weighted_index(rng, cdf) -> int:
    """The index ``rng.choice(len(w), p=w)`` draws, for ``cdf = _cdf(w)``: one ``random()``."""
    return int(cdf.searchsorted(rng.random(), side="right"))


def _make_sentence(rng, spec, labels, draw_word, cue_vocab, fillers, distractors, noisy=True):
    """One (tokens, tags) sentence; ``noisy`` only keeps the retired label-noise roll."""
    n = int(rng.integers(spec.sentence_length[0], spec.sentence_length[1] + 1))
    # one call draws the n indices that n calls of _pick(rng, fillers) would
    tokens = [fillers[i] for i in rng.integers(0, len(fillers), size=n)]
    tags = ["O"] * n
    n_ent = int(rng.integers(spec.entities_per_sentence[0], spec.entities_per_sentence[1] + 1))
    free = list(range(n))
    for _ in range(n_ent):
        if len(free) < 3:
            break
        label = _pick(rng, labels)
        if noisy and label in spec.target_parents:
            # an unused draw (it was the label-noise roll), kept because
            # every seed's corpora depend on the generator state after it
            rng.random()
        length = int(rng.integers(spec.entity_length[0], spec.entity_length[1] + 1))
        starts = [p for p in free if p + length <= n]
        if not starts:
            continue
        pos = _pick(rng, starts)
        span = [p for p in range(pos, pos + length) if p in free]
        if len(span) < length:
            continue
        for j, p in enumerate(span):
            tokens[p] = draw_word(label, rng)
            tags[p] = ("B-" if j == 0 else "I-") + label
            free.remove(p)
        if spec.cue_scheme == "split" and label in spec.target_parents:
            # subtype cue sits next to the entity; parent cue sits far away
            if pos - 1 in free:
                tokens[pos - 1] = _pick(rng, cue_vocab[f"sub:{label}"])
                free.remove(pos - 1)
            if rng.random() < spec.cue_prob:
                slots = [p for p in free if p < pos - 2 or p > span[-1] + 2]
                if slots:
                    cue_pos = _pick(rng, slots)
                    tokens[cue_pos] = _pick(rng, cue_vocab[f"par:{label}"])
                    free.remove(cue_pos)
        elif rng.random() < spec.cue_prob and pos - 1 in free:
            tokens[pos - 1] = _pick(rng, cue_vocab[label])
            free.remove(pos - 1)
    for p in list(free):
        if rng.random() < spec.distractor_prob and distractors:
            tokens[p] = _pick(rng, distractors)
    return tuple(tokens), tuple(tags)


def generate(spec: SynthSpec) -> SynthTask:
    rng = np.random.default_rng(spec.seed)
    target_labels = sorted(spec.target_parents)
    source_vocab = _source_vocab(spec)
    cue_vocab = _cue_vocab(spec)
    fillers = [f"w{i}" for i in range(spec.filler_vocab_size)]
    distractors = [f"dx{i}" for i in range(spec.distractor_words)]

    # per target label: the vocabularies of its mixture's sources and their CDF;
    # a parent-only mixture still draws its one random()
    mixtures = {}
    for label in target_labels:
        mix = spec.mixture(label)
        sources = sorted(mix)
        mixtures[label] = ([source_vocab[s] for s in sources], _cdf([mix[s] for s in sources]))

    def draw_word(label, rng):
        if label in source_vocab:
            return _pick(rng, source_vocab[label])
        vocabs, cdf = mixtures[label]
        return _pick(rng, vocabs[_weighted_index(rng, cdf)])

    def corpus(labels, count, noisy=True):
        sentences = tuple(
            _make_sentence(rng, spec, labels, draw_word, cue_vocab, fillers, distractors, noisy)
            for _ in range(count)
        )
        return TaggedCorpus(sentences)

    # only the training corpora draw the retired label-noise roll
    return SynthTask(
        source_train=corpus(list(spec.source_labels), spec.source_sentences),
        source_test=corpus(list(spec.source_labels), spec.source_test_sentences, noisy=False),
        target_train=corpus(target_labels, spec.target_train_sentences),
        target_test=corpus(target_labels, spec.target_test_sentences, noisy=False),
        spec=spec,
    )


def write_task(task: SynthTask, out_dir: str):
    import os

    os.makedirs(out_dir, exist_ok=True)
    for name in ("source_train", "source_test", "target_train", "target_test"):
        with open(os.path.join(out_dir, f"{name}.conll"), "w", encoding="utf-8") as fh:
            fh.write(getattr(task, name).to_conll())


# The transfer experiment of the acceptance gate and scripts/run_ablation.py.
# Graded vocabulary mixtures: sibling subtypes lean toward the same coarse
# label with different strengths, so the source model's score geometry
# carries usable structure.
TRANSFER_MIX = {
    "L1A": {"L1": 0.85, "L2": 0.15},
    "L1B": {"L1": 0.65, "L2": 0.35},
    "L2A": {"L1": 0.35, "L2": 0.65},
    "L2B": {"L1": 0.15, "L2": 0.85},
}

# SynthSpec fields besides seed and target_mixtures
TRANSFER_SPEC = dict(
    cue_prob=0.9, cue_scheme="split", sentence_length=(8, 14), entities_per_sentence=(1, 2),
    entity_length=(1, 1), distractor_prob=0.1, source_sentences=200, target_test_sentences=300,
)

# pipeline.TrainConfig fields besides seed
TRANSFER_CONFIG = dict(
    learning_rate=0.3, epochs=80, batch_size=8, temperature=2.0, lambda1=2.0, lambda2=0.02,
    inner_iter=50, outer_iter=10,
)


def transfer_variants(base) -> dict:
    """The gate's four variants of the `pipeline.TrainConfig` ``base``, by name.

    ``full`` is the whole objective; ``no_gw`` and ``no_aux`` ablate one term
    each, and ``none`` ablates both.
    """
    return {
        "full": base,
        "no_gw": replace(base, ablate_gw=True),
        "no_aux": replace(base, ablate_aux=True),
        "none": replace(base, ablate_aux=True, ablate_gw=True),
    }
