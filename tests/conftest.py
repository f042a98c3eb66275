"""Shared fixtures and helpers for the test suite."""

import numpy as np
import pytest

from labeltransfer import fusion as fu
from labeltransfer.data import TaggedCorpus, parse_conll
from labeltransfer.labelgraph import LabelGraph, build_graph
from labeltransfer.pipeline import Model, TrainConfig, tags_for

LABELS = ("A", "B", "C")
TAGS = tags_for(LABELS)
WORDS = [f"w{i}" for i in range(12)]


def random_prob_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """n random probability vectors of the given dimension (Dirichlet)."""
    return rng.dirichlet(np.ones(dim), size=n)


def random_graph(rng: np.random.Generator, n: int, dim: int | None = None,
                 threshold: float = 1.5) -> LabelGraph:
    """Non-degenerate random label graph with n nodes."""
    dim = dim or n + 1
    while True:
        rows = random_prob_rows(rng, n, dim)
        g = build_graph(rows, [f"L{i}" for i in range(n)], threshold)
        if not g.degenerate:
            return g


def make_model(kind: str, rng: np.random.Generator) -> Model:
    """A small random source or fused model over LABELS and WORDS (d_h 6, d_p 4)."""
    params = fu.ModelParams(d_h=6, d_p=4, n_types=len(LABELS), n_tags=len(TAGS),
                            encoder_mode="toy")
    fu.init_encoder_params(params, rng, len(WORDS) + 1)
    config = TrainConfig(d_h=6, d_p=4, epochs=1)
    if kind == "source":
        params.cls_w = fu._uniform(rng, (6, len(TAGS)), 0.5)
        params.cls_b = fu._uniform(rng, (1, len(TAGS)), 0.1)
        return Model("source", params, fu.Vocab(WORDS), LABELS, config)
    fu.init_fusion_params(params, rng)
    graph = build_graph(rng.dirichlet(np.ones(4), size=len(LABELS)), list(LABELS), 1.5)
    return Model("fused", params, fu.Vocab(WORDS), LABELS, config, source_graph=graph)


class StubTagger:
    """Fixed-logits tagger exposing the probabilistic-tagger protocol."""

    def __init__(self, type_labels, logits_by_token):
        self.type_labels = tuple(type_labels)
        self._logits = dict(logits_by_token)

    def type_logits(self, tokens):
        return np.stack([np.asarray(self._logits[t], dtype=np.float64) for t in tokens])


@pytest.fixture
def tiny_corpus() -> TaggedCorpus:
    text = (
        "the O\n"
        "acl B-CONF\n"
        "meeting I-CONF\n"
        "in O\n"
        "dublin B-LOC\n"
        "\n"
        "emnlp B-CONF\n"
        "visited O\n"
        "paris B-LOC\n"
        "today O\n"
    )
    return parse_conll(text)
