"""Label graphs built from model probability outputs.

Nodes are entity types represented by (temperature-smoothed) probability
rows; rows are rescaled so the mean distance over all ordered node pairs is
1, and an edge links two nodes whenever their distance falls below the
threshold. BIO prefixes are stripped and O tokens are ignored: the graph
lives at the entity-type level.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .autodiff import Tensor, matmul, no_grad, pairwise_distances, pairwise_l2, softmax_rows
from .data import entity_type
from .errors import GraphInputError


@dataclass(frozen=True)
class ConditionalTable:
    """Per-target-label mean source-label distribution.

    ``rows[k]`` is the averaged smoothed prediction over every token whose
    gold entity type is ``labels[k]``. Labels with zero support are not
    included; they are listed in ``excluded``.
    """

    labels: tuple[str, ...]
    source_labels: tuple[str, ...]
    rows: np.ndarray
    support_counts: tuple[int, ...]
    excluded: tuple[str, ...] = ()

    def __post_init__(self):
        if self.rows.shape[0] != len(self.labels):
            raise GraphInputError("one row per label required")
        sums = self.rows.sum(axis=1)
        if self.rows.size and not np.allclose(sums, 1.0, atol=1e-9):
            raise GraphInputError("conditional rows must sum to 1")


@dataclass(frozen=True)
class LabelGraph:
    """Normalized label graph with thresholded edges.

    ``raw_nodes`` keeps the pre-normalization probability rows so that
    subgraphs over a label subset can be renormalized consistently.
    ``edges`` maps (i, j) with i < j to the node distance (< threshold).
    """

    labels: tuple[str, ...]
    nodes: np.ndarray
    raw_nodes: np.ndarray
    edges: dict[tuple[int, int], float] = field(default_factory=dict)
    threshold: float = 1.5
    degenerate: bool = False

    @property
    def n(self) -> int:
        return len(self.labels)

    def distance_matrix(self) -> np.ndarray:
        return pairwise_distances(self.nodes)

    def subgraph(self, labels: list[str]) -> "LabelGraph":
        """Renormalized graph restricted to `labels` (in the given order)."""
        idx = [self.labels.index(l) for l in labels]
        return build_graph(self.raw_nodes[idx], list(labels), self.threshold)

    def adjacency(self) -> np.ndarray:
        """Symmetrically normalized binary adjacency with self-loops (read-only)."""
        return self._adjacency

    @cached_property
    def _adjacency(self) -> np.ndarray:
        # built once per graph: the GCN reads it on every forward
        a = np.eye(self.n)
        for (i, j), _ in self.edges.items():
            a[i, j] = 1.0
            a[j, i] = 1.0
        d = a.sum(axis=1)
        inv_sqrt = 1.0 / np.sqrt(d)
        a = a * inv_sqrt[:, None] * inv_sqrt[None, :]
        a.flags.writeable = False
        return a

    def to_json_dict(self) -> dict:
        return {
            "labels": list(self.labels),
            "nodes": [[round(float(x), 6) for x in row] for row in self.nodes],
            "edges": [
                {"i": i, "j": j, "w": round(float(w), 6)}
                for (i, j), w in sorted(self.edges.items())
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


class NormalizedNodes(NamedTuple):
    nodes: np.ndarray
    scale: float
    degenerate: bool


def normalize_nodes(raw: np.ndarray) -> NormalizedNodes:
    """Rescale rows so the mean ordered-pair distance (self-pairs included) is 1.

    Scale factor is n^2 / sum of all ordered pairwise distances. When all
    rows coincide the denominator is 0; rows are returned unchanged with the
    degenerate flag set.
    """
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim != 2 or raw.shape[0] < 1:
        raise GraphInputError("normalize_nodes expects a non-empty 2-D array")
    total = float(pairwise_distances(raw).sum())
    n = raw.shape[0]
    if total == 0.0:
        return NormalizedNodes(raw.copy(), 1.0, True)
    scale = n * n / total
    return NormalizedNodes(raw * scale, scale, False)


def threshold_edges(nodes: np.ndarray, threshold: float) -> dict[tuple[int, int], float]:
    if threshold <= 0:
        raise GraphInputError("threshold must be positive")
    dist = pairwise_distances(nodes)
    edges = {}
    n = nodes.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            if dist[i, j] < threshold:
                edges[(i, j)] = float(dist[i, j])
    return edges


def build_graph(rows, labels: list[str], threshold: float) -> LabelGraph:
    """Graph from probability rows: normalize then add sub-threshold edges."""
    if isinstance(rows, ConditionalTable):
        raise TypeError("pass table.rows and list(table.labels), or use graph_from_table")
    raw = np.asarray(rows, dtype=np.float64)
    if raw.ndim != 2 or raw.shape[0] < 1:
        raise GraphInputError("build_graph expects at least one row")
    norm = normalize_nodes(raw)
    edges = threshold_edges(norm.nodes, threshold)
    return LabelGraph(
        labels=tuple(labels),
        nodes=norm.nodes,
        raw_nodes=raw.copy(),
        edges=edges,
        threshold=float(threshold),
        degenerate=norm.degenerate,
    )


def graph_from_table(table: ConditionalTable, threshold: float) -> LabelGraph:
    return build_graph(table.rows, list(table.labels), threshold)


def estimate_conditionals(model, corpus, temperature: float, label_set: list[str]) -> ConditionalTable:
    """Average the model's smoothed per-token predictions per gold entity type.

    ``model`` must expose ``type_logits(tokens) -> (n_tokens, n_source)`` and
    ``type_labels``. Every labeled token is one sample; labels without any
    token in the corpus are excluded and reported.
    """
    if temperature <= 0:
        raise GraphInputError("temperature must be positive")
    if not corpus.sentences:
        raise GraphInputError("empty corpus")
    sums: dict[str, np.ndarray] = {}
    counts: dict[str, int] = {label: 0 for label in label_set}
    n_source = len(model.type_labels)
    for tokens, tags in corpus.sentences:
        types = [entity_type(t) for t in tags]
        if not any(t in counts for t in types):
            continue
        with no_grad():
            logits = np.asarray(model.type_logits(tokens), dtype=np.float64)
            probs = softmax_rows(Tensor(logits), temperature=temperature).data
        for k, t in enumerate(types):
            if t is None or t not in counts:
                continue
            if t not in sums:
                sums[t] = np.zeros(n_source)
            sums[t] += probs[k]
            counts[t] += 1
    included = [label for label in label_set if counts[label] > 0]
    excluded = tuple(label for label in label_set if counts[label] == 0)
    rows = np.stack([sums[label] / counts[label] for label in included]) if included else np.zeros((0, n_source))
    return ConditionalTable(
        labels=tuple(included),
        source_labels=tuple(model.type_labels),
        rows=rows,
        support_counts=tuple(counts[label] for label in included),
        excluded=excluded,
    )


class TargetGraphBatch(NamedTuple):
    """Differentiable per-batch target graph.

    ``nodes`` and ``distances`` are autodiff tensors (functions of the token
    logits); ``graph`` is the detached snapshot used for export/inspection,
    built from the pre-normalization rows ``raw`` only when read.
    """

    labels: tuple[str, ...]
    nodes: Tensor
    distances: Tensor
    raw: np.ndarray
    threshold: float

    @property
    def graph(self) -> LabelGraph:
        return build_graph(self.raw, list(self.labels), self.threshold)


def target_graph_from_batch(
    type_logits: Tensor,
    gold_types: list[str | None],
    temperature: float,
    threshold: float,
) -> TargetGraphBatch | None:
    """Build the dynamic target graph from one batch of token logits.

    ``type_logits`` holds one row of target-entity-type logits per token;
    ``gold_types`` gives the gold entity type per token (None for O). Tokens
    pool by gold type; each node is the mean smoothed predicted distribution.
    Returns None (skip signal) when fewer than 2 distinct types are present
    or when the pooled rows are all identical.
    """
    present: list[str] = []
    for t in gold_types:
        if t is not None and t not in present:
            present.append(t)
    present.sort()
    if len(present) < 2:
        return None
    probs = softmax_rows(type_logits, temperature=temperature)
    # mean per label via a constant averaging matrix: differentiable in logits
    sel = np.zeros((len(present), len(gold_types)))
    for li, label in enumerate(present):
        idx = [k for k, t in enumerate(gold_types) if t == label]
        sel[li, idx] = 1.0 / len(idx)
    raw = matmul(Tensor(sel), probs)
    dist_raw = pairwise_l2(raw)
    total = dist_raw.sum()
    if total.item() == 0.0:
        return None
    n = len(present)
    scale = (n * n) / total
    nodes = raw * scale
    distances = dist_raw * scale
    return TargetGraphBatch(tuple(present), nodes, distances, raw.data, threshold)
