"""Label graphs built from model probability outputs.

Nodes are entity types represented by (temperature-smoothed) probability
rows; rows are rescaled so the mean distance over all ordered node pairs is
1, and an edge links two nodes whenever their distance falls below the
threshold. The graph lives at the entity-type level: its callers pass each
entity token's logits with its gold type (BIO prefix stripped) and leave out
the O tokens.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .autodiff import Tensor, matmul, pairwise_distances, pairwise_l2, softmax_rows
from .errors import GraphInputError


@dataclass(frozen=True)
class LabelGraph:
    """Normalized label graph with thresholded edges.

    ``raw_nodes`` keeps the pre-normalization probability rows so that
    subgraphs over a label subset can be renormalized consistently.
    ``edges`` maps (i, j) with i < j to the node distance (< threshold). Like
    the adjacency, it is derived on first read, so a graph whose edges no
    loss reads (fine-tuning's per-batch source subgraph) never builds them.
    """

    labels: tuple[str, ...]
    nodes: np.ndarray
    raw_nodes: np.ndarray
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

    @cached_property
    def edges(self) -> dict[tuple[int, int], float]:
        return threshold_edges(self.nodes, self.threshold)

    def adjacency(self) -> np.ndarray:
        """Symmetrically normalized binary adjacency with self-loops (read-only)."""
        return self._adjacency

    @cached_property
    def _adjacency(self) -> np.ndarray:
        # built once per graph: the GCN reads it on every forward
        a = np.eye(self.n)
        for i, j in self.edges:
            a[i, j] = a[j, i] = 1.0
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
    if not threshold > 0:  # NaN fails it too
        raise GraphInputError(f"threshold must be positive, got {threshold}")
    dist = pairwise_distances(nodes)
    rows, cols = np.triu_indices(nodes.shape[0], k=1)  # every i < j, row by row
    near = dist[rows, cols] < threshold
    return {(i, j): float(dist[i, j]) for i, j in zip(rows[near].tolist(), cols[near].tolist())}


def build_graph(rows, labels: list[str], threshold: float) -> LabelGraph:
    """Graph from probability rows: normalized nodes (edges follow on first read)."""
    raw = np.asarray(rows, dtype=np.float64)
    if raw.ndim != 2 or raw.shape[0] < 1:
        raise GraphInputError("build_graph expects at least one row")
    if not threshold > 0:  # NaN fails it too
        raise GraphInputError(f"threshold must be positive, got {threshold}")
    norm = normalize_nodes(raw)
    return LabelGraph(
        labels=tuple(labels),
        nodes=norm.nodes,
        raw_nodes=raw.copy(),
        threshold=float(threshold),
        degenerate=norm.degenerate,
    )


def estimate_conditionals(type_logits, gold_types, temperature: float):
    """(labels, rows): the mean smoothed type distribution of each gold entity type.

    ``type_logits`` holds one row of type logits per labeled token and
    ``gold_types`` the gold entity type of each; ``labels`` are the sorted
    types, and ``rows[k]`` the mean of the smoothed rows of ``labels[k]``'s
    tokens. The rows are summed token by token in input order, then divided
    by the count: the per-batch GW solve amplifies last-bit changes in the
    source graph, so this order is fixed.
    """
    if not len(gold_types):
        raise GraphInputError("no labeled tokens")
    probs = softmax_rows(Tensor(np.asarray(type_logits, dtype=np.float64)), temperature).data
    labels, index = np.unique(np.asarray(gold_types), return_inverse=True)
    sums = np.zeros((len(labels), probs.shape[1]))
    np.add.at(sums, index, probs)
    return tuple(labels.tolist()), sums / np.bincount(index)[:, None]


class TargetGraphBatch(NamedTuple):
    """Differentiable per-batch target graph.

    ``distances`` is an autodiff tensor (a function of the token logits): the
    node distances normalized to sum to n². ``raw`` holds the detached
    pre-normalization rows, one mean smoothed distribution per label.
    """

    labels: tuple[str, ...]
    distances: Tensor
    raw: np.ndarray


def target_graph_from_batch(
    type_logits: Tensor,
    gold_types: list[str | None],
    temperature: float,
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
    return TargetGraphBatch(tuple(present), dist_raw * ((n * n) / total), raw.data)
