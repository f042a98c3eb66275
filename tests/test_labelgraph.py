"""Label-graph construction: conditionals, normalization, edges, batch graphs."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_prob_rows
from labeltransfer.autodiff import Tensor, pairwise_distances
from labeltransfer.errors import InputError
from labeltransfer.labelgraph import (
    GraphInputError,
    build_graph,
    estimate_conditionals,
    normalize_nodes,
    target_graph_from_batch,
    threshold_edges,
)

# -- estimate_conditionals -------------------------------------------------


def test_conditionals_single_token_softmax():
    labels, rows = estimate_conditionals([[2.0, 0.0]], ["PER"], temperature=4.0)
    assert labels == ("PER",)
    np.testing.assert_allclose(rows, [[0.6225, 0.3775]], atol=1e-4)


@pytest.mark.parametrize("temperature", [np.nan, 0.0])
def test_conditionals_reject_a_nan_or_zero_temperature_by_name(temperature):
    with pytest.raises(InputError, match="temperature"):
        estimate_conditionals([[2.0, 0.0]], ["PER"], temperature=temperature)


def test_conditionals_one_dimensional():
    _, rows = estimate_conditionals([[3.0], [-3.0]], ["PER", "PER"], temperature=1.0)
    np.testing.assert_allclose(rows, [[1.0]])


def test_conditionals_mean_of_two():
    _, rows = estimate_conditionals([[1.0, 0.0], [0.0, 1.0]], ["PER", "PER"], temperature=1.0)

    def soft(z):
        e = np.exp(np.asarray(z, dtype=np.float64))
        return e / e.sum()

    expect = (soft([1.0, 0.0]) + soft([0.0, 1.0])) / 2.0
    np.testing.assert_allclose(rows[0], expect, atol=1e-12)


def test_conditionals_empty_corpus_errors():
    with pytest.raises(GraphInputError):
        estimate_conditionals(np.zeros((0, 1)), [], 1.0)


def test_conditionals_brute_force_oracle():
    rng = np.random.default_rng(7)
    logits = rng.normal(size=(60, 3))
    gold = [str(rng.choice(["PER", "LOC", "ORG"])) for _ in range(60)]
    T = 2.5
    labels, rows = estimate_conditionals(logits, gold, T)
    assert labels == ("LOC", "ORG", "PER")

    # oracle: materialize every (token, gold type) pair and average explicitly
    def smooth(z):
        z = np.asarray(z) / T
        e = np.exp(z - z.max())
        return e / e.sum()

    for li, label in enumerate(labels):
        samples = [smooth(z) for z, t in zip(logits, gold) if t == label]
        np.testing.assert_allclose(rows[li], np.mean(samples, axis=0), atol=1e-12)


# -- normalize_nodes --------------------------------------------------------


def test_normalize_two_rows_hand_case():
    rows = np.array([[0.0, 0.0], [4.0, 0.0]])
    out = normalize_nodes(rows)
    # ordered-pair distance sum = 0 + 4 + 4 + 0 = 8, scale = 4/8
    assert out.scale == pytest.approx(0.5)
    assert np.linalg.norm(out.nodes[0] - out.nodes[1]) == pytest.approx(2.0)


def test_normalize_identical_rows_degenerate():
    rows = np.ones((3, 2)) * 0.5
    out = normalize_nodes(rows)
    assert out.degenerate
    np.testing.assert_array_equal(out.nodes, rows)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 8), st.integers(2, 6))
def test_normalize_mean_ordered_distance_is_one(seed, n, dim):
    rng = np.random.default_rng(seed)
    rows = random_prob_rows(rng, n, dim)
    out = normalize_nodes(rows)
    diff = out.nodes[:, None, :] - out.nodes[None, :, :]
    mean = np.sqrt((diff * diff).sum(axis=-1)).sum() / (n * n)
    assert mean == pytest.approx(1.0, abs=1e-9)


# -- build_graph / edges -----------------------------------------------------


def test_edges_respect_threshold():
    g = build_graph(np.array([[1.0, 0.0], [0.0, 1.0]]), ["A", "B"], threshold=2.5)
    # two nodes normalize to distance 2 exactly
    assert g.edges == {(0, 1): pytest.approx(2.0)}
    g2 = build_graph(np.array([[1.0, 0.0], [0.0, 1.0]]), ["A", "B"], threshold=1.5)
    assert g2.edges == {}


def test_single_node_graph_has_no_edges():
    g = build_graph(np.array([[0.3, 0.7]]), ["A"], threshold=1.5)
    assert g.edges == {} and g.degenerate


def test_adjacency_is_built_once_and_read_only():
    g = build_graph(np.array([[0.9, 0.1], [0.8, 0.2]]), ["A", "B"], threshold=5.0)
    a_hat = g.adjacency()
    assert g.adjacency() is a_hat
    np.testing.assert_allclose(a_hat, np.full((2, 2), 0.5), atol=1e-12)
    with pytest.raises(ValueError):
        a_hat[0, 0] = 1.0


def test_build_graph_rejects_empty():
    with pytest.raises(GraphInputError):
        build_graph(np.zeros((0, 2)), [], 1.5)


def test_threshold_edges_requires_positive_threshold():
    with pytest.raises(GraphInputError):
        threshold_edges(np.eye(2), 0.0)


@pytest.mark.parametrize("threshold", [0.0, -1.5])
def test_build_graph_rejects_a_non_positive_threshold_before_any_edge_is_read(threshold):
    with pytest.raises(GraphInputError, match="threshold"):
        build_graph(np.eye(2), ["A", "B"], threshold)


@pytest.mark.parametrize("build", [
    lambda threshold: build_graph(np.eye(2), ["A", "B"], threshold),
    lambda threshold: threshold_edges(np.eye(2), threshold),
], ids=["build_graph", "threshold_edges"])
def test_a_nan_threshold_is_rejected_by_name(build):
    with pytest.raises(GraphInputError, match="threshold"):
        build(np.nan)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 7), st.floats(0.1, 3.0))
def test_edges_are_thresholded_on_first_read(seed, n, threshold):
    rows = random_prob_rows(np.random.default_rng(seed), n, 4)
    g = build_graph(rows, [f"L{i}" for i in range(n)], threshold)
    assert "edges" not in vars(g)  # nothing read them yet
    dist = pairwise_distances(g.nodes)
    near = {(i, j): float(dist[i, j])
            for i in range(n) for j in range(i + 1, n) if dist[i, j] < threshold}
    assert list(g.edges.items()) == list(near.items())  # row by row
    assert threshold_edges(g.nodes, threshold) == g.edges
    assert g.edges is g.edges
    assert g.subgraph(list(g.labels)).edges == g.edges


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 7))
def test_edge_monotonicity_in_threshold(seed, n):
    rng = np.random.default_rng(seed)
    rows = random_prob_rows(rng, n, 4)
    deltas = sorted(rng.uniform(0.1, 3.0, size=3))
    graphs = [build_graph(rows, [f"L{i}" for i in range(n)], d) for d in deltas]
    for small, big in zip(graphs, graphs[1:]):
        assert set(small.edges) <= set(big.edges)


def test_edge_set_invariant_under_node_reorder():
    rng = np.random.default_rng(11)
    rows = random_prob_rows(rng, 5, 4)
    labels = [f"L{i}" for i in range(5)]
    g = build_graph(rows, labels, 1.5)
    perm = rng.permutation(5)
    gp = build_graph(rows[perm], [labels[i] for i in perm], 1.5)
    mapped = set()
    inv = np.argsort(perm)
    for (i, j) in gp.edges:
        a, b = sorted((perm[i], perm[j]))
        mapped.add((a, b))
    assert mapped == set(g.edges)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_temperature_smoothing_contracts_rows(seed):
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(2, 4))
    if np.allclose(logits[0], logits[1]):
        return
    # The max-gap between two rows is not monotone in T (rows sharing an
    # argmax meet as one-hots at T -> 0 and as uniforms at T -> inf; seed 4158
    # gives 0.136, 0.152, 0.104). What holds: each row's entropy rises strictly
    # with T, and the softmax Jacobian's 1-norm bound gives
    # |p_T(a) - p_T(b)|_1 <= range(a - b) / (2T).
    diff = logits[0] - logits[1]
    entropies = []
    for T in (1.0, 2.0, 4.0):
        _, rows = estimate_conditionals(logits, ["A", "B"], T)
        assert np.abs(rows[0] - rows[1]).sum() <= (diff.max() - diff.min()) / (2 * T) + 1e-12
        entropies.append(-(rows * np.log(rows)).sum(axis=1))
    assert np.all(entropies[0] < entropies[1]) and np.all(entropies[1] < entropies[2])


# -- target graph from batch --------------------------------------------------


def test_batch_graph_node_is_mean_smoothed_row():
    z = np.array([1.0, -1.0, 0.5])
    w = np.array([-0.5, 2.0, 0.0])
    logits = Tensor(np.stack([z, z, w]), requires_grad=True)
    tgb = target_graph_from_batch(logits, ["A", "A", "B"], temperature=4.0)

    def smooth(v):
        e = np.exp(v / 4.0 - (v / 4.0).max())
        return e / e.sum()

    np.testing.assert_allclose(tgb.raw, [smooth(z), smooth(w)], atol=1e-12)
    assert tgb.labels == ("A", "B")


def test_batch_graph_coincident_nodes_skip():
    z = np.array([1.0, -1.0, 0.5])
    logits = Tensor(np.stack([z, z, z]))
    assert target_graph_from_batch(logits, ["A", "A", "B"], 4.0) is None


def test_batch_graph_two_labels_two_nodes():
    rng = np.random.default_rng(5)
    logits = Tensor(rng.normal(size=(4, 3)))
    tgb = target_graph_from_batch(logits, ["A", "B", "A", "B"], 4.0)
    assert tgb.labels == ("A", "B") and tgb.raw.shape == (2, 3)
    # two nodes: zero self-distances, and the normalized pair distances sum to n² = 4
    np.testing.assert_allclose(tgb.distances.data, [[0.0, 2.0], [2.0, 0.0]], atol=1e-12)


def test_batch_graph_skips_single_label():
    logits = Tensor(np.zeros((3, 2)))
    assert target_graph_from_batch(logits, ["A", "A", None], 4.0) is None


def test_batch_graph_permutation_symmetry():
    rng = np.random.default_rng(6)
    raw = rng.normal(size=(6, 4))
    types = ["A", "B", "C", "A", "B", "C"]
    g1 = target_graph_from_batch(Tensor(raw), types, 4.0)
    relabel = {"A": "C", "B": "A", "C": "B"}
    g2 = target_graph_from_batch(Tensor(raw), [relabel[t] for t in types], 4.0)
    d1 = np.sort(g1.distances.data, axis=None)
    d2 = np.sort(g2.distances.data, axis=None)
    np.testing.assert_allclose(d1, d2, atol=1e-12)


def test_batch_graph_nodes_differentiable():
    rng = np.random.default_rng(8)
    logits = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    tgb = target_graph_from_batch(logits, ["A", "B", "C", "A", "B", "C"], 4.0)
    # unweighted sum of normalized distances is constant (= n^2), so weight it
    w = Tensor(np.abs(rng.normal(size=(3, 3))) + np.eye(3))
    (tgb.distances * w).sum().backward()
    assert logits.grad is not None and np.any(logits.grad != 0)


# -- serialization -------------------------------------------------------------


def test_graph_json_schema():
    g = build_graph(np.array([[1.0, 0.0], [0.0, 1.0]]), ["A", "B"], threshold=2.5)
    obj = json.loads(g.to_json())
    assert set(obj) == {"labels", "nodes", "edges"}
    assert obj["labels"] == ["A", "B"]
    assert obj["edges"] == [{"i": 0, "j": 1, "w": 2.0}]
    # absent edges are omitted entirely
    g2 = build_graph(np.array([[1.0, 0.0], [0.0, 1.0]]), ["A", "B"], threshold=1.5)
    assert json.loads(g2.to_json())["edges"] == []


def test_subgraph_renormalizes():
    rng = np.random.default_rng(9)
    rows = random_prob_rows(rng, 4, 3)
    g = build_graph(rows, ["A", "B", "C", "D"], 1.5)
    sub = g.subgraph(["B", "D"])
    assert sub.labels == ("B", "D")
    d = sub.distance_matrix()
    assert (d.sum() / 4) == pytest.approx(1.0, abs=1e-9)

