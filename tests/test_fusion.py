"""Fusion network: attention, graph propagation, residual fusion, losses."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graph
from labeltransfer import autodiff as ad
from labeltransfer import fusion as fu
from labeltransfer.autodiff import Tensor, grad_check
from labeltransfer.errors import ShapeError
from labeltransfer.fusion import (
    EmbeddingFile,
    InputError,
    ModelParams,
    Vocab,
    auxiliary_loss,
    classification_loss,
    encode_toy,
    fusion_forward,
    gcn_propagate,
    init_encoder_params,
    init_fusion_params,
    label_attention,
    token_fusion,
)
from labeltransfer.labelgraph import build_graph


def make_params(rng, d_h=6, d_p=4, n_types=3, n_tags=7, vocab_size=11):
    params = ModelParams(d_h=d_h, d_p=d_p, n_types=n_types, n_tags=n_tags,
                         encoder_mode="toy")
    init_encoder_params(params, rng, vocab_size)
    init_fusion_params(params, rng)
    return params


def make_graph(rng, n_types=3, threshold=3.0):
    rows = rng.dirichlet(np.ones(4), size=n_types)
    return build_graph(rows, [f"T{i}" for i in range(n_types)], threshold)


# -- attention ----------------------------------------------------------------


def test_label_attention_single_token_all_mass():
    rng = np.random.default_rng(0)
    params = make_params(rng)
    h = Tensor(rng.normal(size=(1, 6)))
    q, alpha, u = label_attention(h, params)
    np.testing.assert_allclose(alpha.data, np.ones((3, 1)))
    np.testing.assert_allclose(u.data, np.repeat(q.data, 3, axis=0), atol=1e-12)


def test_label_attention_rows_sum_to_one():
    rng = np.random.default_rng(1)
    params = make_params(rng)
    h = Tensor(rng.normal(size=(5, 6)))
    _, alpha, _ = label_attention(h, params)
    np.testing.assert_allclose(alpha.data.sum(axis=1), np.ones(3), atol=1e-12)


def test_label_attention_hand_case():
    # two tokens whose projections align with different label vectors
    params = ModelParams(d_h=2, d_p=2, n_types=2, n_tags=3, encoder_mode="toy")
    params.proj_w = Tensor(np.eye(2))
    params.proj_b = Tensor(np.zeros((1, 2)))
    params.label_reps = Tensor(np.array([[10.0, 0.0], [0.0, 10.0]]))
    h = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    _, alpha, u = label_attention(h, params)
    # label 0 attends almost entirely to token 0, label 1 to token 1
    assert alpha.data[0, 0] > 0.9999 and alpha.data[1, 1] > 0.9999
    np.testing.assert_allclose(u.data, np.eye(2), atol=1e-4)


# -- GCN ------------------------------------------------------------------------


def test_gcn_edgeless_graph_reduces_to_mlp():
    rng = np.random.default_rng(2)
    params = make_params(rng)
    # force an edgeless graph: adjacency is the identity
    graph = make_graph(rng, threshold=1e-9)
    assert graph.edges == {}
    u = Tensor(rng.normal(size=(3, 4)))
    out = gcn_propagate(u, graph, params)
    expect = np.maximum(u.data @ params.gcn_w1.data, 0.0) @ params.gcn_w2.data
    np.testing.assert_allclose(out.data, expect, atol=1e-12)


def test_gcn_two_node_symmetric_mixing():
    rng = np.random.default_rng(3)
    params = make_params(rng, n_types=2)
    graph = build_graph(np.array([[0.9, 0.1], [0.8, 0.2]]), ["A", "B"], threshold=5.0)
    assert (0, 1) in graph.edges
    a_hat = graph.adjacency()
    # connected 2-node graph with self-loops: all entries 1/2
    np.testing.assert_allclose(a_hat, np.full((2, 2), 0.5), atol=1e-12)
    u = Tensor(rng.normal(size=(2, 4)))
    out = gcn_propagate(u, graph, params)
    mixed = np.full((2, 2), 0.5) @ u.data
    expect = (np.full((2, 2), 0.5) @ np.maximum(mixed @ params.gcn_w1.data, 0.0)) @ params.gcn_w2.data
    np.testing.assert_allclose(out.data, expect, atol=1e-12)


def test_gcn_three_node_path_oracle():
    rng = np.random.default_rng(4)
    params = make_params(rng, n_types=3)
    # build a path graph 0-1-2 by hand via raw distances
    rows = np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])
    g = build_graph(rows, ["A", "B", "C"], threshold=1.5)
    assert set(g.edges) == {(0, 1), (1, 2)}
    a = np.eye(3)
    a[0, 1] = a[1, 0] = a[1, 2] = a[2, 1] = 1.0
    d = a.sum(axis=1)
    a_hat = a / np.sqrt(d[:, None] * d[None, :])
    np.testing.assert_allclose(g.adjacency(), a_hat, atol=1e-12)
    u = Tensor(rng.normal(size=(3, 4)))
    out = gcn_propagate(u, g, params)
    expect = (a_hat @ np.maximum((a_hat @ u.data) @ params.gcn_w1.data, 0.0)) @ params.gcn_w2.data
    np.testing.assert_allclose(out.data, expect, atol=1e-12)


def test_gcn_rejects_misaligned_graph():
    rng = np.random.default_rng(5)
    params = make_params(rng, n_types=3)
    graph = make_graph(rng, n_types=2)
    with pytest.raises(InputError):
        gcn_propagate(Tensor(np.zeros((2, 4))), graph, params)


# -- token fusion ------------------------------------------------------------------


def test_token_fusion_beta_rows_sum_to_one():
    rng = np.random.default_rng(6)
    params = make_params(rng)
    h = Tensor(rng.normal(size=(4, 6)))
    q, _, u = label_attention(h, params)
    u_prime = gcn_propagate(u, make_graph(rng), params)
    beta, _ = token_fusion(h, q, u_prime, params)
    np.testing.assert_allclose(beta.data.sum(axis=1), np.ones(4), atol=1e-12)


def test_token_fusion_zero_output_projection_is_identity():
    rng = np.random.default_rng(7)
    params = make_params(rng)
    params.out_w = Tensor(np.zeros((4, 6)))
    params.out_b = Tensor(np.zeros((1, 6)))
    h = Tensor(rng.normal(size=(4, 6)))
    q, _, u = label_attention(h, params)
    u_prime = gcn_propagate(u, make_graph(rng), params)
    _, h_prime = token_fusion(h, q, u_prime, params)
    np.testing.assert_allclose(h_prime.data, h.data, atol=1e-12)


def test_token_fusion_identical_components_uniform_beta():
    rng = np.random.default_rng(8)
    params = make_params(rng)
    h = Tensor(rng.normal(size=(3, 6)))
    q, _, _ = label_attention(h, params)
    u_prime = Tensor(np.tile(rng.normal(size=(1, 4)), (3, 1)))
    beta, h_prime = token_fusion(h, q, u_prime, params)
    np.testing.assert_allclose(beta.data, np.full((3, 3), 1.0 / 3.0), atol=1e-12)
    # fused residual is then h + u_row @ out_w + out_b for every token
    shift = u_prime.data[0] @ params.out_w.data + params.out_b.data[0]
    np.testing.assert_allclose(h_prime.data, h.data + shift, atol=1e-12)


def test_fusion_residual_structure():
    rng = np.random.default_rng(9)
    params = make_params(rng)
    graph = make_graph(rng)
    h = Tensor(rng.normal(size=(5, 6)))
    trace = fusion_forward(h, graph, params)
    mix = trace.beta.data @ trace.u_prime.data
    expect = h.data + mix @ params.out_w.data + params.out_b.data
    np.testing.assert_allclose(trace.h_prime.data, expect, atol=1e-12)


def test_fusion_invariant_under_label_reorder():
    rng = np.random.default_rng(10)
    params = make_params(rng)
    rows = rng.dirichlet(np.ones(4), size=3)
    labels = ["T0", "T1", "T2"]
    h = Tensor(rng.normal(size=(4, 6)))
    perm = [2, 0, 1]

    graph = build_graph(rows, labels, 3.0)
    out = fusion_forward(h, graph, params).h_prime.data

    # permute graph nodes and label vectors consistently: h' must not change
    params_p = make_params(np.random.default_rng(10))
    params_p.label_reps = Tensor(params.label_reps.data[perm], requires_grad=True)
    graph_p = build_graph(rows[perm], [labels[i] for i in perm], 3.0)
    out_p = fusion_forward(h, graph_p, params_p).h_prime.data
    np.testing.assert_allclose(out_p, out, atol=1e-10)


# -- losses --------------------------------------------------------------------------


def test_classification_loss_uniform_logits():
    params = ModelParams(d_h=2, d_p=2, n_types=2, n_tags=4, encoder_mode="toy")
    params.cls_w = Tensor(np.zeros((2, 4)))
    params.cls_b = Tensor(np.zeros((1, 4)))
    h = Tensor(np.ones((3, 2)))
    loss = classification_loss(h, [0, 1, 2], params)
    assert loss.item() == pytest.approx(np.log(4.0), abs=1e-12)


def test_classification_loss_saturated_correct():
    params = ModelParams(d_h=2, d_p=2, n_types=2, n_tags=2, encoder_mode="toy")
    params.cls_w = Tensor(np.array([[100.0, 0.0], [0.0, 100.0]]))
    params.cls_b = Tensor(np.zeros((1, 2)))
    h = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert classification_loss(h, [0, 1], params).item() < 1e-12


def test_classification_loss_rejects_bad_ids():
    params = ModelParams(d_h=2, d_p=2, n_types=2, n_tags=2, encoder_mode="toy")
    params.cls_w = Tensor(np.zeros((2, 2)))
    params.cls_b = Tensor(np.zeros((1, 2)))
    with pytest.raises(InputError):
        classification_loss(Tensor(np.ones((1, 2))), [5], params)


def test_auxiliary_loss_zero_logits():
    params = ModelParams(d_h=2, d_p=2, n_types=2, n_tags=2, encoder_mode="toy")
    params.aux_w = Tensor(np.zeros((2, 2)))
    params.aux_b = Tensor(np.zeros((1, 2)))
    h = Tensor(np.ones((3, 2)))
    # z = 0: softplus(0) - 0*y = ln 2 for every type regardless of y
    loss = auxiliary_loss(h, np.array([1.0, 0.0]), params)
    assert loss.item() == pytest.approx(np.log(2.0), abs=1e-12)


def test_auxiliary_loss_saturated_correct():
    params = ModelParams(d_h=2, d_p=2, n_types=2, n_tags=2, encoder_mode="toy")
    params.aux_w = Tensor(np.zeros((2, 2)))
    params.aux_b = Tensor(np.array([[50.0, -50.0]]))
    h = Tensor(np.zeros((2, 2)))
    loss = auxiliary_loss(h, np.array([1.0, 0.0]), params)
    assert loss.item() < 1e-12


def test_auxiliary_loss_hand_value():
    params = ModelParams(d_h=1, d_p=1, n_types=2, n_tags=2, encoder_mode="toy")
    params.aux_w = Tensor(np.array([[1.0, -1.0]]))
    params.aux_b = Tensor(np.zeros((1, 2)))
    h = Tensor(np.array([[2.0], [4.0]]))  # pooled = 3, z = [3, -3]
    loss = auxiliary_loss(h, np.array([1.0, 1.0]), params)
    expect = ((np.log1p(np.exp(3.0)) - 3.0) + (np.log1p(np.exp(-3.0)) + 3.0)) / 2.0
    assert loss.item() == pytest.approx(expect, abs=1e-10)


# -- gradients -------------------------------------------------------------------------


def test_grad_full_fusion_objective():
    rng = np.random.default_rng(11)
    params = make_params(rng, d_h=4, d_p=3, n_types=2, n_tags=5, vocab_size=6)
    graph = make_graph(rng, n_types=2)
    ids = np.array([1, 3, 2, 5])
    gold = [0, 2, 4, 1]
    present = np.array([1.0, 0.0])

    def objective():
        h = encode_toy(ids, params)
        trace = fusion_forward(h, graph, params)
        return classification_loss(trace.h_prime, gold, params) + 0.5 * auxiliary_loss(
            trace.h_prime, present, params
        )

    report = grad_check(objective, params.trainable())
    assert report.passed, f"max rel err {report.max_rel_err}"


# -- encoder / embeddings -----------------------------------------------------------------


def test_encode_toy_deterministic_and_rejects_empty():
    rng = np.random.default_rng(12)
    params = make_params(rng)
    ids = np.array([1, 2, 3])
    a = encode_toy(ids, params).data
    b = encode_toy(ids, params).data
    np.testing.assert_array_equal(a, b)
    with pytest.raises(InputError):
        encode_toy(np.array([], dtype=np.intp), params)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.lists(st.integers(1, 6), min_size=1, max_size=5))
def test_encode_toy_batch_equals_stacked_sentences(seed, lengths):
    rng = np.random.default_rng(seed)
    params = make_params(rng)
    ids = rng.integers(0, 11, size=sum(lengths))
    batched = encode_toy(ids, params, lengths).data
    bounds = np.cumsum([0] + lengths)
    # no window reaches across a boundary: each block is that sentence's own encoding
    stacked = np.concatenate([encode_toy(ids[lo:hi], params).data
                              for lo, hi in zip(bounds[:-1], bounds[1:])])
    np.testing.assert_allclose(batched, stacked, rtol=0, atol=1e-12)


def test_encode_toy_rejects_bad_lengths():
    params = make_params(np.random.default_rng(13))
    with pytest.raises(InputError):
        encode_toy(np.array([1, 2, 3]), params, [3, 0])
    with pytest.raises(ShapeError):
        encode_toy(np.array([1, 2, 3]), params, [2, 2])


def test_vocab_unk_and_roundtrip():
    v = Vocab(["a", "b", "a"])
    assert len(v) == 3  # unk + 2
    np.testing.assert_array_equal(v.ids(["a", "zzz", "b"]), [1, 0, 2])


def test_embedding_file_roundtrip(tmp_path):
    path = tmp_path / "emb.jsonl"
    path.write_text(
        '{"tokens": ["a", "b"], "vectors": [[1.0, 2.0], [3.0, 4.0]]}\n'
        '{"tokens": ["c"], "vectors": [[5.0, 6.0]]}\n'
    )
    emb = EmbeddingFile(str(path))
    assert emb.dim == 2
    np.testing.assert_array_equal(emb.lookup(["a", "b"]), [[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(InputError):
        emb.lookup(["missing"])


def test_embedding_file_validation(tmp_path):
    bad_count = tmp_path / "bad1.jsonl"
    bad_count.write_text('{"tokens": ["a", "b"], "vectors": [[1.0]]}\n')
    with pytest.raises(InputError):
        EmbeddingFile(str(bad_count))
    bad_dim = tmp_path / "bad2.jsonl"
    bad_dim.write_text(
        '{"tokens": ["a"], "vectors": [[1.0, 2.0]]}\n'
        '{"tokens": ["b"], "vectors": [[1.0]]}\n'
    )
    with pytest.raises(InputError):
        EmbeddingFile(str(bad_dim))


# -- properties ----------------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 6))
def test_attention_rows_always_normalized(seed, n_tokens):
    rng = np.random.default_rng(seed)
    params = make_params(rng)
    graph = make_graph(rng)
    h = Tensor(rng.normal(size=(n_tokens, 6)))
    trace = fusion_forward(h, graph, params)
    np.testing.assert_allclose(trace.alpha.data.sum(axis=1), np.ones(3), atol=1e-10)
    np.testing.assert_allclose(trace.beta.data.sum(axis=1), np.ones(n_tokens), atol=1e-10)
    assert np.all(trace.alpha.data >= 0) and np.all(trace.beta.data >= 0)


@pytest.mark.parametrize("copies", range(1, 9))
def test_block_diagonal_equals_kron(copies):
    a_hat = make_graph(np.random.default_rng(copies), n_types=4).adjacency()
    got = fu.block_diagonal(a_hat, copies)
    want = np.kron(np.eye(copies), a_hat)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
