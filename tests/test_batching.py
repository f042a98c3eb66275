"""One graph per mini-batch: the batched objective and the batched tagging
equal the per-sentence ones."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TAGS, WORDS, make_model
from labeltransfer import autodiff as ad
from labeltransfer import fusion as fu
from labeltransfer import pipeline
from labeltransfer.autodiff import Tensor
from labeltransfer.data import TaggedCorpus, extract_spans, micro_f1
from labeltransfer.gw import gw_fixed_plan_loss
from labeltransfer.labelgraph import target_graph_from_batch
from labeltransfer.pipeline import Model, TrainConfig

CONFIG = TrainConfig(d_h=6, d_p=4, lambda1=0.7, lambda2=0.4, temperature=2.0, epochs=1)


def random_corpus(rng: np.random.Generator, lengths) -> TaggedCorpus:
    sentences = []
    for n in lengths:
        tokens = tuple(rng.choice(WORDS, size=n))
        tags = tuple(TAGS[i] if rng.random() < 0.4 else "O"
                     for i in rng.integers(1, len(TAGS), size=n))
        sentences.append((tokens, tags))
    return TaggedCorpus(tuple(sentences))


def parent_forward(model: Model, tokens) -> np.ndarray:
    """Tag logits of one sentence by the per-sentence forward, op for op."""
    p = model.params
    e = ad.rows_select(p.embed, model.vocab.ids(list(tokens)))
    mixed = (
        ad.matmul(ad.shift_rows(e, 1), p.mix_left)
        + ad.matmul(e, p.mix_center)
        + ad.matmul(ad.shift_rows(e, -1), p.mix_right)
        + p.mix_bias
    )
    h = e + ad.relu(mixed)
    if model.kind == "fused":
        q = ad.matmul(h, p.proj_w) + p.proj_b
        u = ad.matmul(ad.softmax_rows(ad.matmul(p.label_reps, ad.transpose(q))), q)
        a_hat = Tensor(model.source_graph.adjacency())
        hidden = ad.relu(ad.matmul(ad.matmul(a_hat, u), p.gcn_w1))
        u_prime = ad.matmul(ad.matmul(a_hat, hidden), p.gcn_w2)
        beta = ad.softmax_rows(ad.matmul(q, ad.transpose(u_prime)))
        h = h + ad.matmul(ad.matmul(beta, u_prime), p.out_w) + p.out_b
    return (ad.matmul(h, p.cls_w) + p.cls_b).data


def per_sentence_loss(model: Model, batch, plan):
    """The batch objective summed sentence by sentence: token-weighted tag
    loss, sentence-mean presence loss, GW over the stacked entity rows."""
    fused = model.kind == "fused"
    cls_terms, weights, aux_terms, entity_logits, gold = [], [], [], [], []
    for sent in batch:
        logits, trace = model.forward([sent.tokens])
        cls_terms.append(fu.classification_loss_from_logits(logits, sent.tag_ids))
        weights.append(len(sent.tokens))
        if fused:
            aux_terms.append(fu.auxiliary_loss(trace.h_prime, sent.present, model.params))
            if len(sent.entity_rows):
                tl = model.type_logits_tensor(logits)
                entity_logits.append(ad.rows_select(tl, sent.entity_rows))
                gold.extend(sent.entity_types)
    total = float(sum(weights))
    loss = sum((w / total) * l for w, l in zip(weights, cls_terms))
    if fused:
        loss = loss + CONFIG.lambda1 * (sum(aux_terms) / float(len(aux_terms)))
        if plan is not None:
            tgb = target_graph_from_batch(ad.concat_rows(entity_logits), gold,
                                          CONFIG.temperature, CONFIG.edge_threshold)
            d_s = model.source_graph.subgraph(list(tgb.labels)).distance_matrix()
            loss = loss + CONFIG.lambda2 * gw_fixed_plan_loss(tgb.distances, d_s, plan)
    return loss


def leaf_grads(model: Model, loss: Tensor) -> dict:
    loss.backward()
    out = {}
    for name, t in model.params.named_tensors():
        out[name] = np.zeros_like(t.data) if t.grad is None else t.grad
        t.grad = None
    return out


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 10_000),
    st.sampled_from(["source", "fused"]),
    st.lists(st.integers(1, 14), min_size=1, max_size=8),
)
def test_batched_objective_equals_per_sentence_sum(seed, kind, lengths):
    rng = np.random.default_rng(seed)
    model = make_model(kind, rng)
    batch = pipeline._sentence_targets(model, random_corpus(rng, lengths))
    tokens = [sent.tokens for sent in batch]

    # a batch of one runs the per-sentence forward unchanged, bit for bit
    for sent in tokens:
        np.testing.assert_array_equal(model.forward([sent])[0].data, parent_forward(model, sent))

    plans = []
    solve = pipeline.gromov_wasserstein_distances

    def capturing_solve(*args, **kwargs):
        result = solve(*args, **kwargs)
        plans.append(result.plan.matrix)
        return result

    fused = kind == "fused"
    with mock.patch.object(pipeline, "gromov_wasserstein_distances", capturing_solve):
        out = pipeline._batch_loss(model, batch, CONFIG, aux_on=fused, gw_on=fused)
    assert out.gw_skipped == (fused and not plans)
    # the reference reuses the batched solve's plan: a GW solve is not
    # continuous in its input at its stopping thresholds
    plan = plans[0] if plans else None
    reference = per_sentence_loss(model, batch, plan)
    assert abs(out.total.item() - reference.item()) <= 1e-12

    batched_logits = model.forward(tokens)[0].data
    stacked = np.concatenate([model.tag_logits_array(sent) for sent in tokens])
    np.testing.assert_allclose(batched_logits, stacked, rtol=0, atol=1e-12)

    got, want = leaf_grads(model, out.total), leaf_grads(model, reference)
    assert set(got) == set(want)
    for name in got:
        np.testing.assert_allclose(got[name], want[name], rtol=0, atol=1e-12, err_msg=name)


# corpus sizes: whole multiples of the evaluation chunk, and any size up to 20
corpus_sizes = st.one_of(st.sampled_from([8, 16]), st.integers(1, 20))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 10_000),
    st.sampled_from(["source", "fused"]),
    corpus_sizes.flatmap(lambda n: st.lists(st.integers(1, 14), min_size=n, max_size=n)),
)
def test_batched_evaluation_equals_per_sentence_tagging(seed, kind, lengths):
    rng = np.random.default_rng(seed)
    model = make_model(kind, rng)
    corpus = random_corpus(rng, lengths)
    sentences = [tokens for tokens, _ in corpus.sentences]
    per_sentence = [model.predict_tags(tokens) for tokens in sentences]
    assert model.tag_sentences(sentences) == per_sentence

    forward = Model.forward
    chunks = []

    def recording_forward(self, batch):
        chunks.append(len(batch))
        return forward(self, batch)

    with mock.patch.object(Model, "forward", recording_forward):
        prf = pipeline.evaluate(model, corpus)
    chunk = pipeline.EVAL_CHUNK
    assert chunks == [min(chunk, len(lengths) - start) for start in range(0, len(lengths), chunk)]
    predicted = TaggedCorpus(tuple(zip(sentences, map(tuple, per_sentence))))
    assert prf == micro_f1(extract_spans(corpus), extract_spans(predicted))
