"""Inference reuses pooled temporaries (`autodiff._scratch`) and still gives
the taped forward's logits bit for bit; nothing pooled outlives its use."""

import numpy as np
import pytest

from conftest import make_model
from labeltransfer import autodiff as ad
from labeltransfer import pipeline
from test_batching import CONFIG, random_corpus

CHUNK = pipeline.EVAL_CHUNK


@pytest.fixture(autouse=True)
def empty_pool():
    ad.clear_scratch()
    yield
    ad.clear_scratch()


def sentences_of(rng, n):
    return [tokens for tokens, _ in random_corpus(rng, rng.integers(1, 15, size=n)).sentences]


def taped_logits(model, chunk) -> np.ndarray:
    """Tag logits of one chunk by a forward that records a tape, so nothing is pooled."""
    logits = model.forward(chunk, model.token_ids(chunk))[0]
    assert logits.requires_grad and not ad._pool
    return logits.data


def poison_pool(rows: int):
    """Fill more slots than the ops use with NaN, each big enough for a whole chunk."""
    with ad.no_grad():
        for slot in range(8):
            ad._scratch(slot, (rows, 32)).fill(np.nan)


@pytest.mark.parametrize("kind", ["source", "fused"])
@pytest.mark.parametrize("n", [1, CHUNK, 2 * CHUNK + 1])
def test_pooled_chunks_equal_a_taped_forward(kind, n):
    rng = np.random.default_rng(n)
    model = make_model(kind, rng)
    sentences = sentences_of(rng, n)
    # stale NaN in every slot: a temporary the ops read before writing shows
    poison_pool(15 * CHUNK)
    chunks = list(model.forward_chunks(sentences))
    assert [len(chunk) for chunk, _ in chunks] == [min(CHUNK, n - s) for s in range(0, n, CHUNK)]
    for chunk, logits in chunks:
        assert not logits.requires_grad
        np.testing.assert_array_equal(logits.data, taped_logits(model, chunk))
    poison_pool(15)
    for tokens in sentences[:3]:
        np.testing.assert_array_equal(model.tag_logits_array(tokens), taped_logits(model, [tokens]))


@pytest.mark.parametrize("kind", ["source", "fused"])
def test_yielded_logits_are_never_overwritten(kind):
    rng = np.random.default_rng(7)
    model = make_model(kind, rng)
    sentences = sentences_of(rng, 2 * CHUNK + 1)
    chunks = []
    for chunk, logits in model.forward_chunks(sentences):
        assert ad._pool, "the chunk's forward took no pooled temporary"
        assert not any(np.shares_memory(logits.data, buffer) for buffer in ad._pool.values())
        chunks.append((chunk, logits.data.copy(), logits))
    # the later chunks ran on the same slots; every array kept its values
    for chunk, copy, logits in chunks:
        np.testing.assert_array_equal(logits.data, copy)
        np.testing.assert_array_equal(logits.data, taped_logits(model, chunk))


def test_op_outputs_are_their_own_arrays():
    rng = np.random.default_rng(8)
    model = make_model("fused", rng)
    p = model.params
    sentences = sentences_of(rng, 9)
    seg = pipeline._batch_segments(sentences)
    with ad.no_grad():
        e = ad.rows_select(p.embed, model.token_ids(sentences))
        h = ad.window_mix(e, p.mix_left, p.mix_center, p.mix_right, p.mix_bias, seg.offsets)
        assert ad._pool
        assert not any(np.shares_memory(h.data, buffer) for buffer in ad._pool.values())
        h_prime = ad.label_fusion(h, p.proj_w, p.proj_b, p.label_reps, p.gcn_w1, p.gcn_w2,
                                  p.out_w, p.out_b, model.source_graph.adjacency(), seg.lengths)
        assert not any(np.shares_memory(h_prime.data, buffer) for buffer in ad._pool.values())


@pytest.mark.parametrize("kind", ["source", "fused"])
def test_a_taped_batch_loss_and_backward_pool_nothing(kind):
    rng = np.random.default_rng(9)
    model = make_model(kind, rng)
    batch = pipeline._sentence_targets(model, random_corpus(rng, [5, 1, 12, 7]))
    fused = kind == "fused"
    out = pipeline._batch_loss(model, batch, CONFIG, aux_on=fused, gw_on=fused)
    out.total.backward()
    assert not ad._pool


@pytest.mark.parametrize("kind", ["source", "fused"])
def test_the_chunk_loop_empties_the_pool_however_it_ends(kind):
    rng = np.random.default_rng(10)
    model = make_model(kind, rng)
    sentences = sentences_of(rng, 2 * CHUNK + 1)
    for _ in model.forward_chunks(sentences):
        pass
    assert not ad._pool
    chunks = model.forward_chunks(sentences)
    next(chunks)
    assert ad._pool  # held while the loop is suspended between chunks
    chunks.close()  # abandoned at its first chunk
    assert not ad._pool
    model.tag_logits_array(sentences[0])  # abandons its loop the same way
    assert not ad._pool
    pipeline.evaluate(model, random_corpus(rng, [3, 4]))
    assert not ad._pool


@pytest.mark.parametrize("kind", ["source", "fused"])
def test_a_chunk_no_larger_than_the_last_reuses_its_slots(kind):
    rng = np.random.default_rng(11)
    model = make_model(kind, rng)
    sentences = sentences_of(rng, 20)
    with ad.no_grad():
        model.forward(sentences, model.token_ids(sentences))
        first = dict(ad._pool)
        model.forward(sentences[:12], model.token_ids(sentences[:12]))
    assert ad._pool.keys() == first.keys()
    assert all(ad._pool[slot] is buffer for slot, buffer in first.items())
