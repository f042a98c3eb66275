"""Training pipeline: source tagger, graph freezing, fine-tuning, sweeps, I/O."""

import hashlib
import json
import math
import struct
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_model
from labeltransfer import autodiff as ad
from labeltransfer import fusion as fu
from labeltransfer import pipeline
from labeltransfer.autodiff import Tensor
from labeltransfer.data import InputError, TaggedCorpus, extract_spans, micro_f1, parse_conll
from labeltransfer.errors import LabelTransferError, NumericError, ShapeError
from labeltransfer.labelgraph import build_graph, threshold_edges
from labeltransfer.pipeline import (
    Model,
    TrainConfig,
    aggregate,
    build_source_graph,
    evaluate,
    finetune,
    sweep,
    tags_for,
    train_source,
)
from labeltransfer.synth import SynthSpec, generate

SMALL_SPEC = SynthSpec(
    seed=0,
    source_sentences=60,
    source_test_sentences=30,
    target_train_sentences=40,
    target_test_sentences=30,
)

SMALL_CONFIG = TrainConfig(d_h=16, d_p=8, epochs=40, learning_rate=0.3, seed=0)


# small enough that random bit flips often hit a block header
TINY_CHECKPOINTS = {kind: make_model(kind, np.random.default_rng(0)).save_bytes()
                    for kind in ("source", "fused")}


def param_arrays(model: Model) -> dict:
    return {name: t.data.copy() for name, t in model.params.named_tensors()}


@pytest.fixture(scope="module")
def task():
    return generate(SMALL_SPEC)


@pytest.fixture(scope="module")
def f0(task):
    return train_source(task.source_train, SMALL_CONFIG)


# -- config ---------------------------------------------------------------------


def test_config_defaults_and_validation():
    cfg = TrainConfig()
    assert cfg.temperature == 4.0 and cfg.edge_threshold == 1.5
    assert cfg.lambda1 == 0.1 and cfg.lambda2 == 0.01
    with pytest.raises(InputError):
        TrainConfig(temperature=0.0)
    with pytest.raises(InputError):
        TrainConfig(lambda1=-1.0)
    with pytest.raises(InputError):
        TrainConfig(encoder_mode="bert")


def test_config_json_round_trip_and_unknown_field():
    cfg = TrainConfig(lambda1=0.5, epochs=3)
    again = TrainConfig.from_json(cfg.to_json())
    assert again == cfg
    with pytest.raises(InputError):
        TrainConfig.from_json('{"nonsense": 1}')
    # a float field takes an integer, a path field takes null
    cfg = TrainConfig.from_json('{"temperature": 2, "embedding_file": null}')
    assert cfg.temperature == 2 and cfg.embedding_file is None


@pytest.mark.parametrize(
    "text",
    [
        '{"temperature": "x"}',
        '{"epochs": "x"}',
        '{"d_h": 2.5}',
        '{"seed": true}',
        '{"ablate_gw": "no"}',
        '{"embedding_file": 3}',
    ],
    ids=["str_float", "str_int", "float_int", "bool_int", "str_bool", "int_path"],
)
def test_config_rejects_wrong_field_types(text):
    with pytest.raises(InputError):
        TrainConfig.from_json(text)


@pytest.mark.parametrize(
    "text",
    [
        '{"temperature": NaN}',
        '{"lambda2": Infinity}',
        '{"batch_size": 0}',
        '{"d_h": 0}',
        '{"inner_iter": 0}',
        '{"epochs": -1}',
        '{"epsilon": 0}',
        '{"gw_tol": 0.0}',
        '{"learning_rate": -0.1}',
        '{"seed": -1}',
    ],
    ids=["nan_temperature", "inf_lambda2", "zero_batch_size", "zero_d_h", "zero_inner_iter",
         "negative_epochs", "zero_epsilon", "zero_gw_tol", "negative_learning_rate",
         "negative_seed"],
)
def test_config_rejects_out_of_range_values(text):
    with pytest.raises(InputError):
        TrainConfig.from_json(text)


def test_tags_for_layout():
    assert tags_for(["PER", "LOC"]) == ("O", "B-PER", "I-PER", "B-LOC", "I-LOC")


# -- source training -----------------------------------------------------------------


def test_train_source_zero_epochs_is_initialization():
    corpus = parse_conll("a B-X\nb O\n")
    cfg = TrainConfig(d_h=8, d_p=4, epochs=0, seed=3)
    m1 = train_source(corpus, cfg)
    m2 = train_source(corpus, cfg)
    for (n1, t1), (n2, t2) in zip(m1.params.named_tensors(), m2.params.named_tensors()):
        assert n1 == n2
        np.testing.assert_array_equal(t1.data, t2.data)


def test_train_source_rejects_empty():
    with pytest.raises(InputError):
        train_source(parse_conll(""), TrainConfig())


def test_train_source_deterministic(task):
    m1 = train_source(task.source_train, SMALL_CONFIG)
    m2 = train_source(task.source_train, SMALL_CONFIG)
    assert m1.save_bytes() == m2.save_bytes()


def test_train_source_token_accuracy(task, f0):
    correct = total = 0
    for tokens, tags in task.source_test.sentences:
        pred = f0.predict_tags(list(tokens))
        correct += sum(p == g for p, g in zip(pred, tags))
        total += len(tags)
    assert correct / total > 0.95


# -- source graph ----------------------------------------------------------------------


def test_build_source_graph_deterministic(task, f0):
    g1 = build_source_graph(f0, task.target_train, SMALL_CONFIG)
    g2 = build_source_graph(f0, task.target_train, SMALL_CONFIG)
    assert g1.to_json() == g2.to_json()
    assert g1.labels == ("L1A", "L1B", "L2A", "L2B")


def test_build_source_graph_siblings_nearer(task, f0):
    # subtypes of the same coarse label should sit closer than cross-parent pairs
    g = build_source_graph(f0, task.target_train, SMALL_CONFIG)
    d = g.distance_matrix()
    idx = {l: i for i, l in enumerate(g.labels)}
    sib = d[idx["L1A"], idx["L1B"]]
    cross = d[idx["L1A"], idx["L2B"]]
    assert sib < cross


def test_build_source_graph_rejects_unlabeled(f0):
    with pytest.raises(InputError):
        build_source_graph(f0, parse_conll("a O\nb O\n"), SMALL_CONFIG)


# -- fine-tuning --------------------------------------------------------------------------


def test_finetune_runs_and_logs(task, f0):
    cfg = TrainConfig(d_h=16, d_p=8, epochs=2, learning_rate=0.1, seed=0)
    model, log = finetune(f0, task.target_train, cfg)
    assert model.kind == "fused"
    assert len(log) == 2
    for row in log:
        assert set(row) == {"epoch", "cls", "aux", "gw", "total", "gw_skips", "gw_unconverged"}
        assert row["total"] >= row["cls"] - 1e-12


def test_finetune_counts_unconverged_gw_batches(task, f0, monkeypatch):
    converged = []
    solve = pipeline.gromov_wasserstein_distances

    def recording_solve(*args, **kwargs):
        result = solve(*args, **kwargs)
        converged.append(result.converged)
        return result

    monkeypatch.setattr(pipeline, "gromov_wasserstein_distances", recording_solve)
    # capped solves: some batches end unconverged
    cfg = TrainConfig(d_h=16, d_p=8, epochs=2, learning_rate=0.1, seed=0,
                      inner_iter=5, outer_iter=2)
    _, log = finetune(f0, task.target_train, cfg)
    assert sum(row["gw_unconverged"] for row in log) == converged.count(False) > 0
    _, log = finetune(f0, task.target_train, replace(cfg, ablate_gw=True))
    assert all(row["gw_unconverged"] == 0 for row in log)


def test_finetune_zero_weights_total_equals_cls(task, f0):
    cfg = TrainConfig(d_h=16, d_p=8, epochs=2, learning_rate=0.1, seed=0,
                      lambda1=0.0, lambda2=0.0)
    _, log = finetune(f0, task.target_train, cfg)
    for row in log:
        assert row["total"] == pytest.approx(row["cls"], abs=1e-12)
        assert row["aux"] == 0.0 and row["gw"] == 0.0


def test_finetune_flag_matches_zero_weight(task, f0):
    base = dict(d_h=16, d_p=8, epochs=2, learning_rate=0.1, seed=0)
    by_flag, _ = finetune(f0, task.target_train, TrainConfig(ablate_gw=True, **base))
    by_weight, _ = finetune(f0, task.target_train, TrainConfig(lambda2=0.0, **base))
    # configs differ, so compare the learned parameters, not checkpoint bytes
    for (n1, t1), (n2, t2) in zip(
        by_flag.params.named_tensors(), by_weight.params.named_tensors()
    ):
        assert n1 == n2
        np.testing.assert_array_equal(t1.data, t2.data)


def test_finetune_deterministic(task, f0):
    cfg = TrainConfig(d_h=16, d_p=8, epochs=2, learning_rate=0.1, seed=0)
    m1, log1 = finetune(f0, task.target_train, cfg)
    m2, log2 = finetune(f0, task.target_train, cfg)
    assert m1.save_bytes() == m2.save_bytes()
    assert log1 == log2


def test_finetune_leaves_source_model_untouched(task, f0):
    before = f0.save_bytes()
    cfg = TrainConfig(d_h=16, d_p=8, epochs=1, learning_rate=0.1, seed=0)
    finetune(f0, task.target_train, cfg)
    assert f0.save_bytes() == before


def test_finetune_source_graph_frozen_during_training(task, f0):
    cfg = TrainConfig(d_h=16, d_p=8, epochs=2, learning_rate=0.1, seed=0)
    model, _ = finetune(f0, task.target_train, cfg)
    rebuilt = build_source_graph(f0, task.target_train, cfg)
    assert model.source_graph.to_json() == rebuilt.to_json()


def test_file_encoder_through_training(task, tmp_path):
    # one stored vector per token of every sentence the run reads
    rng = np.random.default_rng(0)
    path = tmp_path / "emb.jsonl"
    written = set()
    with open(path, "w", encoding="utf-8") as fh:
        for corpus in (task.source_train, task.target_train, task.target_test):
            for tokens, _ in corpus.sentences:
                if tokens not in written:
                    written.add(tokens)
                    vectors = rng.normal(size=(len(tokens), 8)).tolist()
                    fh.write(json.dumps({"tokens": list(tokens), "vectors": vectors}) + "\n")
    cfg = TrainConfig(d_h=8, d_p=4, epochs=2, learning_rate=0.1, seed=0,
                      encoder_mode="file", embedding_file=str(path))
    f0_file = train_source(task.source_train, cfg)
    model, log = finetune(f0_file, task.target_train, cfg)
    assert len(log) == 2 and all(np.isfinite(row["total"]) for row in log)
    assert 0.0 <= evaluate(model, task.target_test)[2] <= 1.0
    # a batch reads each sentence's own vectors, in order
    sentences = [tokens for tokens, _ in task.target_train.sentences[:4]]
    ids = model.token_ids(sentences)
    np.testing.assert_array_equal(
        model.encode(sentences, ids, fu.segments([len(s) for s in sentences])).data,
        np.concatenate([model.encode([tokens], model.token_ids([tokens]), fu.segments([len(tokens)])).data
                        for tokens in sentences]),
    )
    stacked = np.concatenate([model.tag_logits_array(tokens) for tokens in sentences])
    np.testing.assert_allclose(model.forward(sentences, ids)[0].data, stacked, rtol=0, atol=1e-12)
    assert model.tag_sentences(sentences) == [model.predict_tags(tokens) for tokens in sentences]


def test_finetune_rejects_unlabeled_corpus(f0):
    with pytest.raises(InputError):
        finetune(f0, parse_conll("a O\n"), SMALL_CONFIG)


@pytest.mark.parametrize("encoder_mode, d_h", [("toy", 8), ("file", 6)],
                         ids=["toy_other_d_h", "file_encoder"])
def test_finetune_rejects_source_model_without_the_configs_toy_encoder(encoder_mode, d_h):
    # a toy-encoder config copies f0's toy encoder, so f0 must hold one of its d_h
    rng = np.random.default_rng(0)
    params = fu.ModelParams(d_h=d_h, d_p=4, n_types=2, n_tags=5, encoder_mode=encoder_mode)
    fu.init_params(params, rng, 3, fused=False)
    source_config = TrainConfig(d_h=d_h, d_p=4, encoder_mode=encoder_mode,
                                embedding_file="emb.jsonl")
    f0 = Model("source", params, fu.Vocab(["a", "b"]), ("X", "Y"), source_config)
    with pytest.raises(InputError, match="toy-encoder source model"):
        finetune(f0, parse_conll("a B-P\nb B-Q\n"), TrainConfig(d_h=6, d_p=4, epochs=1))


def test_gw_term_skipped_when_the_source_subgraph_is_degenerate():
    model = make_model("fused", np.random.default_rng(0))
    # A and B share one raw row: their subgraph has all distances 0
    rows = np.array([[0.6, 0.3, 0.1], [0.6, 0.3, 0.1], [0.1, 0.2, 0.7]])
    model.source_graph = build_graph(rows, ["A", "B", "C"], 1.5)
    assert not model.source_graph.degenerate
    batch = pipeline._sentence_targets(model, parse_conll("w1 B-A\nw2 O\nw3 B-B\n\nw4 B-B\nw5 I-B\n"))
    config = replace(model.config, lambda1=0.5, lambda2=0.3)
    build_target_graph = pipeline.target_graph_from_batch
    target_graphs = []

    def recording_target_graph(*args):
        target_graphs.append(build_target_graph(*args))
        return target_graphs[-1]

    with mock.patch.object(pipeline, "target_graph_from_batch", recording_target_graph), \
            mock.patch.object(pipeline, "gromov_wasserstein_distances", side_effect=AssertionError):
        out = pipeline._batch_loss(model, batch, config, aux_on=True, gw_on=True)
    # the batch's own target graph is not what made the term skip
    assert len(target_graphs) == 1 and target_graphs[0] is not None
    assert target_graphs[0].labels == ("A", "B")
    assert out.gw_skipped and not out.gw_unconverged and out.gw == 0.0
    assert out.total.item() == out.cls.item() + config.lambda1 * out.aux


@pytest.mark.parametrize("seed", range(4))
def test_type_logits_of_the_selected_rows_equal_the_selected_type_logits(seed):
    # `_batch_loss` selects the entity rows before the log-sum-exp; it equals selecting after
    rng = np.random.default_rng(seed)
    model = make_model("fused", rng)
    logits = Tensor(rng.normal(scale=3.0, size=(9, len(model.tags))), requires_grad=True)
    rows = np.sort(rng.choice(9, size=int(rng.integers(1, 10)), replace=False))
    w = Tensor(rng.normal(size=(len(rows), len(model.labels))))
    grads = []
    for select_first in (True, False):
        if select_first:
            type_logits = model.type_logits_tensor(ad.rows_select(logits, rows))
        else:
            type_logits = ad.rows_select(model.type_logits_tensor(logits), rows)
        (type_logits * w).sum().backward()
        grads.append((type_logits.data, logits.grad))
        logits.grad = None
    (got, got_grad), (want, want_grad) = grads
    assert got.tobytes() == want.tobytes()
    assert got_grad.tobytes() == want_grad.tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_sgd_step_rejects_non_finite_gradient_and_loss(bad):
    model = make_model("fused", np.random.default_rng(0))
    before = param_arrays(model)
    for tensor in model.params.trainable():
        tensor.grad[...] = 1.0  # write into the flat gradient vector's views
    model.params.cls_w.grad[0, 0] = bad
    with pytest.raises(NumericError, match="epoch 3, batch 1"):
        pipeline._sgd_step(model.params, 0.1, 1.0, "epoch 3, batch 1")
    model.params.cls_w.grad[0, 0] = 1.0
    with pytest.raises(NumericError):
        pipeline._sgd_step(model.params, 0.1, bad, "epoch 0, batch 0")
    for name, data in param_arrays(model).items():
        np.testing.assert_array_equal(data, before[name], err_msg=name)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_training_stops_before_a_non_finite_step(bad):
    # 20 sentences in batches of 8: three batches per epoch, the fifth is epoch 1, batch 1
    corpus = parse_conll("\n".join("w1 B-A\nw2 I-A\nw3 O\nw4 B-C\n" for _ in range(20)))
    model = make_model("fused", np.random.default_rng(0))
    config = replace(model.config, batch_size=8, epochs=2)
    loss = fu.classification_loss_from_logits
    calls, before = [], {}

    def poisoned_loss(logits, gold):
        calls.append(None)
        if len(calls) < 5:
            return loss(logits, gold)
        before.update(param_arrays(model))
        return loss(logits, gold) * bad

    # backward through an infinite loss makes NaN gradients: silence numpy's warnings
    with np.errstate(invalid="ignore"), \
            mock.patch.object(fu, "classification_loss_from_logits", poisoned_loss):
        with pytest.raises(NumericError, match="epoch 1, batch 1"):
            list(pipeline._train(model, corpus, config, np.random.default_rng(0)))
    for name, data in param_arrays(model).items():
        np.testing.assert_array_equal(data, before[name], err_msg=name)


# -- evaluation ------------------------------------------------------------------------------


def test_evaluate_self_consistency(task, f0):
    p, r, f = evaluate(f0, task.source_test)
    assert 0.0 <= f <= 1.0
    assert f > 0.8  # source task is cue-determined and learnable


def test_evaluate_rejects_foreign_labels(task, f0):
    with pytest.raises(InputError, match=r"corpus labels not in model label set: \['NOPE'\]"):
        evaluate(f0, parse_conll("a B-NOPE\n"))
    with pytest.raises(InputError, match=r"corpus labels not in model label set: \['NOPE'\]"):
        evaluate(f0, parse_conll("a B-L1\nb O\n\nc I-NOPE\n"))
    with pytest.raises(InputError, match="corpus tag 'X-L1' is not a BIO tag"):
        evaluate(f0, TaggedCorpus(((("a", "b"), ("B-L1", "X-L1")),)))


def _string_evaluate(model: Model, corpus: TaggedCorpus):
    """`evaluate` as the composition of the string-tag scorer."""
    sentences = [tokens for tokens, _ in corpus.sentences]
    predicted = TaggedCorpus(tuple(zip(sentences, map(tuple, model.tag_sentences(sentences)))))
    return micro_f1(extract_spans(corpus), extract_spans(predicted))


def test_evaluate_equals_the_string_scorer(task, f0):
    fused, _ = finetune(f0, task.target_train, TrainConfig(d_h=16, d_p=8, epochs=2, seed=0))
    cases = [(f0, task.source_test), (fused, task.target_test), (fused, task.target_train)]
    for model, corpus in cases:
        assert evaluate(model, corpus) == _string_evaluate(model, corpus)
    assert 0.0 < evaluate(fused, task.target_test)[2] < 1.0  # some spans right, some wrong
    no_entities = TaggedCorpus(tuple((tokens, ("O",) * len(tokens))
                                     for tokens, _ in task.target_test.sentences))
    assert evaluate(fused, no_entities) == _string_evaluate(fused, no_entities) == (0.0, 0.0, 0.0)
    assert evaluate(fused, TaggedCorpus(())) == (0.0, 0.0, 0.0)


# -- checkpoint I/O ----------------------------------------------------------------------------


def test_checkpoint_round_trip(task, f0, tmp_path):
    cfg = TrainConfig(d_h=16, d_p=8, epochs=1, learning_rate=0.1, seed=0)
    model, _ = finetune(f0, task.target_train, cfg)
    path = tmp_path / "model.ckpt"
    model.save(str(path))
    loaded = Model.load(str(path))
    assert loaded.save_bytes() == model.save_bytes()
    tokens = list(task.target_test.sentences[0][0])
    assert loaded.predict_tags(tokens) == model.predict_tags(tokens)


def test_source_graph_json_is_pinned_and_survives_a_checkpoint():
    model = make_model("fused", np.random.default_rng(0))
    graph = model.source_graph
    assert sorted(graph.edges) == [(0, 2), (1, 2)]  # one pair is above the threshold
    # the graph JSON of this model as it was when build_graph thresholded the edges itself
    assert hashlib.sha256(graph.to_json().encode()).hexdigest() == (
        "6f9277a794f24cc750295be2538fabaa6f2aa675483e692d4186e130159aeee9")
    loaded = Model.load_bytes(model.save_bytes()).source_graph
    assert loaded.to_json() == graph.to_json()
    assert loaded.edges == graph.edges == threshold_edges(loaded.nodes, loaded.threshold)


def test_checkpoint_rejects_bad_magic_and_version(f0):
    raw = f0.save_bytes()
    with pytest.raises(InputError):
        Model.load_bytes(b"XXXX" + raw[4:])
    with pytest.raises(InputError):
        Model.load_bytes(raw[:4] + bytes([99]) + raw[5:])


def _with_meta(raw: bytes, edit) -> bytes:
    """The checkpoint with its metadata JSON passed through ``edit``."""
    (mlen,) = struct.unpack("<I", raw[5:9])
    meta = json.loads(raw[9 : 9 + mlen])
    edit(meta)
    blob = json.dumps(meta).encode("utf-8")
    return raw[:5] + struct.pack("<I", len(blob)) + blob + raw[9 + mlen :]


def _with_unknown_config_field(raw: bytes) -> bytes:
    return _with_meta(raw, lambda meta: meta["config"].update(bogus=1))


def _with_flipped_block_name(raw: bytes) -> bytes:
    (mlen,) = struct.unpack("<I", raw[5:9])
    at = 9 + mlen + 4 + 2  # block count, then the first name's length
    return raw[:at] + bytes([raw[at] ^ 0x20]) + raw[at + 1 :]


def _first_block_at(raw: bytes) -> int:
    """Offset of the first parameter block's ndim byte (the block is ``embed``)."""
    (mlen,) = struct.unpack("<I", raw[5:9])
    at = 9 + mlen + 4  # block count
    (nlen,) = struct.unpack("<H", raw[at : at + 2])
    assert raw[at + 2 : at + 2 + nlen] == b"embed"
    return at + 2 + nlen


def _with_flipped_ndim(raw: bytes) -> bytes:
    # ndim 2 becomes 6: dims are read from float bytes, far more elements than the file holds
    at = _first_block_at(raw)
    return raw[:at] + bytes([raw[at] ^ 0x04]) + raw[at + 1 :]


def _with_first_value(value: float):
    def corrupt(raw: bytes) -> bytes:
        at = _first_block_at(raw)
        first = at + 1 + 4 * raw[at]  # embed[0, 0]
        return raw[:first] + struct.pack("<d", value) + raw[first + 8 :]
    return corrupt


def _with_duplicate_embed(raw: bytes) -> bytes:
    # a second, well-formed embed block filled with 7.0, appended after the last block
    (mlen,) = struct.unpack("<I", raw[5:9])
    (nblocks,) = struct.unpack("<I", raw[9 + mlen : 13 + mlen])
    (start, end, name), (after, _, _) = _block_headers(raw)[:2]
    assert name == "embed"
    copy = raw[start:end] + struct.pack("<d", 7.0) * ((after - end) // 8)
    return raw[: 9 + mlen] + struct.pack("<I", nblocks + 1) + raw[13 + mlen :] + copy


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda raw: raw[:7],  # inside the metadata length
        lambda raw: raw[:40],  # inside the metadata JSON
        lambda raw: raw[:-5],  # inside the last tensor
        lambda raw: raw + b"\x00",  # trailing byte
        _with_unknown_config_field,
        _with_flipped_block_name,
        _with_flipped_ndim,
        _with_first_value(math.inf),
        _with_first_value(math.nan),
        lambda raw: _with_meta(raw, lambda meta: meta.update(kind="sourcg")),
        lambda raw: _with_meta(raw, lambda meta: meta["vocab"].pop()),  # embed has a row too many
        _with_duplicate_embed,
    ],
    ids=["cut7", "cut40", "cut_tail", "trailing_byte", "unknown_config_field", "block_name_flip",
         "ndim_flip_bit2", "inf_value", "nan_value", "unknown_kind",
         "block_shape", "duplicate_block"],
)
def test_checkpoint_rejects_malformed(f0, corrupt):
    with pytest.raises(InputError):
        Model.load_bytes(corrupt(f0.save_bytes()))


def test_checkpoint_names_a_block_that_appears_twice(f0):
    with pytest.raises(InputError, match="parameter block 'embed' appears twice"):
        Model.load_bytes(_with_duplicate_embed(f0.save_bytes()))


def _flip(raw: bytes, bit: int) -> bytes:
    out = bytearray(raw)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def _block_headers(raw: bytes) -> list[tuple[int, int, str]]:
    """(start, end, name) of every parameter block's header (name length, name,
    ndim and dims), in file order."""
    (mlen,) = struct.unpack("<I", raw[5:9])
    (nblocks,) = struct.unpack("<I", raw[9 + mlen : 13 + mlen])
    at, out = 13 + mlen, []
    for _ in range(nblocks):
        (nlen,) = struct.unpack("<H", raw[at : at + 2])
        ndim = raw[at + 2 + nlen]
        end = at + 2 + nlen + 1 + 4 * ndim
        out.append((at, end, raw[at + 2 : at + 2 + nlen].decode()))
        dims = struct.unpack(f"<{ndim}I", raw[end - 4 * ndim : end])
        at = end + 8 * math.prod(dims)
    return out


def _block_header_bytes(raw: bytes) -> list[int]:
    """Offsets of every parameter block's header bytes."""
    return [i for start, end, _ in _block_headers(raw) for i in range(start, end)]


def _corruptions(raw: bytes):
    # a flip anywhere mostly lands in the float data, so the block headers get their own draws
    any_bit = st.integers(0, 8 * len(raw) - 1)
    header_bit = st.sampled_from(_block_header_bytes(raw)).flatmap(
        lambda at: st.integers(8 * at, 8 * at + 7))
    return st.one_of(
        st.one_of(any_bit, header_bit).map(lambda bit: _flip(raw, bit)),
        st.integers(0, len(raw) - 1).map(lambda n: raw[:n]),
    )


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(TINY_CHECKPOINTS)).flatmap(
    lambda kind: _corruptions(TINY_CHECKPOINTS[kind])))
def test_corrupted_checkpoint_loads_finite_or_raises_input_error(raw):
    try:
        model = Model.load_bytes(raw)
    except InputError:
        return
    for name, tensor in model.params.named_tensors():
        assert np.all(np.isfinite(tensor.data)), name
    # a model that loads tags, or fails with a package error (a huge finite
    # weight can overflow the forward)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            model.predict_tags(["w1", "w2"])
        except LabelTransferError:
            pass


def test_checkpoint_stores_graph_inputs_and_loads_older_layout(task, f0):
    cfg = TrainConfig(d_h=16, d_p=8, epochs=1, learning_rate=0.1, seed=0)
    model, _ = finetune(f0, task.target_train, cfg)
    graph = model.source_graph
    raw = model.save_bytes()
    (mlen,) = struct.unpack("<I", raw[5:9])
    assert set(json.loads(raw[9 : 9 + mlen])["source_graph"]) == {"labels", "raw_nodes", "threshold"}

    def older_layout(meta):
        # earlier checkpoints also stored the derived nodes, edges and flag
        meta["source_graph"].update(
            nodes=[list(map(float, row)) for row in graph.nodes],
            edges=[[i, j, float(w)] for (i, j), w in sorted(graph.edges.items())],
            degenerate=graph.degenerate,
        )

    for blob in (raw, _with_meta(raw, older_layout)):
        loaded = Model.load_bytes(blob).source_graph
        assert loaded.labels == graph.labels and loaded.threshold == graph.threshold
        np.testing.assert_array_equal(loaded.nodes, graph.nodes)
        np.testing.assert_array_equal(loaded.raw_nodes, graph.raw_nodes)
        assert loaded.edges == graph.edges and loaded.degenerate == graph.degenerate


# -- parameter layout ---------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["toy", "file"])
@pytest.mark.parametrize("kind", ["source", "fused"])
def test_parameter_layout_is_one_order(kind, mode):
    fused = kind == "fused"
    params = fu.ModelParams(d_h=5, d_p=3, n_types=3, n_tags=7, encoder_mode=mode)
    fu.init_params(params, np.random.default_rng(0), vocab_size=4, fused=fused)
    shapes = params.block_shapes(4, fused)
    names = [name for name, _ in params.named_tensors()]
    assert names == list(shapes)
    assert {name: t.data.shape for name, t in params.named_tensors()} == shapes
    graph = build_graph(np.eye(3), ["A", "B", "C"], 1.5) if fused else None
    model = Model(kind, params, fu.Vocab(["w1", "w2", "w3"]), ("A", "B", "C"),
                  TrainConfig(d_h=5, d_p=3, encoder_mode=mode), source_graph=graph)
    assert [name for _, _, name in _block_headers(model.save_bytes())] == names
    held = [] if mode == "file" else list(fu.ModelParams.ENCODER)
    if fused:
        held += ["label_reps", "proj_w", "proj_b", "out_w", "out_b", "gcn_w1", "gcn_w2",
                 "cls_w", "cls_b", "aux_w", "aux_b"]
    else:
        held += ["cls_w", "cls_b"]
    assert names == held


def _blocks_sha(model: Model) -> str:
    h = hashlib.sha256()
    for name, t in model.params.named_tensors():
        h.update(name.encode() + repr(t.data.shape).encode() + t.data.tobytes())
    return h.hexdigest()


def test_initial_parameter_blocks_are_pinned():
    # recorded when the layout moved into one table: a reordered table or a
    # changed init draw fails here
    cfg = TrainConfig(d_h=5, d_p=3, epochs=0, seed=7)
    f0 = train_source(parse_conll("a B-X\nb O\nc B-Y\n\nd B-X\n"), cfg)
    fused, _ = finetune(f0, parse_conll("a B-P\ne O\nc B-Q\n\nf B-R\n"), cfg)
    assert _blocks_sha(f0) == "bf29462cd976d83b1ad2b9b4649e118668fa00f625a733ad9a3ea630ecb5c683"
    assert _blocks_sha(fused) == "c46b1356b48bb87510cb0629ccb6b8e0279d23beb510b39c6179c00391dbf3aa"


# -- flat parameter and gradient vectors --------------------------------------------------


def _assert_flat_layout(model: Model):
    """Every block's data and grad view the flat vectors at the offset `block_shapes` gives."""
    params = model.params
    shapes = params.block_shapes(len(model.vocab), model.kind == "fused")
    assert [name for name, _ in params.named_tensors()] == list(shapes)
    offset = 0
    for name, tensor in params.named_tensors():
        size = math.prod(shapes[name])
        for view, flat in ((tensor.data, params.flat_data), (tensor.grad, params.flat_grad)):
            region = flat[offset : offset + size]
            assert view.shape == shapes[name] and view.flags.c_contiguous, name
            assert view.base is flat, name
            assert view.__array_interface__["data"] == region.__array_interface__["data"], name
        offset += size
    assert params.flat_data.shape == params.flat_grad.shape == (offset,)
    assert params.flat_data.dtype == params.flat_grad.dtype == np.float64


@pytest.mark.parametrize("mode", ["toy", "file"])
@pytest.mark.parametrize("kind", ["source", "fused"])
def test_blocks_view_the_flat_vectors_after_init_and_load(kind, mode):
    fused = kind == "fused"
    params = fu.ModelParams(d_h=5, d_p=3, n_types=3, n_tags=7, encoder_mode=mode)
    fu.init_params(params, np.random.default_rng(0), vocab_size=4, fused=fused)
    graph = build_graph(np.eye(3), ["A", "B", "C"], 1.5) if fused else None
    model = Model(kind, params, fu.Vocab(["w1", "w2", "w3"]), ("A", "B", "C"),
                  TrainConfig(d_h=5, d_p=3, encoder_mode=mode), source_graph=graph)
    _assert_flat_layout(model)
    assert not params.flat_grad.any()
    raw = model.save_bytes()
    loaded = Model.load_bytes(raw)
    _assert_flat_layout(loaded)
    assert not loaded.params.flat_grad.any()
    np.testing.assert_array_equal(loaded.params.flat_data, params.flat_data)
    assert loaded.save_bytes() == raw


def test_finetune_model_views_its_own_flat_vectors(task, f0):
    cfg = TrainConfig(d_h=16, d_p=8, epochs=1, learning_rate=0.1, seed=0)
    f0_data, f0_grad = f0.params.flat_data.copy(), f0.params.flat_grad.copy()
    fresh = pipeline._init_finetune_model(f0, task.target_train, cfg)
    _assert_flat_layout(fresh)
    assert not np.shares_memory(fresh.params.flat_data, f0.params.flat_data)
    model, _ = finetune(f0, task.target_train, cfg)
    _assert_flat_layout(model)
    # fine-tuning reads f0's encoder and writes none of f0's vectors
    _assert_flat_layout(f0)
    np.testing.assert_array_equal(f0.params.flat_data, f0_data)
    np.testing.assert_array_equal(f0.params.flat_grad, f0_grad)
    raw = model.save_bytes()
    assert Model.load_bytes(raw).save_bytes() == raw


@pytest.mark.parametrize("rebind", ["data", "grad", "block"])
def test_sgd_step_refuses_a_block_off_the_flat_vectors(rebind):
    model = make_model("fused", np.random.default_rng(0))
    model.params.flat_grad[:] = 1.0
    before = param_arrays(model)
    tensor = model.params.proj_w
    if rebind == "block":
        model.params.proj_w = Tensor(tensor.data.copy(), requires_grad=True)
        model.params.proj_w.grad = tensor.grad.copy()
    else:
        setattr(tensor, rebind, getattr(tensor, rebind).copy())
    with pytest.raises(ShapeError, match="'proj_w'"):
        pipeline._sgd_step(model.params, 0.1, 1.0, "epoch 0, batch 0")
    for name, data in param_arrays(model).items():
        np.testing.assert_array_equal(data, before[name], err_msg=name)


def _per_tensor_sgd_step(params: fu.ModelParams, lr: float, skip=()) -> dict:
    """The block values after the per-tensor step the flat step replaced.

    That step summed the squared gradient block by block and skipped a block
    whose gradient was unset (here, those named in ``skip``).
    """
    grads = {name: t.grad for name, t in params.named_tensors() if name not in skip}
    norm = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))
    scale = pipeline.GRAD_CLIP / norm if norm > pipeline.GRAD_CLIP else 1.0
    return {name: t.data - lr * scale * grads[name] if name in grads else t.data.copy()
            for name, t in params.named_tensors()}


@pytest.mark.parametrize("loss_scale, clips", [(1.0, False), (1e3, True)], ids=["no_clip", "clip"])
def test_flat_sgd_step_matches_the_per_tensor_step(loss_scale, clips):
    model = make_model("fused", np.random.default_rng(0))
    corpus = parse_conll("w1 B-A\nw2 I-A\nw3 O\nw4 B-C\n\nw5 B-B\nw6 O\n")
    batch = pipeline._sentence_targets(model, corpus)
    # the aux head is ablated, so its blocks get no gradient in the batch
    out = pipeline._batch_loss(model, batch, model.config, aux_on=False, gw_on=False)
    (out.total * loss_scale).backward()
    no_grad = ("aux_w", "aux_b")
    for name in no_grad:
        assert not getattr(model.params, name).grad.any()
    norm = float(np.linalg.norm(model.params.flat_grad))
    assert (norm > pipeline.GRAD_CLIP) == clips
    expected = _per_tensor_sgd_step(model.params, 0.05, skip=no_grad)
    pipeline._sgd_step(model.params, 0.05, out.total.item(), "epoch 0, batch 0")
    for name, data in param_arrays(model).items():
        if clips and name not in no_grad:
            np.testing.assert_allclose(data, expected[name], rtol=0, atol=1e-12, err_msg=name)
        else:
            np.testing.assert_array_equal(data, expected[name], err_msg=name)
    assert not model.params.flat_grad.any()
    _assert_flat_layout(model)


# -- aggregation / sweeps -----------------------------------------------------------------------


def test_aggregate_stats():
    agg = aggregate([0.5, 0.7])
    assert agg["mean"] == pytest.approx(0.6)
    assert agg["std"] == pytest.approx(0.1)
    assert aggregate([0.4, 0.4])["std"] == 0.0


def test_sweep_single_value_matches_direct_run(task, f0):
    cfg = TrainConfig(d_h=16, d_p=8, epochs=2, learning_rate=0.1, seed=0)
    csv_text = sweep("lambda2", [cfg.lambda2], f0, task.target_train,
                     task.target_test, cfg)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "value,mean_f1,std_f1"
    model, _ = finetune(f0, task.target_train, cfg)
    _, _, f1 = evaluate(model, task.target_test)
    value, mean_f1, std_f1 = lines[1].split(",")
    assert float(mean_f1) == pytest.approx(f1, abs=1e-6)
    assert float(std_f1) == 0.0


def test_sweep_rejects_unknown_param(task, f0, monkeypatch):
    with pytest.raises(InputError):
        sweep("nonsense", [1.0], f0, task.target_train, task.target_test, SMALL_CONFIG)
    with pytest.raises(InputError):
        sweep("T", [], f0, task.target_train, task.target_test, SMALL_CONFIG)
    with pytest.raises(InputError):
        sweep("T", [1.0], f0, task.target_train, task.target_test, SMALL_CONFIG, seeds=[])
    # a bad value is refused before any value is fine-tuned
    calls = []
    monkeypatch.setattr(pipeline, "finetune", lambda *args: calls.append(args))
    for values in ([2.0, 0.0], [2.0, float("nan")]):
        with pytest.raises(InputError, match="temperature"):
            sweep("T", values, f0, task.target_train, task.target_test, SMALL_CONFIG)
    assert calls == []


def test_delta_sweep_edge_count_monotone(task, f0):
    cfg = TrainConfig(d_h=16, d_p=8, epochs=1, seed=0)
    counts = [
        len(build_source_graph(f0, task.target_train,
                               TrainConfig(d_h=16, d_p=8, edge_threshold=d)).edges)
        for d in (0.5, 1.0, 1.5, 2.5)
    ]
    assert counts == sorted(counts)
