"""End-to-end orchestration: source training, graph freezing, fine-tuning.

The source model is a plain token tagger. Fine-tuning starts from its
encoder, adds the fusion network and fresh heads, and minimizes

    total = cls + lambda1 * aux + lambda2 * gw

per batch, where the graph-matching term compares the frozen source label
graph against a target graph rebuilt from the current batch predictions.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import struct
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from . import fusion as fu
from .autodiff import Tensor
from .data import TaggedCorpus, entity_type, extract_spans, micro_f1
from .errors import InputError, NumericError, check_field_types, check_lower_bounds, from_json
from .gw import gromov_wasserstein_distances, gw_fixed_plan_loss
from .labelgraph import LabelGraph, build_graph, estimate_conditionals, target_graph_from_batch

MAGIC = b"LTCK"
FORMAT_VERSION = 1


# TrainConfig fields that must exceed 0, and the lowest allowed value of others
_POSITIVE = ("temperature", "edge_threshold", "epsilon", "gw_tol", "learning_rate")
_AT_LEAST = {
    "lambda1": 0, "lambda2": 0, "epochs": 0, "seed": 0,
    "batch_size": 1, "d_h": 1, "d_p": 1, "inner_iter": 1, "outer_iter": 1,
}


@dataclass(frozen=True)
class TrainConfig:
    temperature: float = 4.0
    edge_threshold: float = 1.5
    lambda1: float = 0.1
    lambda2: float = 0.01
    epsilon: float = 0.05
    inner_iter: int = 200
    outer_iter: int = 20
    gw_tol: float = 1e-6
    learning_rate: float = 0.05
    epochs: int = 40
    batch_size: int = 8
    d_h: int = 32
    d_p: int = 32
    seed: int = 0
    ablate_aux: bool = False
    ablate_gw: bool = False
    encoder_mode: str = "toy"  # "toy" | "file"
    embedding_file: str | None = None

    def __post_init__(self):
        check_field_types(self, "config")
        check_lower_bounds(self, "config", _AT_LEAST, _POSITIVE)
        if self.encoder_mode not in ("toy", "file"):
            raise InputError("encoder_mode must be 'toy' or 'file'")

    @classmethod
    def from_json(cls, text: str) -> "TrainConfig":
        return from_json(cls, text, "config")

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2)


def tags_for(labels) -> tuple[str, ...]:
    tags = ["O"]
    for label in labels:
        tags.extend((f"B-{label}", f"I-{label}"))
    return tuple(tags)


def _tag_groups(labels, tags) -> list[list[int]]:
    """Column indices of the B-/I- tags of each entity type, in label order."""
    index = {t: i for i, t in enumerate(tags)}
    return [[index[f"B-{l}"], index[f"I-{l}"]] for l in labels]


def _graph_to_meta(graph: LabelGraph) -> dict:
    """The inputs of `build_graph`; nodes, edges and the degenerate flag follow."""
    return {
        "labels": list(graph.labels),
        "raw_nodes": [list(map(float, row)) for row in graph.raw_nodes],
        "threshold": graph.threshold,
    }


def _graph_from_meta(obj: dict) -> LabelGraph:
    # older checkpoints also hold nodes, edges and degenerate; the rebuild ignores them
    return build_graph(obj["raw_nodes"], list(obj["labels"]), obj["threshold"])


def _batch_segments(sentences) -> fu.Segments:
    """Checked row layout of a batch; a single sentence is a batch of one."""
    return fu.segments([len(s) for s in sentences])  # raises on an empty batch or sentence


# Sentences per inference forward (`Model.forward_chunks`). The batched
# forward costs time linear in the chunk, so larger chunks only spread the
# per-forward overhead. Forward-only tagging of the 3,000-sentence perfbench
# `tag` corpus (seed 0, CPU time, median of 15, 2 vCPU) took 854 ms in chunks
# of 1, 165 ms at 8, 114 ms at 16, 84 ms at 32, 71 ms at 64, 68 ms at 128 and
# 75 ms at 256; the block-masked forward this replaced took 229 ms at 8 in
# the same sweep. In wall time on a quieter machine, 64 came first (43 ms,
# against 66 ms at 128 and 64 ms at 256). It is not the model's
# `batch_size`, so a checkpoint trained with a large batch does not set
# inference memory.
EVAL_CHUNK = 64


class Model:
    """A checkpointable tagger: plain source tagger or label-fusion model."""

    def __init__(self, kind, params, vocab, labels, config, source_graph=None):
        self.kind = kind  # "source" | "fused"
        self.params: fu.ModelParams = params
        self.vocab: fu.Vocab = vocab
        self.labels: tuple[str, ...] = tuple(labels)
        self.tags: tuple[str, ...] = tags_for(self.labels)
        self.config: TrainConfig = config
        self.source_graph: LabelGraph | None = source_graph
        self._groups = _tag_groups(self.labels, self.tags)
        self._embeddings: fu.EmbeddingFile | None = None

    # -- forward ---------------------------------------------------------

    def token_ids(self, sentences) -> np.ndarray:
        """The vocabulary ids of the concatenated sentences' tokens."""
        return self.vocab.ids([token for s in sentences for token in s])

    def encode(self, sentences, ids, seg=None) -> Tensor:
        """Token embeddings of the concatenated sentences.

        ``ids`` are their `token_ids`, which a file encoder does not read;
        ``seg`` is their `fusion.Segments`, built here when not given.
        """
        if self.config.encoder_mode == "file":
            if self._embeddings is None:
                if not self.config.embedding_file:
                    raise InputError("encoder_mode='file' requires embedding_file")
                self._embeddings = fu.EmbeddingFile(self.config.embedding_file, self.params.d_h)
            return Tensor(np.concatenate([self._embeddings.lookup(list(s)) for s in sentences]))
        return fu.encode_toy(ids, self.params, seg or _batch_segments(sentences))

    def forward(self, sentences, ids):
        """(tag logits, fusion trace or None) of a batch of sentences, as one graph.

        ``ids`` are the sentences' `token_ids`: training reads them from
        its per-run targets, inference resolves them per chunk. The logits
        hold the sentences' token rows one after another, laid out by the
        batch's one `fusion.Segments` (the trace's ``seg``).
        """
        seg = _batch_segments(sentences)
        h = self.encode(sentences, ids, seg)
        if self.kind == "source":
            return fu.tag_logits(h, self.params), None
        trace = fu.fusion_forward(h, self.source_graph, self.params, seg)
        return fu.tag_logits(trace.h_prime, self.params), trace

    def forward_chunks(self, sentences):
        """Yield (chunk, tag logits) of consecutive chunks of at most `EVAL_CHUNK` sentences.

        Each chunk is one no-grad forward. Tagging, evaluation and the
        source-graph build all run inference through this one loop.
        """
        for start in range(0, len(sentences), EVAL_CHUNK):
            chunk = sentences[start : start + EVAL_CHUNK]
            with ad.no_grad():
                logits = self.forward(chunk, self.token_ids(chunk))[0]
            yield chunk, logits

    def tag_logits_array(self, tokens) -> np.ndarray:
        with ad.no_grad():
            return self.forward([tokens], self.token_ids([tokens]))[0].data

    def predict_tags(self, tokens) -> list[str]:
        return self.tag_sentences([tokens])[0]

    def tag_sentences(self, sentences) -> list[list[str]]:
        """Greedy tags of each sentence, from one forward per chunk (`forward_chunks`).

        A single sentence is a batch of one; tests/test_batching.py asserts
        that its forward equals the per-sentence composition bit for bit.
        """
        tags = []
        for chunk, logits in self.forward_chunks(sentences):
            names = [self.tags[i] for i in logits.data.argmax(axis=1).tolist()]
            offsets = _batch_segments(chunk).offsets.tolist()
            tags.extend(names[lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:]))
        return tags

    def type_logits_tensor(self, tag_logit_tensor: Tensor) -> Tensor:
        """Per-token entity-type logits: log-sum-exp over each type's B/I tags."""
        return ad.logsumexp_cols(tag_logit_tensor, self._groups)

    # -- checkpoint I/O ----------------------------------------------------

    def save_bytes(self) -> bytes:
        meta = {
            "kind": self.kind,
            "labels": list(self.labels),
            "vocab": list(self.vocab.itos[1:]),  # UNK slot is implicit
            "config": dataclasses.asdict(self.config),
            "source_graph": _graph_to_meta(self.source_graph) if self.source_graph else None,
            "dims": {
                "d_h": self.params.d_h,
                "d_p": self.params.d_p,
                "n_types": self.params.n_types,
                "n_tags": self.params.n_tags,
            },
        }
        blob = json.dumps(meta, sort_keys=True).encode("utf-8")
        buf = io.BytesIO()
        buf.write(MAGIC)
        buf.write(struct.pack("<B", FORMAT_VERSION))
        buf.write(struct.pack("<I", len(blob)))
        buf.write(blob)
        blocks = self.params.named_tensors()
        buf.write(struct.pack("<I", len(blocks)))
        for name, tensor in blocks:
            enc = name.encode("utf-8")
            buf.write(struct.pack("<H", len(enc)))
            buf.write(enc)
            buf.write(struct.pack("<B", tensor.data.ndim))
            for dim in tensor.data.shape:
                buf.write(struct.pack("<I", dim))
            buf.write(tensor.data.astype("<f8").tobytes())
        return buf.getvalue()

    def save(self, path: str):
        with open(path, "wb") as fh:
            fh.write(self.save_bytes())

    @classmethod
    def load_bytes(cls, raw: bytes) -> "Model":
        """Parse a checkpoint; any malformed input raises InputError."""
        try:
            return cls._parse_checkpoint(raw)
        except InputError:
            raise
        # ValueError also covers json.JSONDecodeError and UnicodeDecodeError
        except (struct.error, KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed checkpoint: {exc}") from exc

    @classmethod
    def _parse_checkpoint(cls, raw: bytes) -> "Model":
        buf = io.BytesIO(raw)
        if buf.read(4) != MAGIC:
            raise InputError("not a checkpoint file")
        (version,) = struct.unpack("<B", buf.read(1))
        if version != FORMAT_VERSION:
            raise InputError(f"unsupported checkpoint version {version}")
        (mlen,) = struct.unpack("<I", buf.read(4))
        meta = json.loads(buf.read(mlen).decode("utf-8"))
        config = TrainConfig(**meta["config"])
        kind, labels, dims = meta["kind"], tuple(meta["labels"]), meta["dims"]
        if kind not in ("source", "fused"):
            raise InputError(f"unknown model kind {kind!r}")
        if dims["n_types"] != len(labels) or dims["n_tags"] != len(tags_for(labels)):
            raise InputError("checkpoint dims do not match its labels")
        vocab = fu.Vocab(meta["vocab"])
        graph = _graph_from_meta(meta["source_graph"]) if meta["source_graph"] else None
        if kind == "fused" and (graph is None or graph.n != len(labels)):
            raise InputError("a fused checkpoint needs a source graph over its labels")
        params = fu.ModelParams(
            d_h=dims["d_h"], d_p=dims["d_p"], n_types=dims["n_types"],
            n_tags=dims["n_tags"], encoder_mode=config.encoder_mode,
        )
        shapes = params.block_shapes(len(vocab), fused=kind == "fused")
        blocks = {}
        (nblocks,) = struct.unpack("<I", buf.read(4))
        for _ in range(nblocks):
            (nlen,) = struct.unpack("<H", buf.read(2))
            name = buf.read(nlen).decode("utf-8")
            if name not in shapes:
                raise InputError(f"unknown parameter block {name!r}")
            if name in blocks:
                raise InputError(f"parameter block {name!r} appears twice")
            (ndim,) = struct.unpack("<B", buf.read(1))
            shape = tuple(struct.unpack("<I", buf.read(4))[0] for _ in range(ndim))
            if shape != shapes[name]:
                raise InputError(f"parameter block {name!r} has shape {shape}, not {shapes[name]}")
            count = math.prod(shape)
            if 8 * count > len(raw) - buf.tell():
                raise InputError(f"parameter block {name!r} is cut short")
            blocks[name] = np.frombuffer(buf.read(8 * count), dtype="<f8").reshape(shape)
            if not np.all(np.isfinite(blocks[name])):
                raise InputError(f"parameter block {name!r} holds non-finite values")
        if buf.read(1):
            raise InputError("trailing bytes after the last parameter block")
        missing = [name for name in shapes if name not in blocks]
        if missing:
            raise InputError(f"missing parameter blocks {missing}")
        params.set_blocks(blocks)  # copies the read-only buffers into the flat vectors
        return cls(kind, params, vocab, labels, config, source_graph=graph)

    @classmethod
    def load(cls, path: str) -> "Model":
        with open(path, "rb") as fh:
            return cls.load_bytes(fh.read())


# the global gradient norm an SGD step clips to
GRAD_CLIP = 5.0


def _sgd_step(params: fu.ModelParams, lr: float, loss: float, where: str):
    """One SGD step on the flat parameter vector, its gradient's norm clipped to `GRAD_CLIP`.

    The step is one dot product, one in-place update and one fill that
    zeroes every gradient. A non-finite ``loss`` or gradient norm raises
    NumericError naming ``where`` before any parameter changes; a block that
    no longer views the flat vectors raises ShapeError (`ModelParams.flat`).
    """
    data, grad = params.flat()
    norm = math.sqrt(grad.dot(grad))
    if not (math.isfinite(loss) and math.isfinite(norm)):
        raise NumericError(f"{where}: non-finite loss {loss} or gradient norm {norm}")
    scale = GRAD_CLIP / norm if norm > GRAD_CLIP else 1.0
    data -= lr * scale * grad
    grad.fill(0.0)


class _SentenceTargets(NamedTuple):
    """One training sentence with its fixed targets, resolved once per run."""

    tokens: tuple[str, ...]
    token_ids: np.ndarray  # vocabulary id per token
    tag_ids: np.ndarray  # gold tag id per token
    entity_rows: np.ndarray  # positions of the tokens with a gold entity type
    entity_types: tuple[str, ...]  # the gold type of each of those tokens
    present: np.ndarray  # multi-hot entity types of the sentence


def _sentence_targets(model: Model, corpus: TaggedCorpus) -> list[_SentenceTargets]:
    tag_index = {t: i for i, t in enumerate(model.tags)}
    out = []
    for tokens, tags in corpus.sentences:
        rows = [k for k, t in enumerate(tags) if entity_type(t) is not None]
        types = tuple(entity_type(tags[k]) for k in rows)
        tag_ids = np.array([tag_index[t] for t in tags], dtype=np.intp)
        present = np.array([float(l in types) for l in model.labels])
        out.append(_SentenceTargets(tokens, model.token_ids([tokens]), tag_ids,
                                    np.array(rows, dtype=np.intp), types, present))
    return out


def _train(model: Model, corpus: TaggedCorpus, config: TrainConfig, rng: np.random.Generator):
    """Mini-batch SGD on `corpus`; yields one epoch's stats after each epoch.

    Each batch is one forward graph, one loss (`_batch_loss`) and one
    ``backward()``; a non-finite loss or gradient raises NumericError naming
    the epoch and batch, with the parameters as they were. Skipped and
    unconverged GW batches are counted in ``gw_skips`` and ``gw_unconverged``.
    """
    fused = model.kind == "fused"
    aux_on = fused and not config.ablate_aux and config.lambda1 > 0
    gw_on = fused and not config.ablate_gw and config.lambda2 > 0
    targets = _sentence_targets(model, corpus)
    for epoch in range(config.epochs):
        batch_losses = []  # (cls, aux, gw, total) per batch
        gw_skips = gw_unconverged = 0
        order = rng.permutation(len(targets))
        for b, start in enumerate(range(0, len(order), config.batch_size)):
            batch = [targets[si] for si in order[start : start + config.batch_size]]
            out = _batch_loss(model, batch, config, aux_on, gw_on)
            gw_skips += out.gw_skipped
            gw_unconverged += out.gw_unconverged
            total = out.total.item()
            out.total.backward()
            _sgd_step(model.params, config.learning_rate, total, f"epoch {epoch}, batch {b}")
            batch_losses.append((out.cls.item(), out.aux, out.gw, total))
        columns = zip(("cls", "aux", "gw", "total"), zip(*batch_losses))
        stats = {name: float(np.mean(values)) for name, values in columns}
        yield {**stats, "gw_skips": gw_skips, "gw_unconverged": gw_unconverged}


class _BatchLoss(NamedTuple):
    total: Tensor
    cls: Tensor
    aux: float
    gw: float
    gw_skipped: bool
    gw_unconverged: bool


def _batch_loss(model: Model, batch: list[_SentenceTargets], config: TrainConfig,
                aux_on: bool, gw_on: bool) -> _BatchLoss:
    """The objective of one batch, built as one graph.

    The tag loss is the mean cross-entropy over the batch's tokens. With
    ``aux_on`` the total adds lambda1 * aux, the presence loss averaged over
    sentences; with ``gw_on`` it adds lambda2 * gw over the batch's entity
    tokens, unless the batch's target graph is degenerate (``gw_skipped``).
    A GW solve that ends unconverged (at its iteration caps, or halted by
    the monotone guard) still gives the batch its envelope loss, built on
    the last plan the solver accepted, and sets ``gw_unconverged``.
    """
    logits, trace = model.forward([sent.tokens for sent in batch],
                                  np.concatenate([sent.token_ids for sent in batch]))
    cls_loss = fu.classification_loss_from_logits(logits, np.concatenate([s.tag_ids for s in batch]))
    loss = cls_loss
    aux_val = gw_val = 0.0
    gw_skipped = gw_unconverged = False
    if aux_on:
        present = np.stack([sent.present for sent in batch])
        aux_loss = fu.auxiliary_loss(trace.h_prime, present, model.params, trace.seg)
        loss = loss + config.lambda1 * aux_loss
        aux_val = aux_loss.item()
    if gw_on:
        offsets = trace.seg.offsets
        rows = np.concatenate([off + sent.entity_rows for off, sent in zip(offsets, batch)])
        gold_types = [t for sent in batch for t in sent.entity_types]
        type_logits = ad.rows_select(model.type_logits_tensor(logits), rows)
        gw = _batch_gw_term(model.source_graph, type_logits, gold_types, config)
        gw_skipped = gw is None
        if not gw_skipped:
            gw_term, converged = gw
            gw_unconverged = not converged
            loss = loss + config.lambda2 * gw_term
            gw_val = gw_term.item()
    return _BatchLoss(loss, cls_loss, aux_val, gw_val, gw_skipped, gw_unconverged)


def _batch_gw_term(ds_full, type_logits, gold_types, config):
    """(envelope GW loss, solve converged) for one batch, or None (skip) when degenerate."""
    tgb = target_graph_from_batch(type_logits, gold_types, config.temperature)
    if tgb is None:
        return None
    gs_sub = ds_full.subgraph(list(tgb.labels))
    if gs_sub.degenerate:
        return None
    d_s = gs_sub.distance_matrix()
    result = gromov_wasserstein_distances(
        d_s,
        tgb.distances.data,
        epsilon=config.epsilon,
        outer_iter=config.outer_iter,
        inner_iter=config.inner_iter,
        tol=config.gw_tol,
        anneal=False,  # per-step loss: speed over plan sharpness
    )
    return gw_fixed_plan_loss(tgb.distances, d_s, result.plan.matrix), result.converged


def _new_params(labels, vocab_size: int, config: TrainConfig, rng: np.random.Generator,
                fused: bool) -> fu.ModelParams:
    """Freshly drawn parameters (`fusion.init_params`) of a source or fused model."""
    params = fu.ModelParams(
        d_h=config.d_h, d_p=config.d_p, n_types=len(labels),
        n_tags=len(tags_for(labels)), encoder_mode=config.encoder_mode,
    )
    fu.init_params(params, rng, vocab_size, fused)
    return params


def train_source(corpus: TaggedCorpus, config: TrainConfig) -> Model:
    """Train the source tagger (encoder + tag head, token cross-entropy only)."""
    if not corpus.sentences:
        raise InputError("empty corpus")
    labels = corpus.label_set
    vocab = fu.Vocab()
    for _, _, tok, _ in corpus.tokens():
        vocab.add(tok)
    rng = np.random.default_rng(config.seed)  # initialization, then batch order
    params = _new_params(labels, len(vocab), config, rng, fused=False)
    model = Model("source", params, vocab, labels, config)
    for _ in _train(model, corpus, config, rng):
        pass
    return model


def build_source_graph(f0: Model, corpus_t: TaggedCorpus, config: TrainConfig) -> LabelGraph:
    """Frozen source label graph: f0's mean smoothed type distribution per target entity type.

    f0 tags the target corpus in `Model.forward_chunks`, the forward of
    `evaluate`; each entity token's type logits and gold type go to
    `estimate_conditionals`. The nodes follow ``corpus_t.label_set``.
    """
    gold = [entity_type(t) for _, tags in corpus_t.sentences for t in tags]
    rows = [k for k, t in enumerate(gold) if t is not None]
    if not rows:
        raise InputError("target corpus has no entity labels")
    sentences = [tokens for tokens, _ in corpus_t.sentences]
    chunks = f0.forward_chunks(sentences)
    type_logits = np.concatenate([f0.type_logits_tensor(logits).data for _, logits in chunks])
    labels, nodes = estimate_conditionals(type_logits[rows], [gold[k] for k in rows],
                                          config.temperature)
    return build_graph(nodes, labels, config.edge_threshold)


def _init_finetune_model(f0: Model, corpus_t: TaggedCorpus, config: TrainConfig) -> Model:
    source = f0.params
    if config.encoder_mode == "toy" and (source.encoder_mode, source.d_h) != ("toy", config.d_h):
        raise InputError(f"a toy-encoder config with d_h {config.d_h} needs a toy-encoder "
                         f"source model of that d_h, not a {source.encoder_mode} encoder "
                         f"with d_h {source.d_h}")
    labels = corpus_t.label_set
    vocab = fu.Vocab(f0.vocab.itos[1:])
    for _, _, tok, _ in corpus_t.tokens():
        vocab.add(tok)
    params = _new_params(labels, len(vocab), config, np.random.default_rng(config.seed), fused=True)
    if config.encoder_mode == "toy":
        # the encoder transfers from f0: all of it but the embeddings of new tokens
        for name in fu.ModelParams.ENCODER:
            block = getattr(f0.params, name).data
            getattr(params, name).data[: len(block)] = block
    graph = build_source_graph(f0, corpus_t, config)
    return Model("fused", params, vocab, labels, config, source_graph=graph)


def finetune(f0: Model, corpus_t: TaggedCorpus, config: TrainConfig):
    """Fine-tune on target data only; returns (model, per-epoch log).

    The GW term is active unless ablated, weighted to zero, or the batch's
    target graph is degenerate (< 2 distinct entity types in the batch).
    """
    if not corpus_t.label_set:
        raise InputError("target corpus has no entity labels")
    model = _init_finetune_model(f0, corpus_t, config)
    rng = np.random.default_rng(config.seed + 1)  # training order stream
    epochs = _train(model, corpus_t, config, rng)
    return model, [{"epoch": epoch, **stats} for epoch, stats in enumerate(epochs)]


def target_graph_from_corpus(model: Model, corpus: TaggedCorpus, config: TrainConfig):
    """Detached target graph over a whole corpus (for export/inspection).

    The source-graph construction run on the target model: None when the
    corpus has fewer than 2 entity types or the graph is degenerate.
    """
    if len(corpus.label_set) < 2:
        return None
    graph = build_source_graph(model, corpus, config)
    return None if graph.degenerate else graph


def evaluate(model: Model, corpus: TaggedCorpus):
    """Micro P/R/F1 of greedy per-token decoding against gold spans.

    The corpus is tagged in consecutive chunks of at most `EVAL_CHUNK`
    sentences, each one no-grad forward (`Model.tag_sentences`) whose logits
    are split back per sentence by token count.
    """
    unknown = set(corpus.label_set) - set(model.labels)
    if unknown:
        raise InputError(f"corpus labels not in model label set: {sorted(unknown)}")
    sentences = [tokens for tokens, _ in corpus.sentences]
    predicted = TaggedCorpus(tuple(zip(sentences, map(tuple, model.tag_sentences(sentences)))))
    return micro_f1(extract_spans(corpus), extract_spans(predicted))


def aggregate(values) -> dict:
    arr = np.asarray(list(values), dtype=np.float64)
    return {
        "mean": float(arr.mean()),
        "std": float(arr.std(ddof=0)),
        "values": [float(v) for v in arr],
    }


SWEEP_PARAMS = {
    "T": "temperature",
    "delta": "edge_threshold",
    "lambda1": "lambda1",
    "lambda2": "lambda2",
}


def sweep(param: str, values, f0: Model, train_corpus: TaggedCorpus,
          test_corpus: TaggedCorpus, base: TrainConfig, seeds=None) -> str:
    """Run finetune+evaluate per value; CSV rows (value, mean_f1, std_f1)."""
    if param not in SWEEP_PARAMS:
        raise InputError(f"unknown sweep parameter {param!r}; use one of {sorted(SWEEP_PARAMS)}")
    if not values:
        raise InputError("sweep values must be nonempty")
    seeds = list(seeds) if seeds is not None else [base.seed]
    if not seeds:
        raise InputError("sweep seeds must be nonempty")
    lines = ["value,mean_f1,std_f1"]
    for value in values:
        f1s = []
        for seed in seeds:
            config = replace(base, seed=seed, **{SWEEP_PARAMS[param]: value})
            model, _ = finetune(f0, train_corpus, config)
            _, _, f1 = evaluate(model, test_corpus)
            f1s.append(f1)
        agg = aggregate(f1s)
        lines.append(f"{value},{agg['mean']:.6f},{agg['std']:.6f}")
    return "\n".join(lines) + "\n"
