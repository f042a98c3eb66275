"""Label-semantics fusion network and its losses.

Token embeddings come from either a trainable toy encoder (embedding table
plus one window-3 mixing layer with residual) or a file of frozen per-token
vectors. Label-guided attention extracts one component per entity type,
a 2-layer GCN propagates the components over the source label graph, and
token-guided attention fuses them back into the token stream. Heads: a
per-token tag classifier (cross-entropy) and a sentence-level multi-label
entity-presence head (binary cross-entropy).

Batch layout. A training batch of B sentences runs as one graph: the
sentences' token rows are concatenated into one (ΣN × d) matrix, and
``lengths`` gives each sentence's token count. The encoder's window never
crosses a sentence boundary; the label representations are tiled once per
sentence (B·n_types components); both attention score matrices get a
constant additive block mask, so each sentence attends only to its own
tokens and components; the GCN runs on the block-diagonal ``I_B ⊗ Â``
(the batching of PyTorch Geometric); and the presence head pools each
sentence with a (B × ΣN) averaging matrix. The masks are dense, (B·n_types ×
ΣN), so their cost grows as B²: inference therefore runs in small chunks of
sentences (``pipeline.EVAL_CHUNK``), each one batched forward. ``lengths`` is
the token counts or their checked `Segments`, built once per forward; the
mask is built once in `fusion_forward` and `token_fusion` reads its
transpose. A single sentence is a batch of one (``lengths=None`` or
``mask=None`` resolve to it), and tests/test_batching.py asserts that its
forward equals the per-sentence composition bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import InputError, ShapeError
from .labelgraph import LabelGraph

UNK = "<unk>"


@dataclass
class ModelParams:
    """All trainable parameters. Tensors are float64 with requires_grad set."""

    d_h: int
    d_p: int
    n_types: int
    n_tags: int
    encoder_mode: str  # "toy" | "file"
    embed: Tensor | None = None          # vocab x d_h (toy mode)
    mix_left: Tensor | None = None       # d_h x d_h
    mix_center: Tensor | None = None
    mix_right: Tensor | None = None
    mix_bias: Tensor | None = None       # 1 x d_h
    label_reps: Tensor | None = None     # n_types x d_p
    proj_w: Tensor | None = None         # d_h x d_p
    proj_b: Tensor | None = None         # 1 x d_p
    out_w: Tensor | None = None          # d_p x d_h
    out_b: Tensor | None = None          # 1 x d_h
    gcn_w1: Tensor | None = None         # d_p x d_p
    gcn_w2: Tensor | None = None
    cls_w: Tensor | None = None          # d_h x n_tags
    cls_b: Tensor | None = None          # 1 x n_tags
    aux_w: Tensor | None = None          # d_h x n_types
    aux_b: Tensor | None = None          # 1 x n_types

    _ENCODER = ("embed", "mix_left", "mix_center", "mix_right", "mix_bias")
    _FUSION = (
        "label_reps", "proj_w", "proj_b", "out_w", "out_b",
        "gcn_w1", "gcn_w2", "cls_w", "cls_b", "aux_w", "aux_b",
    )

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        out = []
        for name in self._ENCODER + self._FUSION:
            t = getattr(self, name)
            if t is not None:
                out.append((name, t))
        return out

    def trainable(self) -> list[Tensor]:
        return [t for _, t in self.named_tensors() if t.requires_grad]

    def block_shapes(self, vocab_size: int, fused: bool) -> dict[str, tuple[int, int]]:
        """The shape of every parameter block a source or fused model holds."""
        d_h, d_p, n_types, n_tags = self.d_h, self.d_p, self.n_types, self.n_tags
        shapes = {"cls_w": (d_h, n_tags), "cls_b": (1, n_tags)}
        if self.encoder_mode == "toy":
            shapes.update(embed=(vocab_size, d_h), mix_left=(d_h, d_h), mix_center=(d_h, d_h),
                          mix_right=(d_h, d_h), mix_bias=(1, d_h))
        if fused:
            shapes.update(label_reps=(n_types, d_p), proj_w=(d_h, d_p), proj_b=(1, d_p),
                          out_w=(d_p, d_h), out_b=(1, d_h), gcn_w1=(d_p, d_p), gcn_w2=(d_p, d_p),
                          aux_w=(d_h, n_types), aux_b=(1, n_types))
        return shapes


def _uniform(rng: np.random.Generator, shape, scale: float, trainable=True) -> Tensor:
    return Tensor(rng.uniform(-scale, scale, size=shape), requires_grad=trainable)


def init_encoder_params(params: ModelParams, rng: np.random.Generator, vocab_size: int):
    d_h = params.d_h
    params.embed = _uniform(rng, (vocab_size, d_h), 0.1)
    params.mix_left = _uniform(rng, (d_h, d_h), 1.0 / np.sqrt(d_h))
    params.mix_center = _uniform(rng, (d_h, d_h), 1.0 / np.sqrt(d_h))
    params.mix_right = _uniform(rng, (d_h, d_h), 1.0 / np.sqrt(d_h))
    params.mix_bias = Tensor(np.zeros((1, d_h)), requires_grad=True)


def init_fusion_params(params: ModelParams, rng: np.random.Generator):
    d_h, d_p = params.d_h, params.d_p
    params.label_reps = _uniform(rng, (params.n_types, d_p), 0.1)
    params.proj_w = _uniform(rng, (d_h, d_p), 1.0 / np.sqrt(d_h))
    params.proj_b = Tensor(np.zeros((1, d_p)), requires_grad=True)
    params.out_w = _uniform(rng, (d_p, d_h), 1.0 / np.sqrt(d_p))
    params.out_b = Tensor(np.zeros((1, d_h)), requires_grad=True)
    params.gcn_w1 = _uniform(rng, (d_p, d_p), 1.0 / np.sqrt(d_p))
    params.gcn_w2 = _uniform(rng, (d_p, d_p), 1.0 / np.sqrt(d_p))
    params.cls_w = _uniform(rng, (d_h, params.n_tags), 1.0 / np.sqrt(d_h))
    params.cls_b = Tensor(np.zeros((1, params.n_tags)), requires_grad=True)
    params.aux_w = _uniform(rng, (d_h, params.n_types), 1.0 / np.sqrt(d_h))
    params.aux_b = Tensor(np.zeros((1, params.n_types)), requires_grad=True)


class Vocab:
    """Token-to-id mapping with a reserved UNK slot at index 0."""

    def __init__(self, tokens=()):
        self.itos: list[str] = [UNK]
        self.stoi: dict[str, int] = {UNK: 0}
        for t in tokens:
            self.add(t)

    def add(self, token: str) -> int:
        if token not in self.stoi:
            self.stoi[token] = len(self.itos)
            self.itos.append(token)
        return self.stoi[token]

    def ids(self, tokens: list[str]) -> np.ndarray:
        return np.array([self.stoi.get(t, 0) for t in tokens], dtype=np.intp)

    def __len__(self):
        return len(self.itos)


class Segments(NamedTuple):
    """Sentence layout of a batch's concatenated token rows, checked once per forward."""

    lengths: np.ndarray  # token count per sentence
    offsets: np.ndarray  # row offsets [0, n_1, n_1 + n_2, ..., ΣN]


def segments(lengths) -> Segments:
    """Check a batch's token counts (each >= 1) and lay out its rows."""
    lengths = np.asarray(lengths, dtype=np.intp)
    if lengths.size == 0 or np.any(lengths < 1):
        raise InputError("empty sentence")
    return Segments(lengths, np.concatenate(([0], np.cumsum(lengths))))


def _segments(lengths, n_rows: int) -> Segments:
    """``lengths`` (token counts, checked `Segments`, or None: one sentence) over ``n_rows`` rows."""
    if lengths is None:
        lengths = [n_rows]
    seg = lengths if isinstance(lengths, Segments) else segments(lengths)
    if seg.offsets[-1] != n_rows:
        raise ShapeError(f"sentence lengths sum to {seg.offsets[-1]}, not {n_rows} rows")
    return seg


# off-block attention score: finite, since softmax_rows rejects non-finite
# input, and low enough that its exp underflows to exactly 0
_OFF_BLOCK = -1e30


def _block_mask(seg: Segments, n_types: int) -> np.ndarray:
    """Additive (B·n_types × ΣN) score mask: 0 where component and token share a sentence."""
    sentences = np.arange(len(seg.lengths))
    token_sentence = np.repeat(sentences, seg.lengths)
    component_sentence = np.repeat(sentences, n_types)
    return np.where(component_sentence[:, None] == token_sentence, 0.0, _OFF_BLOCK)


def encode_toy(token_ids: np.ndarray, params: ModelParams, lengths=None) -> Tensor:
    """Embedding lookup plus one window-3 mixing layer with residual.

    ``token_ids`` holds a batch of concatenated sentences, and the window
    does not reach across a sentence boundary.
    """
    offsets = _segments(lengths, len(token_ids)).offsets
    keep_prev = np.ones(len(token_ids), dtype=bool)
    keep_next = keep_prev.copy()
    keep_prev[offsets[:-1]] = False  # a sentence's first token has no left neighbour
    keep_next[offsets[1:] - 1] = False  # nor its last a right one
    e = ad.rows_select(params.embed, token_ids)
    return ad.window_mix(e, params.mix_left, params.mix_center, params.mix_right, params.mix_bias,
                         keep_prev, keep_next)


class EmbeddingFile:
    """Frozen per-sentence embeddings loaded from JSON Lines.

    Each line is {"tokens": [...], "vectors": [[...], ...]}; all vectors must
    share one dimension. Sentences are keyed by their token tuple.
    """

    def __init__(self, path: str):
        self.table: dict[tuple[str, ...], np.ndarray] = {}
        self.dim: int | None = None
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                obj = json.loads(line)
                vecs = np.asarray(obj["vectors"], dtype=np.float64)
                if vecs.ndim != 2 or vecs.shape[0] != len(obj["tokens"]):
                    raise InputError(f"line {lineno}: one vector per token required")
                if self.dim is None:
                    self.dim = vecs.shape[1]
                elif vecs.shape[1] != self.dim:
                    raise InputError(f"line {lineno}: inconsistent embedding dim")
                self.table[tuple(obj["tokens"])] = vecs

    def lookup(self, tokens: list[str]) -> np.ndarray:
        key = tuple(tokens)
        if key not in self.table:
            raise InputError(f"no stored embedding for sentence {key!r}")
        return self.table[key]


class FusionTrace(NamedTuple):
    # n_s tokens and n_c = n_types components per sentence, summed over the batch
    q: Tensor        # n_s x d_p
    alpha: Tensor    # n_c x n_s
    u: Tensor        # n_c x d_p
    u_prime: Tensor  # n_c x d_p
    beta: Tensor     # n_s x n_c
    h_prime: Tensor  # n_s x d_h
    seg: Segments    # the batch's sentence layout


def label_attention(h: Tensor, params: ModelParams, mask=None):
    """Label-guided attention: per entity type, a softmax over tokens.

    ``mask`` is the batch's additive block mask (`_block_mask`); the label
    representations are tiled once per sentence.
    """
    mask = _block_mask(_segments(None, h.shape[0]), params.n_types) if mask is None else mask
    q = ad.matmul(h, params.proj_w) + params.proj_b
    n_sentences = mask.shape[0] // params.n_types
    label_reps = ad.rows_select(params.label_reps, np.tile(np.arange(params.n_types), n_sentences))
    scores = ad.matmul(label_reps, ad.transpose(q)) + Tensor(mask)  # n_c x n_s
    alpha = ad.softmax_rows(scores)
    u = ad.matmul(alpha, q)
    return q, alpha, u


def block_diagonal(a: np.ndarray, copies: int) -> np.ndarray:
    """``np.kron(np.eye(copies), a)`` for a square ``a``: one copy of ``a`` per diagonal block."""
    n = a.shape[0]
    blocks = np.zeros((copies, n, copies, n))
    diagonal = np.arange(copies)
    blocks[diagonal, :, diagonal, :] = a
    return blocks.reshape(copies * n, copies * n)


def gcn_propagate(u: Tensor, graph: LabelGraph, params: ModelParams, n_sentences: int = 1) -> Tensor:
    """Two GCN layers over the (self-looped, normalized) graph adjacency.

    ``u`` holds ``n_sentences`` blocks of components, one block per sentence.
    """
    if graph.n != params.n_types:
        raise InputError("graph labels do not align with label components")
    a_hat = Tensor(block_diagonal(graph.adjacency(), n_sentences))
    hidden = ad.relu(ad.matmul(ad.matmul(a_hat, u), params.gcn_w1))
    return ad.matmul(ad.matmul(a_hat, hidden), params.gcn_w2)


def token_fusion(h: Tensor, q: Tensor, u_prime: Tensor, params: ModelParams, mask=None):
    """Token-guided fusion: residual add of attention-weighted components.

    ``mask`` is the batch's block mask of `label_attention`; the token scores
    take its transpose.
    """
    mask = _block_mask(_segments(None, h.shape[0]), params.n_types) if mask is None else mask
    scores = ad.matmul(q, ad.transpose(u_prime)) + Tensor(mask.T)  # n_s x n_c
    beta = ad.softmax_rows(scores)
    mix = ad.matmul(beta, u_prime)
    h_prime = h + ad.matmul(mix, params.out_w) + params.out_b
    return beta, h_prime


def fusion_forward(h: Tensor, graph: LabelGraph, params: ModelParams, lengths=None) -> FusionTrace:
    """Label attention, GCN and token fusion; the batch mask is built once."""
    seg = _segments(lengths, h.shape[0])
    mask = _block_mask(seg, params.n_types)
    q, alpha, u = label_attention(h, params, mask)
    u_prime = gcn_propagate(u, graph, params, len(seg.lengths))
    beta, h_prime = token_fusion(h, q, u_prime, params, mask)
    return FusionTrace(q, alpha, u, u_prime, beta, h_prime, seg)


def tag_logits(h_prime: Tensor, params: ModelParams) -> Tensor:
    return ad.matmul(h_prime, params.cls_w) + params.cls_b


def classification_loss_from_logits(logits: Tensor, gold_tag_ids) -> Tensor:
    """Mean token-level cross-entropy of precomputed tag logits.

    Over a batch's concatenated sentences this is the token-weighted mean of
    the per-sentence losses.
    """
    gold_tag_ids = np.asarray(gold_tag_ids, dtype=np.intp)
    if np.any(gold_tag_ids < 0) or np.any(gold_tag_ids >= logits.data.shape[1]):
        raise InputError("gold tag id outside tag set")
    return ad.cross_entropy_rows(logits, gold_tag_ids)


def classification_loss(h_prime: Tensor, gold_tag_ids, params: ModelParams) -> Tensor:
    """Mean token-level cross-entropy of the tag head."""
    return classification_loss_from_logits(tag_logits(h_prime, params), gold_tag_ids)


def auxiliary_loss(h_prime: Tensor, present: np.ndarray, params: ModelParams, lengths=None) -> Tensor:
    """Sentence-level multi-label BCE on mean-pooled fused embeddings.

    ``present`` holds the multi-hot vector of entity types of each sentence
    of the batch; the loss is the mean over the sentences.
    """
    lengths = _segments(lengths, h_prime.shape[0]).lengths
    averaging = np.repeat(np.diag(1.0 / lengths), lengths, axis=1)  # B x n_s
    pooled = ad.matmul(Tensor(averaging), h_prime)
    present = np.asarray(present, dtype=np.float64).reshape(pooled.shape[0], -1)
    z = ad.matmul(pooled, params.aux_w) + params.aux_b
    # BCE with logits: softplus(z) - z*y, averaged over types
    loss = ad.softplus(z) - z * Tensor(present)
    return loss.sum() / float(present.size)
