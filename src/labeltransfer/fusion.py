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
``lengths`` gives each sentence's token count. ``lengths`` is the token
counts or their checked `Segments`, built once per forward; their row
offsets are what the encoder's window reads (`autodiff.window_mix`), so the
window never crosses a sentence boundary. Label attention, the GCN and token
fusion run as one op (`autodiff.label_fusion`) on padded (B, n_max, ·)
arrays: each sentence attends only to its own tokens and components through
batched matrix products, a padding token's label score is -inf, and every
sentence shares the one normalized adjacency Â (for one shared graph, the
block-diagonal batching of PyTorch Geometric is a broadcast product with
Â). Cost is linear in B, so inference runs in chunks of
``pipeline.EVAL_CHUNK`` sentences, each one batched forward. The presence
head pools each sentence with a (B × ΣN) averaging matrix. A single
sentence is a batch of one (``lengths=None`` resolves to it), and
tests/test_batching.py asserts that its forward equals the per-sentence
composition bit for bit; `label_attention`, `gcn_propagate` and
`token_fusion` are that composition for one sentence, the reference the
tests hold the fused op to.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from itertools import repeat
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import InputError, ShapeError
from .labelgraph import LabelGraph

UNK = "<unk>"


def _block(rows, cols, scale=None):
    """A parameter block field: its shape in named dims and its init.

    A block whose rows are the literal 1 is a bias and starts at 0; any
    other draws from U(±scale), by default U(±1/√rows).
    """
    return field(default=None, metadata={"shape": (rows, cols), "scale": scale})


@dataclass
class ModelParams:
    """All trainable parameters. Tensors are float64 with requires_grad set.

    The block fields are the one parameter table: their order is the order
    of `named_tensors`, of `init_params`'s draws and of a checkpoint's blocks.
    `set_blocks` lays the blocks out in that order in two contiguous vectors,
    ``flat_data`` and ``flat_grad``: each block's ``data`` and ``grad`` are
    views into them, so backward accumulates into ``flat_grad`` and an SGD
    step (`flat`) works on whole vectors. A block whose ``data`` or ``grad``
    is rebound to another array leaves the layout, and `flat` refuses it.
    """

    d_h: int
    d_p: int
    n_types: int
    n_tags: int
    encoder_mode: str  # "toy" | "file"
    embed: Tensor | None = _block("vocab", "d_h", scale=0.1)
    mix_left: Tensor | None = _block("d_h", "d_h")
    mix_center: Tensor | None = _block("d_h", "d_h")
    mix_right: Tensor | None = _block("d_h", "d_h")
    mix_bias: Tensor | None = _block(1, "d_h")
    label_reps: Tensor | None = _block("n_types", "d_p", scale=0.1)
    proj_w: Tensor | None = _block("d_h", "d_p")
    proj_b: Tensor | None = _block(1, "d_p")
    out_w: Tensor | None = _block("d_p", "d_h")
    out_b: Tensor | None = _block(1, "d_h")
    gcn_w1: Tensor | None = _block("d_p", "d_p")
    gcn_w2: Tensor | None = _block("d_p", "d_p")
    cls_w: Tensor | None = _block("d_h", "n_tags")
    cls_b: Tensor | None = _block(1, "n_tags")
    aux_w: Tensor | None = _block("d_h", "n_types")
    aux_b: Tensor | None = _block(1, "n_types")
    flat_data: np.ndarray | None = field(default=None, repr=False, compare=False)
    flat_grad: np.ndarray | None = field(default=None, repr=False, compare=False)

    # the toy encoder, which fine-tuning copies from the source model; a
    # source model holds these (in toy mode) and the tag head cls_*
    ENCODER = ("embed", "mix_left", "mix_center", "mix_right", "mix_bias")

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        tensors = ((name, getattr(self, name)) for name in _BLOCKS)
        return [(name, t) for name, t in tensors if t is not None]

    def trainable(self) -> list[Tensor]:
        return [t for _, t in self.named_tensors() if t.requires_grad]

    def block_shapes(self, vocab_size: int, fused: bool) -> dict[str, tuple[int, int]]:
        """The shape of every block a source or fused model holds, in table order."""
        dims = {1: 1, "vocab": vocab_size, "d_h": self.d_h, "d_p": self.d_p,
                "n_types": self.n_types, "n_tags": self.n_tags}
        shapes = {}
        for name, block in _BLOCKS.items():
            if name in self.ENCODER:
                held = self.encoder_mode == "toy"
            else:
                held = fused or name.startswith("cls_")
            if held:
                shapes[name] = tuple(dims[d] for d in block["shape"])
        return shapes

    def set_blocks(self, blocks: dict[str, np.ndarray]):
        """Hold ``blocks`` (name -> array) as trainable tensors viewing two new flat vectors.

        The vectors hold the blocks in table order whatever the order of
        ``blocks``; every gradient starts at zero.
        """
        names = [name for name in _BLOCKS if name in blocks]
        self.flat_data = np.concatenate([np.ravel(blocks[name]) for name in names], dtype=np.float64)
        self.flat_grad = np.zeros_like(self.flat_data)
        offsets = np.cumsum([0] + [blocks[name].size for name in names]).tolist()
        for name, lo, hi in zip(names, offsets[:-1], offsets[1:]):
            shape = blocks[name].shape
            tensor = Tensor(self.flat_data[lo:hi].reshape(shape), requires_grad=True)
            tensor.grad = self.flat_grad[lo:hi].reshape(shape)
            setattr(self, name, tensor)

    def flat(self) -> tuple[np.ndarray, np.ndarray]:
        """(``flat_data``, ``flat_grad``); ShapeError names a block that no longer views them."""
        data, grad = self.flat_data, self.flat_grad
        for name, tensor in zip(_BLOCKS, _block_tensors(self)):
            if tensor is not None and (data is None or tensor.data.base is not data
                                       or tensor.grad is None or tensor.grad.base is not grad):
                raise ShapeError(f"parameter block {name!r} no longer views the flat "
                                 "parameter and gradient vectors")
        return data, grad


# block name -> its field metadata, in field order
_BLOCKS = {f.name: f.metadata for f in dataclasses.fields(ModelParams) if "shape" in f.metadata}
# a ModelParams' block tensors (None for a block it does not hold) in one call, in table order
_block_tensors = attrgetter(*_BLOCKS)


def init_params(params: ModelParams, rng: np.random.Generator, vocab_size: int, fused: bool):
    """Draw every block of a new source or fused model, in table order (`ModelParams.set_blocks`)."""
    blocks = {}
    for name, shape in params.block_shapes(vocab_size, fused).items():
        block = _BLOCKS[name]
        if block["shape"][0] == 1:
            blocks[name] = np.zeros(shape)
        else:
            scale = block["scale"] or 1.0 / np.sqrt(shape[0])
            blocks[name] = rng.uniform(-scale, scale, size=shape)
    params.set_blocks(blocks)


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

    def ids(self, tokens) -> np.ndarray:
        """The id of each token of the iterable ``tokens``, 0 (UNK) for one not in the vocabulary."""
        return np.fromiter(map(self.stoi.get, tokens, repeat(0)), np.intp)

    def __len__(self):
        return len(self.itos)


class Segments(NamedTuple):
    """Sentence layout of a batch's concatenated token rows, checked once per forward."""

    lengths: np.ndarray  # token count per sentence
    offsets: np.ndarray  # row offsets [0, n_1, n_1 + n_2, ..., ΣN]


def segments(lengths) -> Segments:
    """Check a batch's token counts (each >= 1) and lay out its rows."""
    lengths = np.asarray(lengths, dtype=np.intp)
    if lengths.size == 0 or lengths.min() < 1:
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


def encode_toy(token_ids: np.ndarray, params: ModelParams, lengths=None) -> Tensor:
    """Embedding lookup plus one window-3 mixing layer with residual.

    ``token_ids`` holds a batch of concatenated sentences, and the window
    does not reach across a sentence boundary.
    """
    offsets = _segments(lengths, len(token_ids)).offsets
    e = ad.rows_select(params.embed, token_ids)
    return ad.window_mix(e, params.mix_left, params.mix_center, params.mix_right, params.mix_bias,
                         offsets)


class EmbeddingFile:
    """Frozen per-sentence embeddings loaded from JSON Lines.

    Each line is {"tokens": [...], "vectors": [[...], ...]}: one finite
    vector of dimension ``dim`` (the model's d_h) per token. A malformed
    line is an InputError naming it. Sentences are keyed by their token tuple:
    a sentence may repeat with the same vectors, and a repeat with other
    vectors is an InputError naming both lines.
    """

    def __init__(self, path: str, dim: int):
        self.table: dict[tuple[str, ...], np.ndarray] = {}
        self.dim = dim
        first_line: dict[tuple[str, ...], int] = {}
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                where = f"{path} line {lineno}"
                try:
                    obj = json.loads(line)
                    tokens, vecs = obj["tokens"], np.asarray(obj["vectors"], dtype=np.float64)
                except (ValueError, KeyError, TypeError) as exc:  # JSONDecodeError is a ValueError
                    raise InputError(f'{where}: expected {{"tokens": [...], "vectors": [[...], ...]}} '
                                     f"({type(exc).__name__}: {exc})") from None
                if not (isinstance(tokens, list) and all(isinstance(t, str) for t in tokens)):
                    raise InputError(f"{where}: tokens must be a list of strings")
                if vecs.ndim != 2 or vecs.shape[0] != len(tokens):
                    raise InputError(f"{where}: one vector per token required")
                if vecs.shape[1] != dim:
                    raise InputError(f"{where}: embedding dimension {vecs.shape[1]} is not d_h {dim}")
                if not np.isfinite(vecs).all():
                    raise InputError(f"{where}: non-finite vector")
                key = tuple(tokens)
                if key in self.table and not np.array_equal(self.table[key], vecs):
                    raise InputError(f"{where}: sentence {key!r} has other vectors at line "
                                     f"{first_line[key]}")
                first_line.setdefault(key, lineno)
                self.table[key] = vecs

    def lookup(self, tokens: list[str]) -> np.ndarray:
        key = tuple(tokens)
        if key not in self.table:
            raise InputError(f"no stored embedding for sentence {key!r}")
        return self.table[key]


class FusionTrace(NamedTuple):
    h_prime: Tensor  # ΣN x d_h fused token embeddings
    seg: Segments    # the batch's sentence layout


def _adjacency(graph: LabelGraph, params: ModelParams) -> np.ndarray:
    """The graph's normalized adjacency Â, checked against the label components."""
    if graph.n != params.n_types:
        raise InputError("graph labels do not align with label components")
    return graph.adjacency()


def label_attention(h: Tensor, params: ModelParams):
    """Label-guided attention over one sentence: per entity type, a softmax over tokens."""
    q = ad.matmul(h, params.proj_w) + params.proj_b
    alpha = ad.softmax_rows(ad.matmul(params.label_reps, ad.transpose(q)))  # n_types x n
    u = ad.matmul(alpha, q)
    return q, alpha, u


def gcn_propagate(u: Tensor, graph: LabelGraph, params: ModelParams) -> Tensor:
    """Two GCN layers over the (self-looped, normalized) graph adjacency."""
    a_hat = Tensor(_adjacency(graph, params))
    hidden = ad.relu(ad.matmul(ad.matmul(a_hat, u), params.gcn_w1))
    return ad.matmul(ad.matmul(a_hat, hidden), params.gcn_w2)


def token_fusion(h: Tensor, q: Tensor, u_prime: Tensor, params: ModelParams):
    """Token-guided fusion over one sentence: residual add of attention-weighted components."""
    beta = ad.softmax_rows(ad.matmul(q, ad.transpose(u_prime)))  # n x n_types
    mix = ad.matmul(beta, u_prime)
    h_prime = h + ad.matmul(mix, params.out_w) + params.out_b
    return beta, h_prime


def fusion_forward(h: Tensor, graph: LabelGraph, params: ModelParams, lengths=None) -> FusionTrace:
    """Label attention, GCN and token fusion of a batch, as one op (`autodiff.label_fusion`)."""
    seg = _segments(lengths, h.shape[0])
    p = params
    h_prime = ad.label_fusion(h, p.proj_w, p.proj_b, p.label_reps, p.gcn_w1, p.gcn_w2,
                              p.out_w, p.out_b, _adjacency(graph, params), seg.lengths)
    return FusionTrace(h_prime, seg)


def tag_logits(h_prime: Tensor, params: ModelParams) -> Tensor:
    return ad.matmul(h_prime, params.cls_w) + params.cls_b


def classification_loss_from_logits(logits: Tensor, gold_tag_ids) -> Tensor:
    """Mean token-level cross-entropy of precomputed tag logits.

    Over a batch's concatenated sentences this is the token-weighted mean of
    the per-sentence losses. An id outside the tag set is an InputError
    (`autodiff.cross_entropy_rows`).
    """
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
