"""Minimal reverse-mode autodiff over dense float64 numpy arrays.

Every operation records a backward closure on the enclosing graph; calling
``backward()`` on a scalar output accumulates gradients into every reachable
tensor with ``requires_grad=True``. Each recorded node is numbered when it is
made, after its parents, so ``backward()`` runs the reachable closures in
reverse creation order, which is a topological order of the tape. A node's
first incoming gradient is stored as a copy (a closure may hand one array to
two parents) and later ones are added to it in place; a gradient whose
shape differs from the node's data raises ShapeError. ``backward()`` frees
the tape as it goes: once a non-leaf node's closure has run, the node drops
its ``grad``, its parents and its closure, so a graph can be backpropagated
once. Leaves (the tensors built directly with ``requires_grad=True``, such as
parameters) keep their accumulated ``.grad``. A leaf whose ``.grad`` is
already an array (a model parameter's is a view into its model's flat
gradient vector, `fusion.ModelParams`) gets every gradient added into it in
place, the first one too, so the view is never rebound. Inside
``with no_grad():`` operations record nothing, for inference. The op set is
deliberately small: just what the fusion network, the losses, and the
graph-matching term need.
Three ops fuse a chain of smaller ones into one node with a hand-written
backward: ``cross_entropy_rows`` (the mean of ``-pick(log_softmax_rows(a),
ids)``), ``window_mix`` (the toy encoder's window-3 mixing layer with
residual) and ``label_fusion`` (label attention, GCN and token fusion over
a batch of sentences); each computes its forward with the same array
operations as the chain it replaces, so their values agree bit for bit (for
``label_fusion``, on a batch of one); the chains live in tests/reference_ops.py.
A training batch (about 90 rows of 32) costs mostly per numpy call, so the
ops move rows by one gather or assignment on one index vector (``window_mix``
reads its shifted copies from its rows plus one zero row, at indices its
sentences' row offsets give) and add in place where the order allows; each
adds in the unfused order, bit for bit.
Under ``no_grad``, ``window_mix`` and ``label_fusion`` write their internal
temporaries through numpy's ``out=`` into a pool of three flat float64
buffers (``_scratch``), kept across calls and grown on demand, so inference
over chunk after chunk allocates only the ops' outputs and never returns
those pages to the OS to fault them in again. The two ops share the slots:
no op's temporaries outlive its call and the ops do not nest. While a tape
is recorded they allocate as before, since a backward closure keeps its
arrays. ``clear_scratch()`` frees the pool; `pipeline.Model.forward_chunks`
calls it when its loop ends. The package is single-threaded: ``no_grad``'s
flag and the pool are module globals, so two threads must not run ops at
once.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .errors import InputError, NumericError, ShapeError


# False inside no_grad(): Tensor._make then links no parents or backward closure
_grad_enabled = True

# numbers recorded nodes in creation order; backward() runs them in reverse
_creation = itertools.count(1)
_creation_order = attrgetter("_order")

# slot -> flat float64 buffer that ops reuse for their temporaries under no_grad (`_scratch`)
_pool: dict[int, np.ndarray] = {}


@contextlib.contextmanager
def no_grad():
    """Build no tape in the block: op results are plain constants."""
    global _grad_enabled
    saved = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = saved


def _scratch(slot: int, shape: tuple) -> np.ndarray | None:
    """A ``shape`` view of pooled buffer ``slot`` under no_grad, else None.

    An op passes it as ``out=``: while a tape is recorded numpy allocates as
    usual (a backward closure keeps its arrays), and under no_grad the
    buffer, kept across calls, grows on demand. Ops share the slots, so a
    view lives only within its op's call and is never an op's output.
    """
    if _grad_enabled:
        return None
    size = math.prod(shape)
    buffer = _pool.get(slot)
    if buffer is None or buffer.size < size:
        buffer = _pool[slot] = np.empty(size)
    return buffer[:size].reshape(shape)


def clear_scratch():
    """Free every pooled buffer (`_scratch`)."""
    _pool.clear()


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape` (reverses numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A float64 array plus gradient bookkeeping."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "_order")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._backward = None
        self._parents = ()
        self._order = 0  # set by _make on a recorded node

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- graph construction helpers ------------------------------------

    @staticmethod
    def _make(data, parents, backward):
        out = Tensor(data)
        if _grad_enabled:
            for p in parents:
                if p.requires_grad:
                    out.requires_grad = True
                    out._parents = tuple(parents)
                    out._backward = backward
                    out._order = next(_creation)
                    break
        return out

    def _accum(self, grad: np.ndarray):
        if grad.shape != self.data.shape:
            raise ShapeError(f"gradient of shape {grad.shape} for a tensor of shape {self.data.shape}")
        if self.grad is None:
            self.grad = grad.copy()  # owned: a closure may pass one array to two parents
        else:
            self.grad += grad

    def backward(self):
        if self.data.ndim != 0 and self.data.size != 1:
            raise ShapeError("backward() requires a scalar output")
        nodes: list[Tensor] = []  # the recorded nodes reachable from self
        seen: set[Tensor] = set()
        stack = [self]
        while stack:
            node = stack.pop()
            if node._backward is None or node in seen:
                continue
            seen.add(node)
            nodes.append(node)
            stack.extend(node._parents)
        # a node is made after its parents, so every node's consumers run first
        nodes.sort(key=_creation_order, reverse=True)
        self._accum(np.ones(self.data.shape))
        for node in nodes:
            node._backward(node.grad)
            # free the tape: only leaf grads are read after backward()
            node.grad = None
            node._parents = ()
            node._backward = None

    # -- elementwise arithmetic (numpy broadcasting) --------------------

    def _coerce(self, other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other):
        other = self._coerce(other)
        a, b = self, other

        def backward(g):
            if a.requires_grad:
                a._accum(_unbroadcast(g, a.shape))
            if b.requires_grad:
                b._accum(_unbroadcast(g, b.shape))

        return Tensor._make(a.data + b.data, (a, b), backward)

    __radd__ = __add__

    def __neg__(self):
        a = self

        def backward(g):
            if a.requires_grad:
                a._accum(-g)

        return Tensor._make(-a.data, (a,), backward)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        a, b = self, other

        def backward(g):
            if a.requires_grad:
                a._accum(_unbroadcast(g * b.data, a.shape))
            if b.requires_grad:
                b._accum(_unbroadcast(g * a.data, b.shape))

        return Tensor._make(a.data * b.data, (a, b), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        a, b = self, other

        def backward(g):
            if a.requires_grad:
                a._accum(_unbroadcast(g / b.data, a.shape))
            if b.requires_grad:
                b._accum(_unbroadcast(-g * a.data / (b.data * b.data), b.shape))

        return Tensor._make(a.data / b.data, (a, b), backward)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    # -- reductions ------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self

        def backward(g):
            if not a.requires_grad:
                return
            if axis is None:
                a._accum(np.broadcast_to(g, a.shape).copy())
            else:
                ge = g if keepdims else np.expand_dims(g, axis)
                a._accum(np.broadcast_to(ge, a.shape).copy())

        return Tensor._make(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)

    def mean(self) -> "Tensor":
        return self.sum() / float(self.data.size)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError("matmul expects 2-D operands")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(
            f"matmul mismatch: {a.data.shape} x {b.data.shape}"
        )

    def backward(g):
        if a.requires_grad:
            a._accum(g @ b.data.T)
        if b.requires_grad:
            b._accum(a.data.T @ g)

    return Tensor._make(a.data @ b.data, (a, b), backward)


def transpose(a: Tensor) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a._accum(g.T)

    return Tensor._make(a.data.T, (a,), backward)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def backward(g):
        if a.requires_grad:
            a._accum(g * mask)

    return Tensor._make(a.data * mask, (a,), backward)


def softmax_rows(a: Tensor, temperature: float = 1.0) -> Tensor:
    """Row-wise softmax of ``a / temperature`` with max-shift stabilization."""
    if not temperature > 0:  # NaN fails it too
        raise InputError(f"temperature must be positive, got {temperature}")
    if not np.isfinite(a.data).all():
        raise NumericError("softmax_rows: non-finite input")
    s = _softmax(a.data / temperature)

    def backward(g):
        if a.requires_grad:
            a._accum(_softmax_grad(g, s) / temperature)

    return Tensor._make(s, (a,), backward)


def _softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, shifted by its max; -inf entries get weight 0."""
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_grad(g: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The gradient of `_softmax`'s input from that of its output ``s``."""
    return (g - (g * s).sum(axis=-1, keepdims=True)) * s


def softplus(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0) + np.log1p(np.exp(-np.abs(a.data)))
    sig = 1.0 / (1.0 + np.exp(-a.data))

    def backward(g):
        if a.requires_grad:
            a._accum(g * sig)

    return Tensor._make(out, (a,), backward)


def cross_entropy_rows(a: Tensor, ids) -> Tensor:
    """Mean over rows of -log softmax(a)[i, ids[i]], as one op.

    An id outside ``a``'s columns is an InputError. The forward runs the array
    operations of ``-pick(log_softmax_rows(a), ids).sum() / len(ids)``
    (tests/reference_ops.py) in their order, so the two agree bit for bit.
    """
    ids = np.asarray(ids, dtype=np.intp)
    if a.data.ndim != 2 or ids.ndim != 1 or ids.shape[0] != a.data.shape[0]:
        raise ShapeError("cross_entropy_rows expects a 2-D tensor and one index per row")
    if ids.size and (ids.min() < 0 or ids.max() >= a.data.shape[1]):
        raise InputError(f"cross_entropy_rows: id outside the tag set of {a.data.shape[1]} columns")
    if not np.isfinite(a.data).all():
        raise NumericError("cross_entropy_rows: non-finite input")
    z = a.data - a.data.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    rows = np.arange(ids.shape[0])
    n = float(ids.shape[0])

    def backward(g):
        if a.requires_grad:
            k = g / n
            grad = np.exp(logp) * k  # softmax minus one-hot, times k
            grad[rows, ids] -= k
            a._accum(grad)

    return Tensor._make(-logp[rows, ids].sum() / n, (a,), backward)


def rows_select(a: Tensor, ids) -> Tensor:
    """Gather rows (embedding lookup); duplicate ids accumulate gradient.

    On a C-contiguous gradient the backward's `np.add.at` runs on the flat
    vector, one index per entry (numpy's faster 1-D loop); every entry still
    gets its rows' values added in id order, so the sums are bit-identical.
    """
    ids = np.asarray(ids, dtype=np.intp)
    if ids.size and (ids.min() < 0 or ids.max() >= a.data.shape[0]):
        raise ShapeError("rows_select: index out of range")

    def backward(g):
        if a.requires_grad:
            # scatter straight into a's own buffer; grad has one row per id
            if a.grad is None:
                a.grad = np.zeros(a.data.shape)
            if a.grad.flags.c_contiguous:
                row = math.prod(a.data.shape[1:])  # entries per row
                index = ids.reshape(-1, 1) * row + np.arange(row)
                np.add.at(a.grad.reshape(-1), index.reshape(-1), g.reshape(-1))
            else:
                np.add.at(a.grad, ids, g)

    return Tensor._make(a.data.take(ids, axis=0), (a,), backward)


def window_mix(e: Tensor, left: Tensor, center: Tensor, right: Tensor, bias: Tensor,
               offsets) -> Tensor:
    """``e + relu(prev @ left + e @ center + nxt @ right + bias)`` as one op.

    The toy encoder's window-3 mixing layer with residual, over a batch of
    sentences whose rows ``e`` holds one after another. ``offsets`` are the
    sentences' row offsets ``[0, n_1, n_1 + n_2, ..., n]`` (`fusion.Segments`),
    each sentence at least one row. Row i of ``prev`` is row i - 1 of ``e``
    and row i of ``nxt`` is row i + 1, or 0 where that row lies in another
    sentence, so the window never crosses a sentence boundary.

    Each shifted copy is one gather from ``e``'s rows plus one zero row, on an
    index vector the offsets give. A row of ``e`` feeds at most one row of a
    copy, so the gather's backward is an assignment into n + 1 rows, the
    last dropped. The forward runs the array operations of the composition
    of row shifts (tests/reference_ops.py), matmuls and a relu in its order:
    bit for bit.
    """
    x = e.data
    if (x.ndim != 2 or {w.data.shape for w in (left, center, right)} != {(x.shape[1],) * 2}
            or bias.data.shape != (1, x.shape[1])):
        raise ShapeError("window_mix expects (n, d) rows, three (d, d) weights and a (1, d) bias")
    n, d = x.shape
    offsets = np.asarray(offsets, dtype=np.intp)
    if (offsets.ndim != 1 or offsets.size < 2 or offsets[0] != 0 or offsets[-1] != n
            or (offsets[1:] <= offsets[:-1]).any()):
        raise ShapeError("window_mix expects row offsets from 0 to n, each sentence at least one row")
    # row i reads row i - 1 (i + 1), or the zero row n at its sentence's first (last) row
    prev_index, next_index = np.arange(-1, n - 1), np.arange(1, n + 1)
    prev_index[offsets[:-1]] = n
    next_index[offsets[1:] - 1] = n
    # under no_grad every temporary but the output lies on a pooled slot (`_scratch`),
    # reused once its array is read: slot 1 holds prev, x @ center, then nxt, and
    # slot 0 padded, then nxt @ right; no backward reads them there
    padded = np.concatenate((x, np.zeros((1, d))), out=_scratch(0, (n + 1, d)))
    prev = padded.take(prev_index, axis=0, out=_scratch(1, (n, d)), mode="clip")
    mixed = np.matmul(prev, left.data, out=_scratch(2, (n, d)))  # summed in place, in order
    mixed += np.matmul(x, center.data, out=_scratch(1, (n, d)))
    nxt = padded.take(next_index, axis=0, out=_scratch(1, (n, d)), mode="clip")
    mixed += np.matmul(nxt, right.data, out=_scratch(0, (n, d)))
    mixed += bias.data
    mask = mixed > 0
    out = mixed * mask
    out += x  # x + relu(mixed): IEEE addition commutes, bit for bit

    def backward(g):
        gm = g * mask  # through the relu
        if left.requires_grad:
            left._accum(prev.T @ gm)
        if center.requires_grad:
            center._accum(x.T @ gm)
        if right.requires_grad:
            right._accum(nxt.T @ gm)
        if bias.requires_grad:
            bias._accum(gm.sum(axis=0, keepdims=True))
        if e.requires_grad:
            from_prev, from_next = np.zeros((n + 1, d)), np.zeros((n + 1, d))
            from_prev[prev_index] = gm @ left.data.T
            from_next[next_index] = gm @ right.data.T
            grad = g + gm @ center.data.T
            grad += from_prev[:n]
            grad += from_next[:n]
            e._accum(grad)

    return Tensor._make(out, (e, left, center, right, bias), backward)


def _flat(x: np.ndarray) -> np.ndarray:
    """A stack of matrices as one matrix of all their rows."""
    return x.reshape(-1, x.shape[-1])


def label_fusion(h: Tensor, proj_w: Tensor, proj_b: Tensor, label_reps: Tensor,
                 gcn_w1: Tensor, gcn_w2: Tensor, out_w: Tensor, out_b: Tensor,
                 a_hat: np.ndarray, lengths) -> Tensor:
    """Label attention, a two-layer GCN and token fusion as one op.

    ``h`` holds the token rows of a batch's sentences one after another and
    ``lengths`` their counts. For each sentence, with
    ``q = h @ proj_w + proj_b``:

        u  = softmax_rows(label_reps @ q.T) @ q
        u' = a_hat @ relu(a_hat @ u @ gcn_w1) @ gcn_w2
        h' = h + softmax_rows(q @ u'.T) @ u' @ out_w + out_b

    The sentences run side by side on padded (B, n_max, ·) arrays: the label
    scores of a padding token are -inf, so it gets no attention, and every
    sentence shares ``a_hat``. Per sentence the forward runs the array
    operations of that composition in its order, so on a batch of one the
    two agree bit for bit.
    """
    x = h.data
    lengths = np.asarray(lengths, dtype=np.intp)
    d_p = proj_w.data.shape[1]
    if (x.ndim != 2 or proj_w.data.shape[0] != x.shape[1] or lengths.ndim != 1
            or lengths.size == 0 or lengths.min() < 1 or lengths.sum() != x.shape[0]
            or a_hat.shape != (label_reps.data.shape[0],) * 2):
        raise ShapeError("label_fusion expects (n, d) rows, a positive length per sentence "
                         "and one adjacency row and column per label")
    n_max = lengths.max()
    # row r of h is row slot[r] of the padded rows: position p of sentence s is s * n_max + p
    starts = np.cumsum(lengths) - lengths
    slot = np.arange(x.shape[0]) + np.repeat(np.arange(lengths.size) * n_max - starts, lengths)
    padding = np.arange(n_max) >= lengths[:, None]  # B x n_max

    # under no_grad q, qp, beta @ u' and mix lie on the pooled slots of `window_mix`;
    # beta @ u' reuses q's once q is scattered into qp
    q = np.matmul(x, proj_w.data, out=_scratch(0, (x.shape[0], d_p)))
    q += proj_b.data
    qp = _scratch(1, (lengths.size, n_max, d_p))
    if qp is None:
        qp = np.zeros((lengths.size, n_max, d_p))
    else:
        qp.fill(0.0)  # the padding rows
    _flat(qp)[slot] = q
    scores = label_reps.data @ qp.transpose(0, 2, 1)  # B x n_types x n_max
    if not np.isfinite(scores).all():
        raise NumericError("label_fusion: non-finite label scores")
    alpha = _softmax(np.where(padding[:, None, :], -np.inf, scores))
    u = alpha @ qp
    au = a_hat @ u
    z = au @ gcn_w1.data
    relu_mask = z > 0
    ah = a_hat @ (z * relu_mask)
    u_prime = ah @ gcn_w2.data  # B x n_types x d_p
    scores = qp @ u_prime.transpose(0, 2, 1)  # B x n_max x n_types
    if not np.isfinite(scores).all():
        raise NumericError("label_fusion: non-finite token scores")
    beta = _softmax(scores)
    mix = _flat(np.matmul(beta, u_prime, out=_scratch(0, qp.shape))).take(
        slot, axis=0, out=_scratch(2, (x.shape[0], d_p)), mode="clip")

    def backward(g):
        if out_w.requires_grad:
            out_w._accum(mix.T @ g)
        if out_b.requires_grad:
            out_b._accum(g.sum(axis=0, keepdims=True))
        g_mix = np.zeros(qp.shape)  # padding rows stay 0, and so do their gradients below
        _flat(g_mix)[slot] = g @ out_w.data.T
        g_scores = _softmax_grad(g_mix @ u_prime.transpose(0, 2, 1), beta)
        g_u_prime = beta.transpose(0, 2, 1) @ g_mix + g_scores.transpose(0, 2, 1) @ qp
        g_qp = g_scores @ u_prime
        if gcn_w2.requires_grad:
            gcn_w2._accum(_flat(ah).T @ _flat(g_u_prime))
        g_z = (a_hat.T @ (g_u_prime @ gcn_w2.data.T)) * relu_mask
        if gcn_w1.requires_grad:
            gcn_w1._accum(_flat(au).T @ _flat(g_z))
        g_u = a_hat.T @ (g_z @ gcn_w1.data.T)
        g_qp += alpha.transpose(0, 2, 1) @ g_u
        g_scores = _softmax_grad(g_u @ qp.transpose(0, 2, 1), alpha)  # 0 at padding
        if label_reps.requires_grad:
            label_reps._accum((g_scores @ qp).sum(axis=0))
        g_qp += g_scores.transpose(0, 2, 1) @ label_reps.data
        g_q = _flat(g_qp).take(slot, axis=0)
        if proj_w.requires_grad:
            proj_w._accum(x.T @ g_q)
        if proj_b.requires_grad:
            proj_b._accum(g_q.sum(axis=0, keepdims=True))
        if h.requires_grad:
            h._accum(g + g_q @ proj_w.data.T)

    parents = (h, proj_w, proj_b, label_reps, gcn_w1, gcn_w2, out_w, out_b)
    out = mix @ out_w.data
    out += x  # x + mix @ out_w.data, one temporary fewer
    out += out_b.data
    return Tensor._make(out, parents, backward)


def concat_rows(parts: list[Tensor]) -> Tensor:
    sizes = [p.data.shape[0] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                p._accum(g[lo:hi])

    return Tensor._make(np.concatenate([p.data for p in parts], axis=0), tuple(parts), backward)


def logsumexp_cols(a: Tensor, groups: list[list[int]]) -> Tensor:
    """Per-row log-sum-exp over each column group: out[:, g] = lse(a[:, groups[g]])."""
    if a.data.ndim != 2:
        raise ShapeError("logsumexp_cols expects a 2-D tensor")
    n = a.data.shape[0]
    out = np.empty((n, len(groups)))
    weights = []  # within-group softmax, saved for backward
    for gi, cols in enumerate(groups):
        block = a.data[:, cols]
        m = block.max(axis=1, keepdims=True)
        e = np.exp(block - m)
        tot = e.sum(axis=1, keepdims=True)
        out[:, gi] = (m + np.log(tot))[:, 0]
        weights.append(e / tot)

    def backward(g):
        if not a.requires_grad:
            return
        full = np.zeros_like(a.data)
        for gi, cols in enumerate(groups):
            full[:, cols] += g[:, gi : gi + 1] * weights[gi]
        a._accum(full)

    return Tensor._make(out, (a,), backward)


def pairwise_distances(x: np.ndarray) -> np.ndarray:
    """All-pairs euclidean distances D[i,j] = ||x_i - x_j|| between rows of x."""
    diff = x[:, None, :] - x[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))


def pairwise_l2(a: Tensor) -> Tensor:
    """Differentiable :func:`pairwise_distances`.

    Subgradient at coincident rows (D=0) is taken as 0.
    """
    if a.data.ndim != 2:
        raise ShapeError("pairwise_l2 expects a 2-D tensor")
    dist = pairwise_distances(a.data)

    def backward(g):
        if not a.requires_grad:
            return
        diff = a.data[:, None, :] - a.data[None, :, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            unit = diff / dist[:, :, None]
        unit[~np.isfinite(unit)] = 0.0
        # d D_ij / d a_i = unit_ij, d D_ij / d a_j = -unit_ij
        grad = (g[:, :, None] * unit).sum(axis=1) - (g[:, :, None] * unit).sum(axis=0)
        a._accum(grad)

    return Tensor._make(dist, (a,), backward)


def l2_distance(a, b) -> float:
    """Euclidean distance between two equal-length vectors."""
    a = _as_array(a).ravel()
    b = _as_array(b).ravel()
    if a.shape != b.shape:
        raise ShapeError(f"l2_distance length mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


# -- gradient verification ---------------------------------------------


@dataclass
class GradCheckEntry:
    name: str
    max_rel_err: float
    ok: bool


@dataclass
class GradCheckReport:
    entries: list[GradCheckEntry] = field(default_factory=list)
    tolerance: float = 1e-4

    @property
    def passed(self) -> bool:
        return all(e.ok for e in self.entries)

    @property
    def max_rel_err(self) -> float:
        return max((e.max_rel_err for e in self.entries), default=0.0)


def grad_check(
    f,
    params: list[Tensor],
    names: list[str] | None = None,
    step: float = 1e-5,
    tol: float = 1e-4,
    floor: float = 1e-6,
) -> GradCheckReport:
    """Compare tape gradients of scalar ``f()`` against central differences.

    Relative error uses an absolute floor so near-zero gradients do not
    blow up the ratio.
    """
    if names is None:
        names = [f"param{i}" for i in range(len(params))]
    for p in params:
        p.grad = None
    out = f()
    out.backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    report = GradCheckReport(tolerance=tol)
    for p, g, name in zip(params, analytic, names):
        numeric = np.zeros_like(p.data)
        flat = p.data.ravel()
        nflat = numeric.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = f().item()
            flat[i] = orig - step
            lo = f().item()
            flat[i] = orig
            nflat[i] = (hi - lo) / (2.0 * step)
        denom = np.maximum(np.maximum(np.abs(numeric), np.abs(g)), floor)
        err = float(np.max(np.abs(g - numeric) / denom)) if flat.size else 0.0
        report.entries.append(GradCheckEntry(name=name, max_rel_err=err, ok=err < tol))
    return report
