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
parameters) keep their accumulated ``.grad``. Inside ``with no_grad():``
operations record nothing, for inference. The op set is deliberately small:
just what the fusion network, the losses, and the graph-matching term need.
Three ops fuse a chain of smaller ones into one node with a hand-written
backward: ``cross_entropy_rows`` (the mean of ``-pick(log_softmax_rows(a),
ids)``), ``window_mix`` (the toy encoder's window-3 mixing layer with
residual) and ``label_fusion`` (label attention, GCN and token fusion over
a batch of sentences); each computes its forward with the same array
operations as the chain it replaces, so their values agree bit for bit (for
``label_fusion``, on a batch of one).
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .errors import InputError, NumericError, ShapeError


# False inside no_grad(): Tensor._make then links no parents or backward closure
_grad_enabled = True

# numbers recorded nodes in creation order; backward() runs them in reverse
_creation = itertools.count(1)
_creation_order = attrgetter("_order")


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
        if _grad_enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
            out._order = next(_creation)
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
        self._accum(np.ones_like(self.data))
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
    if temperature <= 0:
        raise InputError("temperature must be positive")
    if not np.all(np.isfinite(a.data)):
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


def log_softmax_rows(a: Tensor) -> Tensor:
    if not np.all(np.isfinite(a.data)):
        raise NumericError("log_softmax_rows: non-finite input")
    z = a.data - a.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    out = z - lse
    s = np.exp(out)

    def backward(g):
        if a.requires_grad:
            a._accum(g - s * g.sum(axis=-1, keepdims=True))

    return Tensor._make(out, (a,), backward)


def softplus(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0) + np.log1p(np.exp(-np.abs(a.data)))
    sig = 1.0 / (1.0 + np.exp(-a.data))

    def backward(g):
        if a.requires_grad:
            a._accum(g * sig)

    return Tensor._make(out, (a,), backward)


def pick(a: Tensor, ids) -> Tensor:
    """Select one entry per row: out[i] = a[i, ids[i]]."""
    ids = np.asarray(ids, dtype=np.intp)
    if a.data.ndim != 2 or ids.ndim != 1 or ids.shape[0] != a.data.shape[0]:
        raise ShapeError("pick expects a 2-D tensor and one index per row")
    rows = np.arange(a.data.shape[0])

    def backward(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            full[rows, ids] = g
            a._accum(full)

    return Tensor._make(a.data[rows, ids], (a,), backward)


def cross_entropy_rows(a: Tensor, ids) -> Tensor:
    """Mean over rows of -log softmax(a)[i, ids[i]], as one op.

    The forward runs the array operations of
    ``-pick(log_softmax_rows(a), ids).sum() / len(ids)`` in their order, so
    the two agree bit for bit.
    """
    ids = np.asarray(ids, dtype=np.intp)
    if a.data.ndim != 2 or ids.ndim != 1 or ids.shape[0] != a.data.shape[0]:
        raise ShapeError("cross_entropy_rows expects a 2-D tensor and one index per row")
    if not np.all(np.isfinite(a.data)):
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
    """Gather rows (embedding lookup); duplicate ids accumulate gradient."""
    ids = np.asarray(ids, dtype=np.intp)
    if np.any(ids < 0) or np.any(ids >= a.data.shape[0]):
        raise ShapeError("rows_select: index out of range")

    def backward(g):
        if a.requires_grad:
            # scatter straight into a's own buffer; grad has one row per id
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            np.add.at(a.grad, ids, g)

    return Tensor._make(a.data[ids], (a,), backward)


def _shifted(x: np.ndarray, k: int, keep) -> np.ndarray:
    """``x``'s rows shifted down by k (k>0) or up (k<0); vacated and unkept rows are 0."""
    n = x.shape[0]
    out = np.zeros_like(x)
    if k >= 0:
        out[k:] = x[: n - k]
    else:
        out[:k] = x[-k:]
    if keep is not None:
        out[~keep] = 0.0
    return out


def _unshifted(g: np.ndarray, k: int, keep) -> np.ndarray:
    """The adjoint of `_shifted`: the gradient of its input from that of its output."""
    if keep is not None:
        g = g.copy()
        g[~keep] = 0.0
    return _shifted(g, -k, None)


def _keep_mask(keep, n: int):
    if keep is None:
        return None
    keep = np.asarray(keep, dtype=bool)
    if keep.shape != (n,):
        raise ShapeError("keep needs one flag per row")
    return keep


def shift_rows(a: Tensor, k: int, keep=None) -> Tensor:
    """Shift rows down by k (k>0) or up (k<0), filling vacated rows with 0.

    ``keep`` is an optional boolean mask over the output rows; rows where it
    is False are zeroed too. A batch of concatenated sentences passes False
    at the rows whose shifted value would come from another sentence.
    """
    keep = _keep_mask(keep, a.data.shape[0])

    def backward(g):
        if a.requires_grad:
            a._accum(_unshifted(g, k, keep))

    return Tensor._make(_shifted(a.data, k, keep), (a,), backward)


def window_mix(e: Tensor, left: Tensor, center: Tensor, right: Tensor, bias: Tensor,
               keep_prev=None, keep_next=None) -> Tensor:
    """``e + relu(shift(e, 1) @ left + e @ center + shift(e, -1) @ right + bias)`` as one op.

    The toy encoder's window-3 mixing layer with residual; ``keep_prev`` and
    ``keep_next`` are the `shift_rows` masks of the two shifted copies. The
    forward runs the array operations of that composition in its order, so
    the two agree bit for bit.
    """
    x = e.data
    if (x.ndim != 2 or {w.data.shape for w in (left, center, right)} != {(x.shape[1],) * 2}
            or bias.data.shape != (1, x.shape[1])):
        raise ShapeError("window_mix expects (n, d) rows, three (d, d) weights and a (1, d) bias")
    keep_prev, keep_next = _keep_mask(keep_prev, x.shape[0]), _keep_mask(keep_next, x.shape[0])
    prev, nxt = _shifted(x, 1, keep_prev), _shifted(x, -1, keep_next)
    mixed = prev @ left.data + x @ center.data + nxt @ right.data + bias.data
    mask = mixed > 0

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
            e._accum(g + gm @ center.data.T + _unshifted(gm @ left.data.T, 1, keep_prev)
                     + _unshifted(gm @ right.data.T, -1, keep_next))

    return Tensor._make(x + mixed * mask, (e, left, center, right, bias), backward)


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
    # row r of h is token position[r] of sentence sentence[r]
    sentence = np.repeat(np.arange(lengths.size), lengths)
    position = np.arange(x.shape[0]) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    padding = np.arange(lengths.max()) >= lengths[:, None]  # B x n_max

    q = x @ proj_w.data + proj_b.data
    qp = np.zeros((lengths.size, lengths.max(), d_p))
    qp[sentence, position] = q
    scores = label_reps.data @ qp.transpose(0, 2, 1)  # B x n_types x n_max
    if not np.all(np.isfinite(scores)):
        raise NumericError("label_fusion: non-finite label scores")
    alpha = _softmax(np.where(padding[:, None, :], -np.inf, scores))
    u = alpha @ qp
    au = a_hat @ u
    z = au @ gcn_w1.data
    relu_mask = z > 0
    ah = a_hat @ (z * relu_mask)
    u_prime = ah @ gcn_w2.data  # B x n_types x d_p
    scores = qp @ u_prime.transpose(0, 2, 1)  # B x n_max x n_types
    if not np.all(np.isfinite(scores)):
        raise NumericError("label_fusion: non-finite token scores")
    beta = _softmax(scores)
    mix = (beta @ u_prime)[sentence, position]

    def backward(g):
        if out_w.requires_grad:
            out_w._accum(mix.T @ g)
        if out_b.requires_grad:
            out_b._accum(g.sum(axis=0, keepdims=True))
        g_mix = np.zeros_like(qp)  # padding rows stay 0, and so do their gradients below
        g_mix[sentence, position] = g @ out_w.data.T
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
        g_q = g_qp[sentence, position]
        if proj_w.requires_grad:
            proj_w._accum(x.T @ g_q)
        if proj_b.requires_grad:
            proj_b._accum(g_q.sum(axis=0, keepdims=True))
        if h.requires_grad:
            h._accum(g + g_q @ proj_w.data.T)

    parents = (h, proj_w, proj_b, label_reps, gcn_w1, gcn_w2, out_w, out_b)
    return Tensor._make(x + mix @ out_w.data + out_b.data, parents, backward)


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
