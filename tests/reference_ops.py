"""Unfused reference ops, the compositions the fused autodiff ops are held to.

`autodiff.cross_entropy_rows` must equal ``-pick(log_softmax_rows(a),
ids).sum() / n`` and `autodiff.window_mix` the composition of `shift_rows`,
matmuls and a relu, bit for bit. The package itself uses neither chain, so
the references live here, each with its own finite-difference check in
tests/test_autodiff.py.
"""

import numpy as np

from labeltransfer.autodiff import NumericError, ShapeError, Tensor


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


def shift_rows(a: Tensor, k: int, keep=None) -> Tensor:
    """Shift rows down by k (k>0) or up (k<0), filling vacated rows with 0.

    ``keep`` is an optional boolean mask over the output rows; rows where it
    is False are zeroed too. A batch of concatenated sentences passes False
    at the rows whose shifted value would come from another sentence.
    """
    if keep is not None:
        keep = np.asarray(keep, dtype=bool)
        if keep.shape != (a.data.shape[0],):
            raise ShapeError("keep needs one flag per row")

    def backward(g):
        if a.requires_grad:
            a._accum(_unshifted(g, k, keep))

    return Tensor._make(_shifted(a.data, k, keep), (a,), backward)
