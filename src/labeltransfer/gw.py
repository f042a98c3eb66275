"""Entropic Gromov-Wasserstein matching between two label graphs.

The structural cost compares intra-graph node distances with an absolute
difference; the solver alternates linearization of the quadratic objective
with Sinkhorn projections onto the transport polytope (Peyre, Cuturi &
Solomon, ICML 2016). Each projection runs in the scaling domain on a kernel
that absorbs the warm-start potentials, and falls back to the log domain
when epsilon is too small for float64 scalings. For the training loss the
plan is held fixed (envelope treatment) and gradients flow only through the
target-graph distances.
"""

from __future__ import annotations

import io
import csv
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .errors import InputError, NumericError, ShapeError
from .labelgraph import LabelGraph


@dataclass(frozen=True)
class TransportPlan:
    matrix: np.ndarray
    row_marginal: np.ndarray
    col_marginal: np.ndarray

    def marginal_error(self) -> float:
        r = np.abs(self.matrix.sum(axis=1) - self.row_marginal).max()
        c = np.abs(self.matrix.sum(axis=0) - self.col_marginal).max()
        return float(max(r, c))


@dataclass(frozen=True)
class GwResult:
    value: float
    plan: TransportPlan
    inner_iterations: int
    outer_iterations: int
    converged: bool
    monotone: bool = True


def _check_distance_matrix(d: np.ndarray, name: str):
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ShapeError(f"{name} must be square")
    if not np.all(np.isfinite(d)):
        raise NumericError(f"{name} contains non-finite values")


def _loss_tensor(d_s: np.ndarray, d_t: np.ndarray) -> np.ndarray:
    """L[i, j, i', j'] = |d_s[i, i'] - d_t[j, j']|, after validating both matrices."""
    d_s = np.asarray(d_s, dtype=np.float64)
    d_t = np.asarray(d_t, dtype=np.float64)
    _check_distance_matrix(d_s, "d_s")
    _check_distance_matrix(d_t, "d_t")
    return np.abs(d_s[:, None, :, None] - d_t[None, :, None, :])


def _objective(plan: np.ndarray, cost: np.ndarray) -> float:
    """GW objective of ``plan`` given its own linearized cost."""
    return float(np.einsum("ij,ij->", plan, cost))


def structural_cost(d_s: np.ndarray, d_t: np.ndarray, plan: np.ndarray) -> np.ndarray:
    """Linearized GW cost at the current plan.

    C[i, j] = sum_{i', j'} plan[i', j'] * |d_s[i, i'] - d_t[j, j']|.
    """
    return np.einsum("ijkl,kl->ij", _loss_tensor(d_s, d_t), plan)


def gw_objective(d_s: np.ndarray, d_t: np.ndarray, plan: np.ndarray) -> float:
    """sum_{i,j,i',j'} plan[i,j] plan[i',j'] |d_s[i,i'] - d_t[j,j']|."""
    return _objective(plan, structural_cost(d_s, d_t, plan))


# Largest exponent spread max - min of the absorbed kernel exp((f + g - C) / eps)
# that the scaling loop accepts. float64 exp() over- and underflows past about
# +-709, and a scaling can grow to about exp(spread) while it multiplies kernel
# entries as small as exp(-spread), so products reach exp(-2 * spread): 250
# keeps them normal, with room for the marginals' own factors.
_MAX_KERNEL_SPREAD = 250.0
# The scaling loop checks the row marginal this often (and on its last step).
_CHECK_EVERY = 10


def sinkhorn(
    cost: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    epsilon: float,
    max_iter: int = 200,
    tol: float = 1e-9,
    warm_f: np.ndarray | None = None,
    warm_g: np.ndarray | None = None,
):
    """Sinkhorn for entropic OT with marginals (u, v), from potentials (f, g).

    Returns (TransportPlan, potentials f, g, iterations, converged); the plan
    is exp((f_i + g_j - C_ij) / epsilon). Convergence is judged on the row
    marginal error against ``tol``.

    The potentials are absorbed into one kernel, after which each iteration
    rescales it in the scaling domain (Schmitzer 2019, "Stabilized sparse
    scaling algorithms for entropy regularized transport problems"). When
    the kernel's exponent spread exceeds ``_MAX_KERNEL_SPREAD`` (small
    epsilon), or a scaling leaves the positive finite range, the call runs
    the log-domain iteration instead.
    """
    cost = np.asarray(cost, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if epsilon <= 0:
        raise InputError("epsilon must be positive")
    if max_iter < 1:
        raise InputError("max_iter must be at least 1")
    if np.any(u <= 0) or np.any(v <= 0):
        raise InputError("marginals must be strictly positive")
    if not np.all(np.isfinite(cost)):
        raise NumericError("sinkhorn: non-finite cost")
    f = np.zeros(cost.shape[0]) if warm_f is None else warm_f
    g = np.zeros(cost.shape[1]) if warm_g is None else warm_g
    out = _sinkhorn_scaling(cost, u, v, epsilon, max_iter, tol, f, g)
    if out is None:
        out = _sinkhorn_log(cost, u, v, epsilon, max_iter, tol, f, g)
    plan, f, g, it, converged = out
    return TransportPlan(plan, u.copy(), v.copy()), f, g, it, converged


def _sinkhorn_scaling(cost, u, v, epsilon, max_iter, tol, f, g):
    """Scaling-domain Sinkhorn; None when the kernel or a scaling is unsafe.

    K = exp((f_i + g_j - C_ij) / epsilon - top) is built once; the plan is
    diag(a) K diag(b), updated by a = u / (K b) and b = v / (K^T a), so the
    returned potentials are f + epsilon (log a - top) and g + epsilon log b.
    """
    z = (f[:, None] + g[None, :] - cost) / epsilon
    top = z.max()
    if top - z.min() > _MAX_KERNEL_SPREAD:
        return None
    K = np.exp(z - top)
    b = np.ones(cost.shape[1])
    converged = False
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for it in range(1, max_iter + 1):
            # ndarray.dot: the same products as @, at less call overhead
            a = u / K.dot(b)
            b = v / a.dot(K)
            # column marginals hold exactly after the b update; check rows
            if it % _CHECK_EVERY == 0 or it == max_iter:
                row_err = np.abs(a * K.dot(b) - u).max()
                if row_err < tol:
                    converged = True
                    break
                if not np.isfinite(row_err):
                    return None
        f = f + epsilon * (np.log(a) - top)
        g = g + epsilon * np.log(b)
    if not (np.all(np.isfinite(f)) and np.all(np.isfinite(g))):
        return None
    return a[:, None] * K * b[None, :], f, g, it, converged


def _sinkhorn_log(cost, u, v, epsilon, max_iter, tol, f, g):
    """Log-domain Sinkhorn: safe at any epsilon, at about 30 numpy calls per iteration."""
    log_u = np.log(u)
    log_v = np.log(v)

    def logsumexp(m, axis):
        mx = m.max(axis=axis, keepdims=True)
        return (mx + np.log(np.exp(m - mx).sum(axis=axis, keepdims=True))).squeeze(axis)

    converged = False
    for it in range(1, max_iter + 1):
        f = epsilon * (log_u - logsumexp((g[None, :] - cost) / epsilon, axis=1))
        g = epsilon * (log_v - logsumexp((f[:, None] - cost) / epsilon, axis=0))
        # column scaling is exact after the g update; check rows
        logT = (f[:, None] + g[None, :] - cost) / epsilon
        row_err = np.abs(np.exp(logT).sum(axis=1) - u).max()
        if row_err < tol:
            converged = True
            break
    plan = np.exp((f[:, None] + g[None, :] - cost) / epsilon)
    return plan, f, g, it, converged


def _gw_from_init(
    L: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    plan: np.ndarray,
    epsilon: float,
    outer_iter: int,
    inner_iter: int,
    tol: float,
    anneal: bool,
) -> GwResult:
    f = g = None
    eps_now = max(1.0, epsilon) if anneal else epsilon
    # cost is always the linearization at plan, so <plan, cost> is plan's objective
    cost = np.einsum("ijkl,kl->ij", L, plan)
    value = best_obj = _objective(plan, cost)
    total_inner = 0
    converged = False
    monotone = True
    outer_done = 0
    for outer_done in range(1, outer_iter + 1):
        tp, f, g, inner, _ = sinkhorn(
            cost, u, v, eps_now, max_iter=inner_iter, tol=min(tol, 1e-9), warm_f=f, warm_g=g
        )
        total_inner += inner
        new_plan = tp.matrix
        new_cost = np.einsum("ijkl,kl->ij", L, new_plan)
        obj = _objective(new_plan, new_cost)
        at_target = eps_now <= epsilon * (1 + 1e-12)
        if at_target and obj > best_obj + 1e-9:
            monotone = False
            converged = False
            break
        change = np.abs(new_plan - plan).max()
        plan, cost, value = new_plan, new_cost, obj
        best_obj = min(best_obj, obj) if at_target else obj
        if at_target and change < tol:
            converged = True
            break
        if not at_target:
            eps_now = max(epsilon, eps_now * 0.5)
    return GwResult(
        value=value,
        plan=TransportPlan(plan, u, v),
        inner_iterations=total_inner,
        outer_iterations=outer_done,
        converged=converged,
        monotone=monotone,
    )


def gromov_wasserstein_distances(
    d_s: np.ndarray,
    d_t: np.ndarray,
    epsilon: float = 0.05,
    outer_iter: int = 20,
    inner_iter: int = 200,
    tol: float = 1e-6,
    anneal: bool = True,
    restarts: int = 0,
) -> GwResult:
    """Entropic GW between two precomputed distance matrices.

    Starts from the uniform outer-product plan. With ``anneal`` the
    regularization follows a halving schedule from max(1, epsilon) down to
    ``epsilon`` across outer iterations (warm-started potentials), which
    sharpens the plan enough to certify identity/permutation matches. The
    objective must be non-increasing once the schedule reaches ``epsilon``;
    a violation halts the solver with the previous (better) plan.

    The linearized fixed point can land in a local optimum; ``restarts``
    additional runs from random feasible plans (drawn from a fixed seed, so
    deterministic) keep the best objective. The default of 0 runs the
    plain single-start solver.
    """
    L = _loss_tensor(d_s, d_t)
    n, m = L.shape[:2]
    u = np.full(n, 1.0 / n)
    v = np.full(m, 1.0 / m)
    best = _gw_from_init(L, u, v, np.outer(u, v), epsilon, outer_iter, inner_iter, tol, anneal)
    if restarts > 0:
        rng = np.random.default_rng(0)
        for _ in range(restarts):
            rand_cost = rng.uniform(size=(n, m))
            tp, *_ = sinkhorn(rand_cost, u, v, epsilon=0.1, max_iter=100)
            candidate = _gw_from_init(
                L, u, v, tp.matrix, epsilon, outer_iter, inner_iter, tol, anneal
            )
            if candidate.value < best.value:
                best = candidate
    return best


def gromov_wasserstein(
    gs: LabelGraph,
    gt: LabelGraph,
    epsilon: float = 0.05,
    outer_iter: int = 20,
    inner_iter: int = 200,
    tol: float = 1e-6,
    anneal: bool = True,
) -> GwResult | None:
    """GW distance between two label graphs; None when a graph is degenerate."""
    if gs.degenerate or gt.degenerate or gs.n < 2 or gt.n < 2:
        return None
    return gromov_wasserstein_distances(
        gs.distance_matrix(),
        gt.distance_matrix(),
        epsilon=epsilon,
        outer_iter=outer_iter,
        inner_iter=inner_iter,
        tol=tol,
        anneal=anneal,
    )


def gw_fixed_plan_loss(d_t: Tensor, d_s: np.ndarray, plan: np.ndarray) -> Tensor:
    """Differentiable GW objective with the transport plan held constant.

    Value equals sum_{i,j,i',j'} plan[i,j] plan[i',j'] |d_s[i,i'] - d_t[j,j']|;
    the gradient flows into ``d_t`` only, with subgradient 0 where the
    absolute-value argument is exactly 0.
    """
    d_s = np.asarray(d_s, dtype=np.float64)
    plan = np.asarray(plan, dtype=np.float64)
    diff = d_s[:, None, :, None] - d_t.data[None, :, None, :]
    value = np.einsum("ij,kl,ijkl->", plan, plan, np.abs(diff))

    def backward(g):
        if d_t.requires_grad:
            sign = np.sign(diff)
            grad = -np.einsum("ij,kl,ijkl->jl", plan, plan, sign)
            d_t._accum(g * grad)

    return Tensor._make(np.array(value), (d_t,), backward)


def plan_to_csv(labels_s, labels_t, plan: np.ndarray) -> str:
    """Transport plan as CSV with label headers and 6-decimal entries."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([""] + list(labels_t))
    for label, row in zip(labels_s, plan):
        writer.writerow([label] + [f"{x:.6f}" for x in row])
    return buf.getvalue()
