"""Entropic graph matching: Sinkhorn, structural cost, solver, fixed-plan loss."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graph
from labeltransfer.autodiff import NumericError, ShapeError, Tensor
from labeltransfer.gw import (
    _MAX_KERNEL_SPREAD,
    _sinkhorn_log,
    _sinkhorn_scaling,
    gromov_wasserstein,
    gromov_wasserstein_distances,
    gw_fixed_plan_loss,
    gw_objective,
    plan_to_csv,
    sinkhorn,
    structural_cost,
)


def random_distance_matrix(rng, n):
    pts = rng.normal(size=(n, 3))
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))


# -- structural cost ---------------------------------------------------------


def test_structural_cost_identical_diagonal_plan():
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    plan = np.eye(2) / 2.0
    cost = structural_cost(d, d, plan)
    # matched pairs contribute |d-d| = 0 on the diagonal of the cost
    assert cost[0, 0] == 0.0 and cost[1, 1] == 0.0
    assert cost[0, 1] == pytest.approx(1.0)


def test_structural_cost_one_by_one():
    cost = structural_cost(np.zeros((1, 1)), np.zeros((1, 1)), np.ones((1, 1)))
    assert cost.shape == (1, 1) and cost[0, 0] == 0.0


def test_structural_cost_quadruple_loop_oracle():
    rng = np.random.default_rng(2)
    d_s = random_distance_matrix(rng, 3)
    d_t = random_distance_matrix(rng, 4)
    plan = rng.dirichlet(np.ones(12)).reshape(3, 4)
    cost = structural_cost(d_s, d_t, plan)
    for i in range(3):
        for j in range(4):
            expect = sum(
                plan[k, l] * abs(d_s[i, k] - d_t[j, l])
                for k in range(3)
                for l in range(4)
            )
            assert cost[i, j] == pytest.approx(expect, abs=1e-12)


def test_structural_cost_rejects_bad_matrices():
    with pytest.raises(ShapeError):
        structural_cost(np.zeros((2, 3)), np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(NumericError):
        structural_cost(np.array([[0.0, np.nan], [np.nan, 0.0]]), np.zeros((2, 2)), np.zeros((2, 2)))


# -- sinkhorn ------------------------------------------------------------------


def test_sinkhorn_zero_cost_gives_outer_product():
    u = np.array([0.5, 0.5])
    v = np.array([0.25, 0.75])
    plan, f, g, it, conv = sinkhorn(np.zeros((2, 2)), u, v, epsilon=0.1)
    assert conv
    np.testing.assert_allclose(plan.matrix, np.outer(u, v), atol=1e-9)


def test_sinkhorn_small_epsilon_concentrates_diagonal():
    cost = np.array([[0.0, 1.0], [1.0, 0.0]])
    u = v = np.array([0.5, 0.5])
    plan, *_ = sinkhorn(cost, u, v, epsilon=0.01, max_iter=500)
    assert plan.matrix[0, 0] > 0.49 and plan.matrix[1, 1] > 0.49
    assert plan.matrix[0, 1] < 1e-9


def test_sinkhorn_marginal_error_small():
    rng = np.random.default_rng(3)
    cost = rng.uniform(size=(4, 5))
    u = np.full(4, 0.25)
    v = np.full(5, 0.2)
    plan, *_ , conv = sinkhorn(cost, u, v, epsilon=0.05, max_iter=2000)
    assert conv and plan.marginal_error() < 1e-8


def test_sinkhorn_rejects_bad_inputs():
    u = np.array([0.5, 0.5])
    with pytest.raises(ValueError):
        sinkhorn(np.zeros((2, 2)), u, u, epsilon=0.0)
    with pytest.raises(ValueError):
        sinkhorn(np.zeros((2, 2)), np.array([1.0, 0.0]), u, epsilon=0.1)
    with pytest.raises(NumericError):
        sinkhorn(np.array([[np.inf, 0.0], [0.0, 0.0]]), u, u, epsilon=0.1)
    with pytest.raises(ValueError):
        sinkhorn(np.zeros((2, 2)), u, u, epsilon=0.1, max_iter=0)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 10_000), st.integers(2, 12), st.integers(2, 12),
    st.floats(0.02, 1.0), st.booleans(),
)
def test_sinkhorn_scaling_matches_log_domain(seed, n, m, epsilon, warm):
    rng = np.random.default_rng(seed)
    cost = rng.uniform(size=(n, m))
    u = rng.dirichlet(np.ones(n))
    v = rng.dirichlet(np.ones(m))
    # warm potentials as a GW outer step passes them: a few epsilon in size
    f = 3 * epsilon * rng.normal(size=n) if warm else np.zeros(n)
    g = 3 * epsilon * rng.normal(size=m) if warm else np.zeros(m)
    scaled = _sinkhorn_scaling(cost, u, v, epsilon, 5000, 1e-10, f, g)
    assert scaled is not None
    plan, f_s, g_s, iterations, converged = scaled
    # the log-domain loop, run for the same number of iterations
    plan_log, f_log, g_log, _, _ = _sinkhorn_log(cost, u, v, epsilon, iterations, 0.0, f, g)
    assert np.abs(plan - plan_log).max() < 1e-10
    np.testing.assert_allclose(f_s, f_log, rtol=0, atol=1e-9)
    np.testing.assert_allclose(g_s, g_log, rtol=0, atol=1e-9)
    np.testing.assert_allclose(plan, np.exp((f_s[:, None] + g_s[None, :] - cost) / epsilon),
                               rtol=1e-9, atol=1e-15)
    assert np.abs(plan.sum(axis=0) - v).max() < 1e-12
    if converged:
        assert np.abs(plan.sum(axis=1) - u).max() < 1e-10


def test_sinkhorn_wide_kernel_takes_log_domain_fallback():
    rng = np.random.default_rng(14)
    cost = rng.uniform(size=(5, 4))
    cost[0, 0], cost[4, 3] = 0.0, 1.0
    u = np.full(5, 0.2)
    v = np.full(4, 0.25)
    epsilon = 1.0 / (_MAX_KERNEL_SPREAD + 50)
    zeros_f, zeros_g = np.zeros(5), np.zeros(4)
    assert _sinkhorn_scaling(cost, u, v, epsilon, 500, 1e-9, zeros_f, zeros_g) is None
    plan, f, g, iterations, converged = sinkhorn(cost, u, v, epsilon, max_iter=500)
    log_plan, log_f, log_g, log_iterations, _ = _sinkhorn_log(
        cost, u, v, epsilon, 500, 1e-9, zeros_f, zeros_g
    )
    np.testing.assert_array_equal(plan.matrix, log_plan)
    np.testing.assert_array_equal(f, log_f)
    assert iterations == log_iterations
    assert converged and plan.marginal_error() < 1e-8


# -- GW solver -----------------------------------------------------------------


def test_gw_identity_near_zero():
    rng = np.random.default_rng(4)
    d = random_distance_matrix(rng, 5)
    res = gromov_wasserstein_distances(d, d, epsilon=1e-3, anneal=True)
    assert res.value <= 1e-6
    assert res.plan.marginal_error() < 1e-6


def test_gw_permutation_near_zero():
    rng = np.random.default_rng(5)
    d = random_distance_matrix(rng, 6)
    perm = rng.permutation(6)
    d_p = d[np.ix_(perm, perm)]
    res = gromov_wasserstein_distances(d, d_p, epsilon=1e-3, anneal=True)
    assert res.value <= 1e-6


def test_gw_solver_not_worse_than_best_permutation_plan():
    rng = np.random.default_rng(6)
    for _ in range(5):
        n = int(rng.integers(3, 5))
        d_s = random_distance_matrix(rng, n)
        d_t = random_distance_matrix(rng, n)
        res = gromov_wasserstein_distances(d_s, d_t, epsilon=1e-3, anneal=True, restarts=4)
        best = min(
            gw_objective(d_s, d_t, np.eye(n)[list(perm)] / n)
            for perm in itertools.permutations(range(n))
        )
        assert res.value <= best + 1e-3


def test_gw_objective_value_consistency():
    rng = np.random.default_rng(7)
    d_s = random_distance_matrix(rng, 4)
    d_t = random_distance_matrix(rng, 4)
    res = gromov_wasserstein_distances(d_s, d_t, epsilon=0.05)
    assert res.value == pytest.approx(gw_objective(d_s, d_t, res.plan.matrix), abs=1e-12)
    assert res.monotone


def test_gw_between_graphs_and_degenerate_none():
    rng = np.random.default_rng(8)
    gs = random_graph(rng, 3)
    gt = random_graph(rng, 4)
    res = gromov_wasserstein(gs, gt, epsilon=0.05)
    assert res is not None and res.value >= 0
    single = random_graph(rng, 2).subgraph(["L0"])
    assert gromov_wasserstein(single, gt) is None


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 6))
def test_gw_value_nonnegative_and_restarts_never_hurt(seed, n):
    rng = np.random.default_rng(seed)
    d_s = random_distance_matrix(rng, n)
    d_t = random_distance_matrix(rng, n)
    plain = gromov_wasserstein_distances(d_s, d_t, epsilon=0.05)
    multi = gromov_wasserstein_distances(d_s, d_t, epsilon=0.05, restarts=2)
    assert plain.value >= 0.0
    assert multi.value <= plain.value + 1e-12


def test_gw_restarts_deterministic():
    rng = np.random.default_rng(13)
    d_s = random_distance_matrix(rng, 4)
    d_t = random_distance_matrix(rng, 4)
    a = gromov_wasserstein_distances(d_s, d_t, epsilon=1e-3, restarts=3)
    b = gromov_wasserstein_distances(d_s, d_t, epsilon=1e-3, restarts=3)
    assert a.value == b.value
    np.testing.assert_array_equal(a.plan.matrix, b.plan.matrix)


# -- fixed-plan loss --------------------------------------------------------------


def test_fixed_plan_loss_zero_at_identical():
    rng = np.random.default_rng(9)
    d = random_distance_matrix(rng, 3)
    plan = np.eye(3) / 3.0
    loss = gw_fixed_plan_loss(Tensor(d), d, plan)
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_fixed_plan_loss_matches_objective():
    rng = np.random.default_rng(10)
    d_s = random_distance_matrix(rng, 3)
    d_t = random_distance_matrix(rng, 4)
    plan = rng.dirichlet(np.ones(12)).reshape(3, 4)
    loss = gw_fixed_plan_loss(Tensor(d_t), d_s, plan)
    assert loss.item() == pytest.approx(gw_objective(d_s, d_t, plan), abs=1e-12)


def test_fixed_plan_loss_gradient_finite_difference():
    rng = np.random.default_rng(11)
    d_s = random_distance_matrix(rng, 3)
    d_t = Tensor(random_distance_matrix(rng, 3) + 0.05, requires_grad=True)
    plan = rng.dirichlet(np.ones(9)).reshape(3, 3)
    gw_fixed_plan_loss(d_t, d_s, plan).backward()
    grad = d_t.grad.copy()
    step = 1e-6
    for idx in [(0, 1), (2, 0), (1, 1)]:
        base = d_t.data.copy()
        plus = base.copy()
        plus[idx] += step
        minus = base.copy()
        minus[idx] -= step
        fd = (
            gw_fixed_plan_loss(Tensor(plus), d_s, plan).item()
            - gw_fixed_plan_loss(Tensor(minus), d_s, plan).item()
        ) / (2 * step)
        assert grad[idx] == pytest.approx(fd, abs=1e-5)


def test_fixed_plan_loss_upstream_scaling():
    rng = np.random.default_rng(12)
    d_s = random_distance_matrix(rng, 3)
    d_t = Tensor(random_distance_matrix(rng, 3) + 0.05, requires_grad=True)
    plan = np.full((3, 3), 1.0 / 9.0)
    (gw_fixed_plan_loss(d_t, d_s, plan) * 2.5).backward()
    doubled = d_t.grad.copy()
    d_t.grad = None
    gw_fixed_plan_loss(d_t, d_s, plan).backward()
    np.testing.assert_allclose(doubled, 2.5 * d_t.grad, atol=1e-12)


# -- export ------------------------------------------------------------------------


def test_plan_to_csv_format():
    plan = np.array([[0.5, 0.0], [0.1234567, 0.3765433]])
    text = plan_to_csv(["S1", "S2"], ["T1", "T2"], plan)
    lines = text.splitlines()
    assert lines[0] == ",T1,T2"
    assert lines[1] == "S1,0.500000,0.000000"
    assert lines[2] == "S2,0.123457,0.376543"
