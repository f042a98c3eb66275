"""Autodiff engine: forward values, finite-difference gradients, error paths."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_ops as ref
from labeltransfer import autodiff as ad
from labeltransfer.autodiff import InputError, NumericError, ShapeError, Tensor, grad_check


def rand(rng, *shape):
    return Tensor(rng.uniform(-2, 2, size=shape), requires_grad=True)


# -- forward values ------------------------------------------------------


def test_matmul_identity_and_zero():
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    eye = Tensor(np.eye(2))
    np.testing.assert_array_equal(ad.matmul(eye, m).data, m.data)
    zero = Tensor([[0.0], [0.0]])
    np.testing.assert_array_equal(ad.matmul(m, zero).data, [[0.0], [0.0]])


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_softmax_rows_symmetry_and_temperature():
    out = ad.softmax_rows(Tensor([[0.0, 0.0]]), temperature=3.0)
    np.testing.assert_allclose(out.data, [[0.5, 0.5]])
    out = ad.softmax_rows(Tensor([[2.0, 0.0]]), temperature=4.0)
    np.testing.assert_allclose(out.data, [[0.6225, 0.3775]], atol=1e-4)


def test_softmax_rows_no_overflow():
    out = ad.softmax_rows(Tensor([[1000.0, 1000.0, 1000.0]]))
    np.testing.assert_allclose(out.data, [[1 / 3] * 3])
    assert np.all(np.isfinite(out.data))


def test_softmax_rows_rejects_nonfinite():
    with pytest.raises(NumericError):
        ad.softmax_rows(Tensor([[np.inf, 0.0]]))


def test_softmax_rows_rejects_bad_temperature():
    with pytest.raises(ValueError):
        ad.softmax_rows(Tensor([[1.0, 2.0]]), temperature=0.0)


@pytest.mark.parametrize("temperature", [np.nan, -np.inf, -1.0])
def test_softmax_rows_rejects_a_nan_or_negative_temperature_by_name(temperature):
    with pytest.raises(InputError, match="temperature"):
        ad.softmax_rows(Tensor([[1.0, 2.0]]), temperature=temperature)


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=6), st.floats(0.5, 8))
def test_softmax_rows_sum_and_shift_invariance(row, temperature):
    base = ad.softmax_rows(Tensor([row]), temperature=temperature).data
    assert abs(base.sum() - 1.0) < 1e-12
    shifted = ad.softmax_rows(Tensor([[x + 17.0 for x in row]]), temperature=temperature).data
    np.testing.assert_allclose(base, shifted, atol=1e-12)


def test_l2_distance_cases():
    assert ad.l2_distance([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert ad.l2_distance([0.0, 0.0], [3.0, 4.0]) == pytest.approx(5.0)
    with pytest.raises(ShapeError):
        ad.l2_distance([1.0], [1.0, 2.0])


@given(st.lists(st.floats(-10, 10), min_size=1, max_size=5))
def test_l2_distance_symmetry(vec):
    other = [v + 1.5 for v in vec]
    assert ad.l2_distance(vec, other) == pytest.approx(ad.l2_distance(other, vec))


def test_shift_rows_values():
    a = Tensor(np.arange(6.0).reshape(3, 2))
    down = ref.shift_rows(a, 1)
    np.testing.assert_array_equal(down.data, [[0, 0], [0, 1], [2, 3]])
    up = ref.shift_rows(a, -1)
    np.testing.assert_array_equal(up.data, [[2, 3], [4, 5], [0, 0]])


def test_shift_rows_keep_zeroes_masked_rows():
    a = Tensor(np.arange(8.0).reshape(4, 2))
    keep = np.array([True, True, False, True])
    down = ref.shift_rows(a, 1, keep)
    np.testing.assert_array_equal(down.data, [[0, 0], [0, 1], [0, 0], [4, 5]])
    up = ref.shift_rows(a, -1, keep)
    np.testing.assert_array_equal(up.data, [[2, 3], [4, 5], [0, 0], [0, 0]])
    with pytest.raises(ShapeError):
        ref.shift_rows(a, 1, np.ones(3, dtype=bool))


def test_logsumexp_cols_matches_numpy():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 5))
    groups = [[0, 2], [1, 3, 4]]
    out = ad.logsumexp_cols(Tensor(a), groups).data
    for gi, cols in enumerate(groups):
        expect = np.log(np.exp(a[:, cols]).sum(axis=1))
        np.testing.assert_allclose(out[:, gi], expect, atol=1e-12)


def test_pairwise_l2_matches_direct():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(5, 3))
    d = ad.pairwise_l2(Tensor(a)).data
    for i in range(5):
        for j in range(5):
            assert d[i, j] == pytest.approx(np.linalg.norm(a[i] - a[j]))


def test_backward_requires_scalar():
    t = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError):
        (t * 2.0).backward()


def test_no_grad_records_no_tape_and_restores_after_error():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    with ad.no_grad():
        out = ad.matmul(w, w) * 2.0
    assert out._parents == () and out._backward is None and not out.requires_grad
    np.testing.assert_array_equal(out.data, np.full((2, 2), 4.0))
    with pytest.raises(ShapeError):
        with ad.no_grad():
            ad.matmul(w, Tensor(np.ones(3)))
    tracked = ad.matmul(w, w).sum()
    assert tracked._parents and tracked.requires_grad
    tracked.backward()
    np.testing.assert_array_equal(w.grad, np.full((2, 2), 4.0))


def _tape(out: Tensor) -> list[Tensor]:
    """Every tensor reachable from ``out`` through the recorded parents."""
    seen, stack = {}, [out]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


def test_backward_frees_the_tape_and_keeps_leaf_grads():
    rng = np.random.default_rng(4)
    a0, b0 = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))

    def build(a, b):
        y = ad.matmul(a, b)  # used twice: its grad must gather both uses first
        return (y * y).sum() + (ad.relu(y) * 3.0).sum()

    a, b = Tensor(a0.copy(), requires_grad=True), Tensor(b0.copy(), requires_grad=True)
    out = build(a, b)
    tape = _tape(out)
    inner = [t for t in tape if t._backward is not None]
    assert len(inner) > 5
    out.backward()
    for node in inner:
        assert node.grad is None and node._parents == () and node._backward is None
    # leaves keep grads equal to a separately built graph's, and to the closed form
    a2, b2 = Tensor(a0.copy(), requires_grad=True), Tensor(b0.copy(), requires_grad=True)
    build(a2, b2).backward()
    np.testing.assert_array_equal(a.grad, a2.grad)
    np.testing.assert_array_equal(b.grad, b2.grad)
    y = a0 @ b0
    g = 2.0 * y + 3.0 * (y > 0)
    np.testing.assert_allclose(a.grad, g @ b0.T, atol=1e-12)
    np.testing.assert_allclose(b.grad, a0.T @ g, atol=1e-12)
    assert out.item() == pytest.approx(float((y * y).sum() + 3.0 * np.maximum(y, 0).sum()))


def test_determinism():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4))
    r1 = ad.softmax_rows(Tensor(a)).data
    r2 = ad.softmax_rows(Tensor(a)).data
    assert np.array_equal(r1, r2)


# -- gradient checks ------------------------------------------------------


def test_grad_check_sum_of_squares_exact():
    x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
    report = grad_check(lambda: (x * x).sum(), [x])
    assert report.passed and report.max_rel_err < 1e-8


def test_grad_check_constant_zero_gradient():
    x = Tensor([1.0, 2.0], requires_grad=True)
    report = grad_check(lambda: Tensor(5.0) + 0.0 * x.sum(), [x])
    assert report.passed


@pytest.mark.parametrize("seed", range(3))
def test_grad_elementwise_ops(seed):
    rng = np.random.default_rng(seed)
    a, b = rand(rng, 3, 4), rand(rng, 3, 4)
    c = rand(rng, 1, 4)  # broadcast operand
    # keep divisors away from zero
    b.data += np.where(b.data >= 0, 1.0, -1.0) * 0.5

    def f():
        return ((a + b) * a - a / b + c * a).sum()

    assert grad_check(f, [a, b, c]).passed


@pytest.mark.parametrize("seed", range(3))
def test_grad_matmul_transpose(seed):
    rng = np.random.default_rng(10 + seed)
    a, b = rand(rng, 3, 4), rand(rng, 4, 2)

    def f():
        return ad.matmul(ad.transpose(ad.matmul(a, b)), a).sum()

    assert grad_check(f, [a, b]).passed


def test_grad_relu_softplus():
    rng = np.random.default_rng(20)
    a = rand(rng, 4, 3)
    a.data += np.where(a.data >= 0, 0.1, -0.1)  # stay off the relu kink

    def f():
        return (ad.relu(a) + ad.softplus(a)).sum()

    assert grad_check(f, [a]).passed


def test_grad_softmax_and_log_softmax():
    rng = np.random.default_rng(21)
    a = rand(rng, 3, 5)
    w = Tensor(rng.normal(size=(3, 5)))

    def f():
        return (ad.softmax_rows(a, temperature=2.5) * w).sum() + (
            ref.log_softmax_rows(a) * w
        ).sum()

    assert grad_check(f, [a]).passed


def test_grad_pick_and_rows_select():
    rng = np.random.default_rng(22)
    a = rand(rng, 5, 4)
    ids = np.array([0, 2, 1, 1, 3])
    sel = np.array([1, 1, 4, 0])  # duplicates accumulate

    def f():
        return ref.pick(a, ids).sum() + (ad.rows_select(a, sel) * 2.0).sum()

    assert grad_check(f, [a]).passed


def test_rows_select_out_of_range():
    with pytest.raises(ShapeError):
        ad.rows_select(Tensor(np.ones((2, 2))), [0, 2])


def test_rows_select_empty_ids_and_range_bounds():
    rng = np.random.default_rng(28)
    a = rand(rng, 3, 2)
    empty = ad.rows_select(a, np.array([], dtype=np.intp))
    assert empty.data.shape == (0, 2)
    (empty.sum() + (a * 1.0).sum()).backward()  # the empty gather adds nothing
    np.testing.assert_array_equal(a.grad, np.ones((3, 2)))
    np.testing.assert_array_equal(ad.rows_select(a, [0, 2]).data, a.data[[0, 2]])
    for bad in ([-1], [0, 3], [2, -1]):
        with pytest.raises(ShapeError):
            ad.rows_select(a, bad)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_rows_select_scatter_equals_rowwise_add_at(seed):
    """The flat scatter adds each element's entries in id order, as the row-wise one does."""
    rng = np.random.default_rng(seed)
    n_rows, d = rng.integers(1, 6), rng.integers(1, 4)
    ids = rng.integers(0, n_rows, size=rng.integers(0, 12))  # duplicates accumulate
    g = rng.normal(size=(len(ids), d)) * 10.0 ** rng.uniform(-8, 8, size=(len(ids), 1))
    start = rng.normal(size=(n_rows, d))
    want = start.copy()
    np.add.at(want, ids, g)
    for grad in (start.copy(), np.asfortranarray(start)):  # the flat and the row-wise path
        a = Tensor(np.zeros((n_rows, d)), requires_grad=True)
        a.grad = grad
        (ad.rows_select(a, ids) * Tensor(g)).sum().backward()
        assert a.grad is grad and a.grad.tobytes() == want.tobytes()


def _label_fusion_inputs(rng, d=3, d_p=2, n_types=3):
    """A batch of two sentences (lengths 2 and 1) and every label_fusion parameter."""
    shapes = [(d, d_p), (1, d_p), (n_types, d_p), (d_p, d_p), (d_p, d_p), (d_p, d), (1, d)]
    blocks = [rand(rng, *shape) for shape in shapes]
    return rand(rng, 3, d), blocks, np.full((n_types, n_types), 1.0 / n_types), [2, 1]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fused_ops_reject_non_finite_input(bad):
    rng = np.random.default_rng(29)
    logits = rand(rng, 3, 4)
    logits.data[1, 2] = bad
    with pytest.raises(NumericError):
        ad.cross_entropy_rows(logits, [0, 1, 2])
    with pytest.raises(NumericError):
        ad.softmax_rows(logits)
    # a label representation reaches the label scores, gcn_w2 only the token scores
    for block, message in ((2, "label scores"), (4, "token scores")):
        h, blocks, a_hat, lengths = _label_fusion_inputs(rng)
        blocks[block].data[0, 0] = bad
        with np.errstate(all="ignore"), pytest.raises(NumericError, match=message):
            ad.label_fusion(h, *blocks, a_hat, lengths)


def test_grad_shift_and_concat():
    rng = np.random.default_rng(23)
    a, b = rand(rng, 3, 2), rand(rng, 2, 2)
    w = Tensor(rng.normal(size=(5, 2)))

    def f():
        cat = ad.concat_rows([ref.shift_rows(a, 1), ref.shift_rows(b, -1)])
        return (cat * w).sum()

    assert grad_check(f, [a, b]).passed


def test_grad_logsumexp_cols():
    rng = np.random.default_rng(24)
    a = rand(rng, 4, 5)
    w = Tensor(rng.normal(size=(4, 2)))

    def f():
        return (ad.logsumexp_cols(a, [[0, 2], [1, 3, 4]]) * w).sum()

    assert grad_check(f, [a]).passed


def test_grad_pairwise_l2():
    rng = np.random.default_rng(25)
    a = rand(rng, 4, 3)
    w = Tensor(np.abs(rng.normal(size=(4, 4))))

    def f():
        return (ad.pairwise_l2(a) * w).sum()

    assert grad_check(f, [a]).passed


def test_grad_sum_axes_and_mean():
    rng = np.random.default_rng(26)
    a = rand(rng, 3, 4)

    def f():
        return a.sum(axis=0, keepdims=True).sum() + a.sum(axis=1).sum() + a.mean() * 3.0

    assert grad_check(f, [a]).passed


def test_grad_shift_rows_with_keep_mask():
    rng = np.random.default_rng(27)
    a = rand(rng, 6, 3)
    w = Tensor(rng.normal(size=(6, 3)))
    keep = np.array([True, False, True, True, False, True])

    def f():
        return ((ref.shift_rows(a, 1, keep) + ref.shift_rows(a, -1, keep)) * w).sum()

    assert grad_check(f, [a]).passed
    a.grad = None
    f().backward()
    # a row reaches only the kept rows it is shifted into
    np.testing.assert_array_equal(a.grad[2], w.data[3])
    np.testing.assert_array_equal(a.grad[0], np.zeros(3))
    np.testing.assert_array_equal(a.grad[5], np.zeros(3))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_grad_random_composite(seed):
    rng = np.random.default_rng(seed)
    a, b = rand(rng, 2, 3), rand(rng, 3, 3)

    def f():
        z = ad.matmul(a, b)
        return (ad.softmax_rows(z) * ad.relu(z)).sum()

    assert grad_check(f, [a, b]).passed


# -- fused ops: equal to the op-by-op composition they replace ------------------


def _leaf_grads(out: Tensor, leaves: list[Tensor]) -> list[np.ndarray]:
    for t in leaves:
        t.grad = None
    out.backward()
    grads = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in leaves]
    for t in leaves:
        t.grad = None
    return grads


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 9), st.integers(2, 6))
@example(0, 1, 3)  # one row
def test_cross_entropy_rows_equals_log_softmax_pick_composition(seed, n, k):
    rng = np.random.default_rng(seed)
    a = Tensor(rng.normal(scale=3.0, size=(n, k)), requires_grad=True)
    ids = rng.integers(0, k, size=n)
    w = Tensor(rng.normal(size=(n, k)))

    # a second consumer of `a` and a scale on the loss: g reaching the op is not 1
    def fused():
        return 0.7 * ad.cross_entropy_rows(a, ids) + (a * w).sum()

    def composed():
        return 0.7 * (-ref.pick(ref.log_softmax_rows(a), ids).sum() / float(n)) + (a * w).sum()

    assert ad.cross_entropy_rows(a, ids).data.tobytes() == (
        -ref.pick(ref.log_softmax_rows(a), ids).sum() / float(n)).data.tobytes()
    got, want = _leaf_grads(fused(), [a]), _leaf_grads(composed(), [a])
    np.testing.assert_allclose(got[0], want[0], rtol=0, atol=1e-12)
    assert grad_check(fused, [a]).passed


def test_cross_entropy_rows_errors():
    with pytest.raises(ShapeError):
        ad.cross_entropy_rows(Tensor(np.zeros((2, 3))), [0])
    with pytest.raises(NumericError):
        ad.cross_entropy_rows(Tensor([[np.nan, 0.0]]), [0])


def test_cross_entropy_rows_rejects_ids_outside_the_columns():
    logits = Tensor(np.zeros((2, 3)))
    assert ad.cross_entropy_rows(logits, [0, 2]).item() == pytest.approx(np.log(3.0))
    for bad in ([-1, 0], [0, 3]):  # -1 would otherwise score column 2
        with pytest.raises(InputError, match="tag set"):
            ad.cross_entropy_rows(logits, bad)


def _window_composition(e, left, center, right, bias, keep_prev, keep_next):
    mixed = (
        ad.matmul(ref.shift_rows(e, 1, keep_prev), left)
        + ad.matmul(e, center)
        + ad.matmul(ref.shift_rows(e, -1, keep_next), right)
        + bias
    )
    return e + ad.relu(mixed)


def _implied_masks(offsets):
    """The keep masks that row offsets imply: no window reaches across a sentence boundary."""
    keep_prev = np.ones(offsets[-1], dtype=bool)
    keep_next = keep_prev.copy()
    keep_prev[offsets[:-1]] = False
    keep_next[offsets[1:] - 1] = False
    return keep_prev, keep_next


@pytest.mark.parametrize("lengths", [[1], [5], [3, 1, 4], [2, 2], [1, 1, 1]])
@pytest.mark.parametrize("split", [True, False])
def test_window_mix_equals_shift_matmul_relu_composition(lengths, split):
    """With ``split`` the rows are the sentences of ``lengths``; without it, one sentence."""
    rng = np.random.default_rng(sum(lengths) + 10 * split)
    d = 3
    embed = rand(rng, 6, d)
    left, center, right, bias = rand(rng, d, d), rand(rng, d, d), rand(rng, d, d), rand(rng, 1, d)
    ids = rng.integers(0, 6, size=sum(lengths))  # duplicates accumulate in embed
    offsets = np.cumsum([0] + lengths) if split else np.array([0, sum(lengths)])
    keep_prev, keep_next = _implied_masks(offsets)
    w = Tensor(rng.normal(size=(len(ids), d)))
    leaves = [embed, left, center, right, bias]

    def fused():
        e = ad.rows_select(embed, ids)
        return (ad.window_mix(e, left, center, right, bias, offsets) * w).sum()

    def composed():
        e = ad.rows_select(embed, ids)
        return (_window_composition(e, left, center, right, bias, keep_prev, keep_next) * w).sum()

    e = Tensor(embed.data[ids])
    np.testing.assert_array_equal(
        ad.window_mix(e, left, center, right, bias, offsets).data,
        _window_composition(e, left, center, right, bias, keep_prev, keep_next).data)
    # the fused backward adds e's three row gradients in another order than the tape
    for got, want in zip(_leaf_grads(fused(), leaves), _leaf_grads(composed(), leaves)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    report = grad_check(fused, leaves)
    assert report.passed, f"max rel err {report.max_rel_err}"


def test_window_mix_rejects_bad_shapes():
    rng = np.random.default_rng(5)
    e, sq, bias = rand(rng, 4, 3), rand(rng, 3, 3), rand(rng, 1, 3)
    with pytest.raises(ShapeError):
        ad.window_mix(e, sq, sq, rand(rng, 3, 2), bias, [0, 4])
    with pytest.raises(ShapeError):
        ad.window_mix(e, sq, sq, sq, rand(rng, 1, 2), [0, 4])
    # not from 0, not to n, an empty sentence, out of order, too few, not a vector
    for offsets in ([1, 4], [0, 3], [0, 5], [0, 2, 2, 4], [0, 3, 2, 4], [0], [], [[0, 4]]):
        with pytest.raises(ShapeError):
            ad.window_mix(e, sq, sq, sq, bias, offsets)


# -- gradient accumulation and backward order ---------------------------------------


def test_accum_rejects_a_gradient_of_the_wrong_shape():
    a = Tensor(np.ones((3, 2)), requires_grad=True)

    def backward(g):
        a._accum(g.sum(axis=0, keepdims=True))  # (1, 2) for a (3, 2) parent

    out = Tensor._make(a.data * 2.0, (a,), backward)
    with pytest.raises(ShapeError):
        out.sum().backward()


def test_first_gradient_is_copied_when_one_array_reaches_two_parents():
    rng = np.random.default_rng(6)
    a, b = rand(rng, 2, 3), rand(rng, 2, 3)
    w = rng.normal(size=(2, 3))

    def backward(g):
        a._accum(g)  # the same array to both parents
        b._accum(g)

    later = (a * 3.0).sum() + (b * b).sum()  # made first, so these closures run last
    shared = Tensor._make(a.data + b.data, (a, b), backward)
    ((shared * Tensor(w)).sum() + later).backward()
    assert a.grad is not b.grad
    np.testing.assert_allclose(a.grad, w + 3.0, rtol=0, atol=1e-15)
    np.testing.assert_allclose(b.grad, w + 2.0 * b.data, rtol=0, atol=1e-15)


def test_rows_select_scatters_into_an_existing_gradient():
    a = Tensor(np.zeros((4, 2)), requires_grad=True)
    w = np.arange(8.0).reshape(4, 2)
    picked = (ad.rows_select(a, [3, 1, 3]) * 2.0).sum()  # made first, runs last
    (picked + (a * Tensor(w)).sum()).backward()
    np.testing.assert_array_equal(a.grad, w + 2.0 * np.array([[0], [1], [0], [2]]))


def _dfs_order_backward(out: Tensor) -> list[Tensor]:
    """Run ``out``'s closures in the order of a two-pass depth-first search
    (post-order, reversed), the other topological order; returns that order."""
    topo, seen, stack = [], set(), [(out, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
        elif node not in seen and node._backward is not None:
            seen.add(node)
            stack.append((node, True))
            stack.extend((p, False) for p in node._parents)
    out._accum(np.ones_like(out.data))
    for node in reversed(topo):
        node._backward(node.grad)
    return topo[::-1]


def test_backward_in_creation_order_equals_depth_first_order():
    rng = np.random.default_rng(7)
    x0, w0 = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))

    def build(x, w):
        y = ad.matmul(x, w)     # made first; reached by three paths
        z = ad.relu(y) * 2.0    # made before s, listed before it below
        s = ad.softmax_rows(y)
        t = ad.matmul(s, y) + z
        return (t * z).sum() + ref.log_softmax_rows(y).sum()

    x, w = Tensor(x0.copy(), requires_grad=True), Tensor(w0.copy(), requires_grad=True)
    build(x, w).backward()

    x2, w2 = Tensor(x0.copy(), requires_grad=True), Tensor(w0.copy(), requires_grad=True)
    depth_first = _dfs_order_backward(build(x2, w2))
    # the two orders really differ on this graph
    assert depth_first != sorted(depth_first, key=lambda t: t._order, reverse=True)
    np.testing.assert_allclose(x.grad, x2.grad, rtol=0, atol=1e-15)
    np.testing.assert_allclose(w.grad, w2.grad, rtol=0, atol=1e-15)
