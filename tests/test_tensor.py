"""Finite-difference checks for every op in the differentiable core."""

import numpy as np
import pytest

from lenvae.numerics import (
    ParamStore, Tensor, add, add_scalar, affine, concat_cols,
    cross_entropy_rows, exp_, gather_rows, grad_check, log_softmax_rows,
    matmul, mul, mul_const, neg, sampled_logits, scale, sigmoid, slice_cols,
    slice_rows, sub, sum_all, sum_cols, tanh_, weighted_cross_entropy_rows,
    weighted_step_sum,
)


def fd_check(build, n_params, shapes, seed=0, tol=1e-7):
    """Wire random leaves into ``build`` and compare backward vs central FD."""
    rng = np.random.default_rng(seed)
    store = ParamStore()
    for i, shape in enumerate(shapes):
        store.add(f"p{i}", rng.standard_normal(shape))

    def loss_fn(params):
        return build(*[params[f"p{i}"] for i in range(n_params)])

    err = grad_check(loss_fn, store, eps=1e-6)
    assert err < tol, f"finite-difference mismatch: {err}"


def test_matmul():
    fd_check(lambda a, b: sum_all(matmul(a, b)), 2, [(3, 4), (4, 5)])


def test_add_broadcast_bias():
    fd_check(lambda a, b: sum_all(mul(add(a, b), add(a, b))), 2, [(3, 4), (4,)])


def test_sub():
    fd_check(lambda a, b: sum_all(mul(sub(a, b), sub(a, b))), 2, [(3, 4), (3, 4)])


def test_mul_shared_operand():
    # same tensor on both sides must accumulate both contributions
    fd_check(lambda a: sum_all(mul(a, a)), 1, [(3, 4)])


def test_neg_scale_add_scalar():
    fd_check(lambda a: sum_all(add_scalar(scale(neg(a), 2.5), 1.0)), 1, [(4, 2)])


def test_mul_const():
    mask = np.array([[1.0, 0.0, 2.0]])
    fd_check(lambda a: sum_all(mul_const(a, mask)), 1, [(2, 3)])


@pytest.mark.parametrize("op", [sigmoid, tanh_, exp_])
def test_pointwise_nonlinearities(op):
    fd_check(lambda a: sum_all(mul(op(a), op(a))), 1, [(3, 5)])


def test_concat_and_slice():
    def build(a, b):
        cat = concat_cols([a, b])
        return sum_all(mul(slice_cols(cat, 1, 4), slice_cols(cat, 2, 5)))
    fd_check(build, 2, [(3, 3), (3, 4)])


def test_gather_rows_repeated_indices():
    idx = np.array([0, 2, 2, 1])

    def build(table):
        g = gather_rows(table, idx)
        return sum_all(mul(g, g))
    fd_check(build, 1, [(4, 3)])


def test_sum_cols():
    fd_check(lambda a: sum_all(mul(sum_cols(a), sum_cols(a))), 1, [(4, 3)])


def test_affine():
    fd_check(lambda x, w, b: sum_all(tanh_(affine(x, w, b))), 3, [(2, 3), (3, 4), (4,)])


def test_cross_entropy_rows():
    targets = np.array([1, 3, 0])
    weights = np.array([1.0, 0.5, 0.0])  # zero weight must kill that row's grad
    fd_check(lambda lg: cross_entropy_rows(lg, targets, weights), 1, [(3, 5)])


def test_weighted_cross_entropy_rows():
    counts = np.array([[2.0, 0, 1, 0, 0], [0, 0, 0, 0, 0], [1, 1, 1, 0, 3]])
    fd_check(lambda lg: weighted_cross_entropy_rows(lg, counts), 1, [(3, 5)])


def test_sampled_logits():
    ids = np.array([4, 0, 2])  # shared candidate columns, not in id order
    targets = np.array([1, 0])

    def build(h, w, b):
        return cross_entropy_rows(sampled_logits(h, w, b, ids), targets, np.ones(2))
    # seed 1: every nonzero gradient is >= 0.02, well above central-difference noise
    fd_check(build, 3, [(2, 3), (3, 5), (5,)], seed=1)


def test_sampled_logits_matches_full_gather():
    rng = np.random.default_rng(1)
    h = Tensor(rng.standard_normal((2, 3)))
    w = Tensor(rng.standard_normal((3, 6)))
    b = Tensor(rng.standard_normal(6))
    ids = np.array([5, 0, 3])
    got = sampled_logits(h, w, b, ids).data
    full = h.data @ w.data + b.data
    np.testing.assert_allclose(got, full[:, ids], rtol=1e-12)
    with pytest.raises(ValueError, match="1-D"):
        sampled_logits(h, w, b, np.array([[5, 0], [3, 1]]))


def test_backward_requires_scalar():
    t = Tensor(np.ones((2, 2)))
    with pytest.raises(ValueError):
        t.backward()


def test_diamond_reuse_accumulates_once_per_path():
    # y = a*a + a: dy/da = 2a + 1
    store = ParamStore()
    a = store.add("a", np.array([3.0]))
    loss = sum_all(add(mul(a, a), a))
    loss.backward()
    np.testing.assert_allclose(a.grad, [7.0])


def test_log_softmax_rows_matches_softmax():
    rng = np.random.default_rng(2)
    logits = rng.standard_normal((4, 6))
    lp = log_softmax_rows(logits)
    for r in range(4):
        expected = np.exp(logits[r]) / np.exp(logits[r]).sum()
        np.testing.assert_allclose(np.exp(lp[r]), expected, atol=1e-12)
    np.testing.assert_allclose(np.exp(lp).sum(axis=1), np.ones(4), atol=1e-12)


@pytest.mark.parametrize("shape", [(100, 40000), (1, 1), (3, 7), (8, 49), (1400, 49)])
def test_log_softmax_rows_byte_equal_to_three_temporary_formula(shape):
    logits = 4.0 * np.random.default_rng(shape[0]).standard_normal(shape)
    shifted = logits - logits.max(axis=1, keepdims=True)
    expected = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    assert log_softmax_rows(logits).tobytes() == expected.tobytes()


def test_slice_rows():
    # overlapping row blocks of one tensor accumulate into its gradient
    fd_check(lambda a: sum_all(mul(slice_rows(a, 1, 4), slice_rows(a, 0, 3))), 1, [(5, 3)])


def test_weighted_step_sum():
    weights = np.array([[1.0, 0.5], [0.0, 2.0], [3.0, -1.0]])   # (T=3, B=2)
    fd_check(lambda a: sum_all(mul(weighted_step_sum(a, weights),
                                   weighted_step_sum(a, weights))), 1, [(6, 4)])
    a = np.arange(24.0).reshape(6, 4)
    expected = [sum(weights[t, r] * a[t * 2 + r] for t in range(3)) for r in range(2)]
    np.testing.assert_allclose(weighted_step_sum(Tensor(a), weights).data, expected)
