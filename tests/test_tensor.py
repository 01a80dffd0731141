"""Finite-difference checks for every op in the differentiable core, the
backward's memory, and checks that every exported op has a caller and that
only the listed functions write a gradient slot."""

import ast
import importlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lenvae.numerics import (
    ParamStore, Tensor, add, add_scalar, affine, concat_cols,
    cross_entropy_rows, exp_, gather_rows, grad_check, log_softmax_rows,
    matmul, mul, mul_const, neg, sampled_logits, scale, sigmoid, slice_cols,
    sub, sum_all, sum_cols, tanh_, weighted_cross_entropy_rows,
    weighted_step_sum,
)
from lenvae.numerics import tensor
from lenvae.numerics.tensor import BLOCK, _toposort

SRC = Path(tensor.__file__).resolve().parents[1]
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_three_gathers_give_a_sliced_gradient_equal_to_dense_add_at(dtype):
    # one table gathered three times with repeated, overlapping ids, as the
    # embedding is by the encoder's two directions and the decoder input:
    # its gradient equals np.add.at of the three upstream gradients onto
    # zeros, in the order the backward ran them, bit for bit
    rng = np.random.default_rng(12)
    table = Tensor(rng.standard_normal((50, 4)).astype(dtype))
    gathers = [rng.integers(lo, hi, size=30) for lo, hi in ((0, 20), (10, 30), (5, 40))]
    upstream = [rng.standard_normal((30, 4)).astype(dtype) for _ in gathers]
    nodes = [gather_rows(table, idx) for idx in gathers]
    ran = []
    for k, node in enumerate(nodes):
        node._backward = lambda g, bw=node._backward, k=k: (ran.append(k), bw(g))
    loss = sum_all(mul_const(nodes[0], upstream[0]))
    for node, c in zip(nodes[1:], upstream[1:]):
        loss = add(loss, sum_all(mul_const(node, c)))
    loss.backward()

    reference = np.zeros_like(table.data)
    for k in ran:
        np.add.at(reference, gathers[k], upstream[k])
    assert sorted(ran) == [0, 1, 2]
    grad = table.grad
    assert isinstance(grad, tensor.SlicedGrad) and grad.dtype == dtype
    np.testing.assert_array_equal(grad.index, np.unique(np.concatenate(gathers)))
    assert grad.values.shape == (grad.index.size, 4) and grad.index.size < 40
    assert table.dense_grad().tobytes() == reference.tobytes()


def test_sum_cols():
    fd_check(lambda a: sum_all(mul(sum_cols(a), sum_cols(a))), 1, [(4, 3)])


def test_affine():
    fd_check(lambda x, w, b: sum_all(tanh_(affine(x, w, b))), 3, [(2, 3), (3, 4), (4,)])


def test_cross_entropy_rows():
    targets = np.array([1, 3, 0])
    fd_check(lambda lg: cross_entropy_rows(lg, targets), 1, [(3, 5)])


def test_weighted_cross_entropy_rows():
    counts = np.array([[2.0, 0, 1, 0, 0], [0, 0, 0, 0, 0], [1, 1, 1, 0, 3]])
    fd_check(lambda lg: weighted_cross_entropy_rows(lg, counts), 1, [(3, 5)])


@pytest.mark.parametrize("loss_of", [
    lambda lg, t, c: cross_entropy_rows(lg, t),
    lambda lg, t, c: weighted_cross_entropy_rows(lg, c),
], ids=["cross_entropy_rows", "weighted_cross_entropy_rows"])
def test_cross_entropy_backward_holds_one_logit_sized_array(loss_of):
    # the gradient is built in place from the softmax and handed to the
    # leaf as its grad, so the backward allocates at most 1.25x one (N, C)
    # array; a zeroed buffer or a scaled copy beside it would make 2x
    rows, cols = 256, 4096
    rng = np.random.default_rng(4)
    targets = rng.integers(0, cols, rows)
    counts = np.zeros((rows, cols), np.float32)
    counts[np.arange(rows), targets] = 2.0
    logits = Tensor(rng.standard_normal((rows, cols)).astype(np.float32))
    tracemalloc.start()
    try:
        loss = loss_of(logits, targets, counts)
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert logits.grad.dtype == np.float32
    assert peak <= 1.25 * logits.data.nbytes


def test_sampled_logits():
    ids = np.array([0, 2, 4])  # shared candidate columns, a proper subset
    targets = np.array([2, 0])

    def build(h, w, b):
        return cross_entropy_rows(sampled_logits(h, w, b, ids), targets)
    # seed 1: every nonzero gradient is >= 0.02, well above central-difference noise
    fd_check(build, 3, [(2, 3), (3, 5), (5,)], seed=1)


def test_sampled_logits_matches_full_gather():
    rng = np.random.default_rng(1)
    h = Tensor(rng.standard_normal((2, 3)))
    w = Tensor(rng.standard_normal((3, 6)))
    b = Tensor(rng.standard_normal(6))
    ids = np.array([0, 3, 5])
    got = sampled_logits(h, w, b, ids).data
    full = h.data @ w.data + b.data
    np.testing.assert_allclose(got, full[:, ids], rtol=1e-12)
    with pytest.raises(ValueError, match="1-D"):
        sampled_logits(h, w, b, np.array([[0, 1], [3, 5]]))


@pytest.mark.parametrize("ids", [[5, 0, 3], [0, 3, 3, 5], [-1, 0, 3], [0, 3, 6]],
                         ids=["unsorted", "repeated", "negative", "past-the-end"])
def test_sampled_logits_rejects_ids_that_are_not_ascending_distinct_columns(ids):
    # a repeated id would silently lose one of its gradient contributions,
    # and a sliced gradient needs its ids sorted
    rng = np.random.default_rng(1)
    h, w, b = (Tensor(rng.standard_normal(shape)) for shape in ((2, 3), (3, 6), (6,)))
    with pytest.raises(ValueError, match="ascending distinct ids in \\[0, 6\\)"):
        sampled_logits(h, w, b, np.array(ids))


def _sampled_loss(h, w, b, ids=(0, 2, 4)):
    logits = sampled_logits(h, w, b, np.array(ids))
    return cross_entropy_rows(logits, np.array([2, 0]))


def _sampled_leaves(seed, vocab=5):
    rng = np.random.default_rng(seed)
    return (Tensor(rng.standard_normal(shape)) for shape in ((2, 3), (3, vocab), (vocab,)))


def test_sampled_logits_rejects_a_weight_or_bias_that_is_not_a_leaf():
    # its backward makes the whole gradient, so there is nothing to pass on
    h, w, b = _sampled_leaves(1)
    for loss in (_sampled_loss(h, scale(w, 2.0), b), _sampled_loss(h, w, scale(b, 2.0))):
        with pytest.raises(ValueError, match="each must be a leaf that holds no gradient"):
            loss.backward()


def test_sampled_logits_rejects_a_weight_or_bias_that_already_holds_a_gradient():
    h, w, b = _sampled_leaves(1)
    _sampled_loss(h, w, b).backward()
    first = w.dense_grad().copy()
    # a second backward with no zero_grads or adam_step between
    with pytest.raises(ValueError, match="each must be a leaf that holds no gradient"):
        _sampled_loss(h, w, b).backward()
    assert w.dense_grad().tobytes() == first.tobytes()
    w.grad = None
    with pytest.raises(ValueError, match="each must be a leaf that holds no gradient"):
        _sampled_loss(h, w, b).backward()   # only the bias holds one
    # a second use in one graph
    w.grad = b.grad = None
    with pytest.raises(ValueError, match="each must be a leaf that holds no gradient"):
        add(_sampled_loss(h, w, b), _sampled_loss(h, w, b, ids=(0, 1, 2))).backward()


@pytest.mark.parametrize("sampled_first", [True, False], ids=["sampled-first", "gathered-first"])
def test_a_table_both_gathered_and_sampled_raises_in_either_backward_order(sampled_first):
    h, table, b = _sampled_leaves(2, vocab=7)
    sampled = _sampled_loss(h, table, b, ids=(0, 2, 4, 5))
    gathered = sum_all(gather_rows(table, np.array([0, 2])))
    ran = []
    for node, name in ((sampled._parents[0], "sampled"), (gathered._parents[0], "gathered")):
        node._backward = lambda g, bw=node._backward, name=name: (ran.append(name), bw(g))
    loss = add(sampled, gathered) if sampled_first else add(gathered, sampled)
    with pytest.raises(ValueError, match="sampled"):
        loss.backward()
    assert ran == (["sampled", "gathered"] if sampled_first else ["gathered", "sampled"])


@pytest.mark.parametrize("gathered_first", [True, False], ids=["gathered-first", "dense-first"])
def test_a_table_both_gathered_and_reached_by_a_dense_op_raises_in_either_backward_order(
        gathered_first):
    # a table takes one kind of gradient: a row SlicedGrad or a dense array
    rng = np.random.default_rng(6)
    table = Tensor(rng.standard_normal((5, 3)))
    x = Tensor(rng.standard_normal((2, 5)))
    gathered = sum_all(gather_rows(table, np.array([0, 3, 3])))
    dense = sum_all(matmul(x, table))
    ran = []
    for node, name in ((gathered._parents[0], "gathered"), (dense._parents[0], "dense")):
        node._backward = lambda g, bw=node._backward, name=name: (ran.append(name), bw(g))
    loss = add(gathered, dense) if gathered_first else add(dense, gathered)
    with pytest.raises(ValueError, match="one kind of gradient"):
        loss.backward()
    assert ran == (["gathered", "dense"] if gathered_first else ["dense", "gathered"])


@pytest.mark.parametrize("idx", [[0, -1], [4, 0], [[1, 2], [3, 4]]],
                         ids=["negative", "past-the-end", "2-D"])
def test_gather_rows_rejects_ids_outside_the_table(idx):
    # numpy would wrap -1 to the last row, in the forward and the gradient
    table = Tensor(np.arange(12.0).reshape(4, 3))
    with pytest.raises(ValueError, match="ids must lie in \\[0, 4\\)"):
        gather_rows(table, np.array(idx))


def test_one_upstream_gradient_handed_to_two_parents_that_each_accumulate_again():
    # add hands one g to p and q, and mul(p, q) adds a second contribution
    # to each; were p and q to hold the same array, each addition would
    # land in both gradients
    def build(x):
        p, q = scale(x, 2.0), tanh_(x)
        u = add(p, q)
        return sum_all(add(mul(u, u), mul(p, q)))
    fd_check(build, 1, [(3, 4)])


def test_a_tensor_on_both_sides_of_add_sub_and_concat_cols():
    rng = np.random.default_rng(8)
    x = Tensor(rng.standard_normal((3, 4)))
    c = rng.standard_normal((3, 4))
    sum_all(mul_const(add(x, x), c)).backward()
    assert np.array_equal(x.grad, c + c)
    x.grad = None
    sum_all(mul_const(sub(x, x), c)).backward()
    assert np.array_equal(x.grad, np.zeros((3, 4)))
    x.grad = None
    wide = rng.standard_normal((3, 8))
    sum_all(mul_const(concat_cols([x, x]), wide)).backward()
    assert np.array_equal(x.grad, wide[:, :4] + wide[:, 4:])


def test_a_gradient_of_another_shape_is_never_taken_as_a_slot():
    # no op broadcasts a size-1 axis, so add's gradient for it keeps the
    # output's shape; taking it as the (1, 3) value's gradient would be wrong
    a, b = Tensor(np.ones((1, 3))), Tensor(np.ones((2, 3)))
    with pytest.raises(ValueError, match="must have its value's shape \\(1, 3\\)"):
        sum_all(add(a, b)).backward()
    assert a.grad is None


def test_dense_grad_of_a_tensor_with_no_gradient_is_zeros():
    t = Tensor(np.ones((2, 3), np.float32))
    grad = t.dense_grad()
    assert grad.dtype == np.float32 and np.array_equal(grad, np.zeros((2, 3)))


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


def test_backward_leaves_gradients_only_on_the_leaves():
    # loss = sum(h * h), h = tanh(x @ W + b); h is used twice
    rng = np.random.default_rng(3)
    store = ParamStore()
    x = store.add("x", rng.standard_normal((3, 4)))
    w = store.add("w", rng.standard_normal((4, 2)))
    b = store.add("b", rng.standard_normal(2))
    h = tanh_(add(matmul(x, w), b))
    loss = sum_all(mul(h, h))
    loss.backward()
    interior = [node for node in _toposort(loss) if node._backward is not None]
    assert len(interior) == 5
    assert all(node.grad is None for node in interior)

    h_ref = np.tanh(x.data @ w.data + b.data)
    dz = 2.0 * h_ref * (1.0 - h_ref * h_ref)
    np.testing.assert_allclose(x.grad, dz @ w.data.T, rtol=1e-12)
    np.testing.assert_allclose(w.grad, x.data.T @ dz, rtol=1e-12)
    np.testing.assert_allclose(b.grad, dz.sum(axis=0), rtol=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_matmul_backward_equals_products_added_to_zeros(dtype):
    # w_one feeds one matmul, w_two and x1 feed two; every gradient equals
    # the textbook zeros + product (+ product) bit for bit
    rng = np.random.default_rng(7)
    x1, x2 = (Tensor(rng.standard_normal((5, 4)).astype(dtype)) for _ in range(2))
    w_one, w_two = (Tensor(rng.standard_normal((4, 3)).astype(dtype)) for _ in range(2))
    c = rng.standard_normal((5, 3)).astype(dtype)   # the upstream gradient
    y = add(add(matmul(x1, w_one), matmul(x1, w_two)), matmul(x2, w_two))
    sum_all(mul_const(y, c)).backward()

    def zeros_plus(*products):
        total = np.zeros(products[0].shape, dtype)
        for p in products:
            total += p
        return total

    expected = {
        "w_one": (w_one, zeros_plus(x1.data.T @ c)),
        "w_two": (w_two, zeros_plus(x1.data.T @ c, x2.data.T @ c)),
        "x1": (x1, zeros_plus(c @ w_one.data.T, c @ w_two.data.T)),
        "x2": (x2, zeros_plus(c @ w_two.data.T)),
    }
    for name, (leaf, reference) in expected.items():
        assert leaf.grad.dtype == dtype, name
        assert np.array_equal(leaf.grad, reference), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_matmul_backward_gives_a_fresh_leaf_a_c_contiguous_gradient(dtype):
    # x's value is column-major; its gradient is still a C-contiguous array
    # of the value's shape and dtype
    rng = np.random.default_rng(9)
    w = Tensor(rng.standard_normal((4, 3)).astype(dtype))
    x = Tensor(np.asfortranarray(rng.standard_normal((5, 4)).astype(dtype)))
    sum_all(mul_const(matmul(x, w), rng.standard_normal((5, 3)))).backward()
    for leaf in (x, w):
        assert leaf.grad.flags.c_contiguous
        assert leaf.grad.shape == leaf.data.shape and leaf.grad.dtype == dtype


def test_log_softmax_rows_matches_softmax():
    rng = np.random.default_rng(2)
    logits = rng.standard_normal((4, 6))
    lp = log_softmax_rows(logits)
    for r in range(4):
        expected = np.exp(logits[r]) / np.exp(logits[r]).sum()
        np.testing.assert_allclose(np.exp(lp[r]), expected, atol=1e-12)
    np.testing.assert_allclose(np.exp(lp).sum(axis=1), np.ones(4), atol=1e-12)


def assert_log_softmax_rows_byte_equal(logits):
    """A new array, a given one and ``out=logits`` all give the
    three-temporary formula's bytes; without ``out`` the input is kept."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    expected = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    before = logits.copy()
    assert log_softmax_rows(logits).tobytes() == expected.tobytes()
    assert logits.tobytes() == before.tobytes()
    out = np.full_like(logits, 7.0)
    assert log_softmax_rows(logits, out=out) is out
    assert out.tobytes() == expected.tobytes()
    assert log_softmax_rows(logits, out=logits) is logits
    assert logits.tobytes() == expected.tobytes()


# the last shape's rows are longer than one BLOCK
@pytest.mark.parametrize("shape", [(100, 40000), (1, 1), (3, 7), (8, 49), (1400, 49),
                                   (3, BLOCK + 5)])
def test_log_softmax_rows_byte_equal_to_three_temporary_formula(shape):
    assert_log_softmax_rows_byte_equal(4.0 * np.random.default_rng(shape[0]).standard_normal(shape))


def test_log_softmax_rows_byte_equal_with_minus_inf_entries():
    logits = 4.0 * np.random.default_rng(5).standard_normal((6, 300))
    logits[:, :2] = -np.inf           # forbidden columns
    logits[2, 50:250] = -np.inf       # most of one row
    logits[4, :-1] = -np.inf          # all but one entry of a row
    assert_log_softmax_rows_byte_equal(logits)
    assert np.isneginf(log_softmax_rows(logits)[:, :2]).all()


def _logsumexp_reference(x):
    m = x.max(axis=1, keepdims=True)
    return m[:, 0] + np.log(np.exp(x - m).sum(axis=1))


def _softmax_reference(x):
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


# the last shape's rows are longer than one BLOCK; x50 logits make
# near-one-hot rows
@pytest.mark.parametrize("scale_by", [1.0, 50.0])
@pytest.mark.parametrize("shape", [(1, 1), (16, 49), (16, 1016), (3, BLOCK + 5)])
def test_cross_entropy_ops_are_log_softmax_rows(shape, scale_by):
    # values: bit for bit the weighted sums of log_softmax_rows; values and
    # gradients: within 1e-14 of the logsumexp and separate-softmax formulas
    rng = np.random.default_rng(shape[1])
    x = scale_by * rng.standard_normal(shape)
    rows = np.arange(shape[0])
    targets = rng.integers(0, shape[1], shape[0])
    counts = rng.integers(0, 3, shape) * (rng.random(shape) < 0.05)
    counts[:, 0] += 1  # every row has a word
    lp = log_softmax_rows(x)
    n = counts.sum(axis=1)

    logits = Tensor(x.copy())
    ce = cross_entropy_rows(logits, targets)
    ce.backward()
    assert ce.data.tobytes() == np.asarray(-lp[rows, targets].sum()).tobytes()
    old = (_logsumexp_reference(x) - x[rows, targets]).sum()
    np.testing.assert_allclose(ce.data, old, rtol=1e-14)
    old_grad = _softmax_reference(x)
    old_grad[rows, targets] -= 1.0
    np.testing.assert_allclose(logits.grad, old_grad, rtol=0,
                               atol=1e-14 * np.abs(old_grad).max())

    logits = Tensor(x.copy())
    bow = weighted_cross_entropy_rows(logits, counts)
    bow.backward()
    assert bow.data.tobytes() == np.asarray(-(counts * lp).sum()).tobytes()
    old = (n * _logsumexp_reference(x)).sum() - (counts * x).sum()
    np.testing.assert_allclose(bow.data, old, rtol=1e-14)
    old_grad = _softmax_reference(x) * n[:, None] - counts
    np.testing.assert_allclose(logits.grad, old_grad, rtol=0,
                               atol=1e-14 * np.abs(old_grad).max())


def test_weighted_step_sum():
    weights = np.array([[1.0, 0.5], [0.0, 2.0], [3.0, -1.0]])   # (T=3, B=2)
    fd_check(lambda a: sum_all(mul(weighted_step_sum(a, weights),
                                   weighted_step_sum(a, weights))), 1, [(6, 4)])
    a = np.arange(24.0).reshape(6, 4)
    expected = [sum(weights[t, r] * a[t * 2 + r] for t in range(3)) for r in range(2)]
    np.testing.assert_allclose(weighted_step_sum(Tensor(a), weights).data, expected)


# exported ops that only the benchmark's tracer (``perfbench/tracing.OPS``)
# still names; each goes once the tracer stops naming it
KEPT_FOR_TRACER = {"neg", "sigmoid", "slice_cols"}


def _referenced_names():
    """Every name that code under src/ uses as a name, reads as an
    attribute or imports. ``__init__.py`` imports re-export and ``__all__`` holds
    strings, so neither export list counts; nor does prose, which a text
    search would match."""
    names = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
                names.update(alias.name for alias in node.names)
    return names


def test_every_exported_op_has_a_caller(monkeypatch):
    referenced = _referenced_names()
    unused = {name for name in tensor.__all__ if name not in referenced}
    assert unused == KEPT_FOR_TRACER
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    assert KEPT_FOR_TRACER <= set(tracing.OPS)


# every function under src/ that assigns a gradient slot, by file and
# qualified name; every other op hands its gradients to ``_accum``
GRAD_WRITERS = {
    ("numerics/tensor.py", "Tensor.__init__"),
    ("numerics/tensor.py", "Tensor.backward"),
    ("numerics/tensor.py", "_accum"),
    ("numerics/tensor.py", "_sliced_rows"),
    # an interior table's zeros: its rows are added into the gradient in
    # place, since z already holds one when the decoder's gather of it runs
    # its backward, and a scatter handed to ``_accum`` sums in another order
    ("numerics/tensor.py", "gather_rows.bw"),
    ("numerics/tensor.py", "sampled_logits.bw"),
    ("numerics/params.py", "ParamStore.zero_grads"),
}


def _writes_grad(target):
    """Whether an assignment target is ``x.grad``, or a subscript or an
    attribute of it, or holds one in a tuple."""
    if isinstance(target, (ast.Tuple, ast.List)):
        return any(_writes_grad(t) for t in target.elts)
    while isinstance(target, (ast.Subscript, ast.Attribute)):
        if isinstance(target, ast.Attribute) and target.attr == "grad":
            return True
        target = target.value
    return False


def _grad_writers():
    """(file, qualified function name) of every assignment, augmented or
    annotated, that writes a gradient slot in code under src/."""
    found = set()

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, path, scope + (child.name,))
                continue
            targets = (child.targets if isinstance(child, ast.Assign)
                       else [child.target] if isinstance(child, (ast.AugAssign, ast.AnnAssign))
                       else [])
            if any(_writes_grad(t) for t in targets):
                found.add((path, ".".join(scope)))
            visit(child, path, scope)

    for path in SRC.rglob("*.py"):
        visit(ast.parse(path.read_text()), path.relative_to(SRC).as_posix(), ())
    return found


def test_only_the_listed_functions_write_a_gradient_slot():
    assert _grad_writers() == GRAD_WRITERS
