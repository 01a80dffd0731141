"""Softmax, LSTM kernel and cell, Adam and gradient-checker behavior."""

import importlib
import math
import threading
import tracemalloc
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lenvae.numerics import (
    AdamState, MissingGradientError, NonFiniteLossError, ParamStore, SlicedGrad, Tensor,
    add, row_blocks,
    adam_step, clip_grad_norm, cross_entropy_rows, gather_rows, grad_check,
    log_softmax_rows, lstm_cell, lstm_sequence, matmul, mul, mul_const,
    sampled_logits, sum_all, tanh_, zeros,
)
from lenvae.model import HyperParams, init_params
from lenvae.numerics import optim
from lenvae.numerics.optim import BLOCK
from lenvae.training import TrainConfig
from lstm_reference import lstm_cell_forward, unrolled_sequence


# ---------------------------------------------------------------------------
# softmax: one row of log_softmax_rows, the softmax the program uses
# ---------------------------------------------------------------------------

def softmax(logits):
    return np.exp(log_softmax_rows(np.asarray(logits, dtype=np.float64)[None, :]))[0]


def test_softmax_uniform():
    np.testing.assert_allclose(softmax(np.zeros(3)), np.full(3, 1 / 3), atol=1e-15)


def test_softmax_large_logits_no_overflow():
    out = softmax(np.array([1000.0, 1000.0]))
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-15)


def test_softmax_against_high_precision():
    # independent evaluation of e^x / sum e^x at 50 digits
    logits = [1.0, 2.0, 3.0]
    with mpmath.workdps(50):
        exps = [mpmath.e ** x for x in logits]
        total = sum(exps)
        expected = np.array([float(e / total) for e in exps])
    np.testing.assert_allclose(softmax(np.array(logits)), expected, rtol=1e-14)


def test_softmax_empty_errors():
    with pytest.raises(ValueError):
        softmax(np.array([]))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=12),
       st.floats(min_value=-100, max_value=100))
def test_softmax_shift_invariance(logits, shift):
    base = softmax(np.array(logits))
    shifted = softmax(np.array(logits) + shift)
    assert np.abs(base - shifted).max() < 1e-12
    assert abs(base.sum() - 1.0) < 1e-12
    assert (base >= 0).all()


# ---------------------------------------------------------------------------
# LSTM: the sequence kernel and the graph-free cell step
# ---------------------------------------------------------------------------

def test_lstm_zero_weights_zero_output():
    x = Tensor(np.random.default_rng(0).standard_normal((2 * 3, 4)))
    c0 = Tensor(np.zeros((3, 2)))
    w = Tensor(np.zeros((6, 8)))
    b = Tensor(np.zeros(8))
    np.testing.assert_array_equal(lstm_sequence(x, c0, w, b, 2).data, np.zeros((6, 2)))
    h, c = lstm_cell(x.data[:3], np.zeros((3, 2)), c0.data, w.data, b.data)
    np.testing.assert_array_equal(h, np.zeros((3, 2)))
    np.testing.assert_array_equal(c, np.zeros((3, 2)))


def test_lstm_hand_evaluated_two_unit_cell():
    # one input, two hidden units, hand-set weights; gate order i, f, g, o
    x_val, h_val, c_val = 0.5, np.array([0.1, -0.2]), np.array([0.3, 0.4])
    w = np.zeros((3, 8))
    w[0, :] = [0.2, -0.1, 0.4, 0.3, 0.5, -0.5, 0.1, 0.2]   # input row
    w[1, :] = [0.1, 0.2, -0.3, 0.4, -0.2, 0.3, 0.2, -0.1]  # h[0] row
    w[2, :] = [-0.4, 0.1, 0.2, -0.2, 0.3, 0.1, -0.3, 0.4]  # h[1] row
    b = np.array([0.01, 1.0, -0.02, 0.03, 0.04, 1.0, 0.05, -0.05])

    sig = lambda v: 1.0 / (1.0 + math.exp(-v))

    def cell_by_hand(h_prev):
        pre = np.array([x_val, h_prev[0], h_prev[1]]) @ w + b
        i = np.array([sig(pre[0]), sig(pre[1])])
        f = np.array([sig(pre[2]), sig(pre[3])])
        g = np.array([math.tanh(pre[4]), math.tanh(pre[5])])
        o = np.array([sig(pre[6]), sig(pre[7])])
        c_new = f * c_val + i * g
        return o * np.tanh(c_new), c_new

    h_expected, c_expected = cell_by_hand(h_val)
    h, c = lstm_cell(np.array([[x_val]]), h_val[None, :], c_val[None, :], w, b)
    np.testing.assert_allclose(c[0], c_expected, rtol=1e-12)
    np.testing.assert_allclose(h[0], h_expected, rtol=1e-12)
    # the sequence kernel starts from h = 0
    h_seq = lstm_sequence(Tensor(np.array([[x_val]])), Tensor(c_val[None, :]),
                          Tensor(w), Tensor(b), 1)
    np.testing.assert_allclose(h_seq.data[0], cell_by_hand(np.zeros(2))[0], rtol=1e-12)
    ref_h, ref_c = lstm_cell_forward(Tensor(np.array([[x_val]])), Tensor(h_val[None, :]),
                                     Tensor(c_val[None, :]), Tensor(w), Tensor(b))
    np.testing.assert_allclose(ref_c.data[0], c_expected, rtol=1e-12)
    np.testing.assert_allclose(ref_h.data[0], h_expected, rtol=1e-12)


def test_lstm_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    store = ParamStore()
    store.add("w", rng.standard_normal((3 + 2, 4 * 2)))
    store.add("b", rng.standard_normal(4 * 2))
    store.add("x", rng.standard_normal((3 * 2, 3)))
    store.add("c0", rng.standard_normal((2, 2)))

    def loss_fn(p):
        h = lstm_sequence(p["x"], p["c0"], p["w"], p["b"], 3)
        return sum_all(mul(h, h))

    assert grad_check(loss_fn, store, eps=1e-5) < 1e-4


def test_lstm_shape_mismatch_names_offender():
    x = Tensor(np.zeros((1, 3)))
    c = Tensor(np.zeros((1, 2)))
    with pytest.raises(ValueError, match="lstm weight w"):
        lstm_sequence(x, c, Tensor(np.zeros((4, 8))), Tensor(np.zeros(8)), 1)
    with pytest.raises(ValueError, match="lstm bias b"):
        lstm_sequence(x, c, Tensor(np.zeros((5, 8))), Tensor(np.zeros(7)), 1)
    with pytest.raises(ValueError, match="lstm input x"):
        lstm_sequence(x, c, Tensor(np.zeros((5, 8))), Tensor(np.zeros(8)), 2)
    with pytest.raises(ValueError, match="rank-2 x and c0"):
        lstm_sequence(Tensor(np.zeros(3)), c, Tensor(np.zeros((5, 8))), Tensor(np.zeros(8)), 1)


def test_lstm_forget_bias_initialized_to_one():
    hp = HyperParams(vocab_size=9, cell_size=3, decoder_layers=2)
    params = init_params(hp, np.random.default_rng(0))
    for layer in ("enc_fwd", "enc_bwd", "dec_l0", "dec_l1"):
        b = params[f"{layer}.b"].data
        np.testing.assert_array_equal(b[3:6], np.ones(3))
        np.testing.assert_array_equal(b[:3], np.zeros(3))
        np.testing.assert_array_equal(b[6:], np.zeros(6))
        assert 0 < np.abs(params[f"{layer}.W"].data).max() <= 0.08
    np.testing.assert_array_equal(params["dec_init.b"].data, np.zeros(3))


def test_init_holds_one_copy_of_parameters():
    # the shape of test_checkpoint's one-copy load test
    hp = HyperParams(vocab_size=9, cell_size=256, embed_size=64)
    tracemalloc.start()
    try:
        params = init_params(hp, np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    param_bytes = sum(t.data.nbytes for _, t in params.items())
    assert param_bytes > 4_000_000
    assert peak < 1.1 * param_bytes


# The kernel splits each step's packed GEMM into x @ w[:I] + b and h @ w[I:]
# and runs its own backward, so it agrees with the chained cell to rounding:
# rtol 1e-12 plus an atol of 1e-12 times the largest entry, for entries that
# cancel to near zero.
KERNEL_RTOL = 1e-12


def assert_close_to(actual, expected):
    np.testing.assert_allclose(actual, expected, rtol=KERNEL_RTOL,
                               atol=KERNEL_RTOL * np.abs(expected).max())


# constant-start: the cell state starts at a float64 zero leaf of ``zeros()``
@pytest.mark.parametrize("steps", [1, 2, 7])
@pytest.mark.parametrize("zero_start", [False, True], ids=["leaf-start", "constant-start"])
def test_lstm_sequence_matches_unrolled_cell(steps, zero_start):
    rows, in_dim, hidden = 3, 4, 5

    def inputs():
        r = np.random.default_rng(100 + steps)
        x = r.standard_normal((steps * rows, in_dim))
        if zero_start:
            c0 = zeros((rows, hidden), np.float64)
        else:
            c0 = Tensor(r.standard_normal((rows, hidden)))
        w = Tensor(0.5 * r.standard_normal((in_dim + hidden, 4 * hidden)))
        b = Tensor(r.standard_normal(4 * hidden))
        return x, c0, w, b

    upstream = np.random.default_rng(200 + steps).standard_normal((steps * rows, hidden))
    x, *kernel_rest = inputs()
    kernel_x = Tensor(x)
    out = lstm_sequence(kernel_x, *kernel_rest, steps)
    sum_all(mul(out, Tensor(upstream))).backward()

    x, *ref_rest = inputs()
    x_steps = [Tensor(x[t * rows:(t + 1) * rows].copy()) for t in range(steps)]
    hs = unrolled_sequence(x_steps, zeros((rows, hidden), np.float64), *ref_rest)
    loss = sum_all(mul(hs[0], Tensor(upstream[:rows])))
    for t in range(1, steps):
        loss = add(loss, sum_all(mul(hs[t], Tensor(upstream[t * rows:(t + 1) * rows]))))
    loss.backward()

    assert_close_to(out.data, np.concatenate([h.data for h in hs]))
    assert_close_to(kernel_x.grad, np.concatenate([x_t.grad for x_t in x_steps]))
    for k, r in zip(kernel_rest, ref_rest):
        assert_close_to(k.grad, r.grad)


def test_row_blocks_cover_the_rows_in_order_at_least_one_row_each():
    # whole rows up to ``BLOCK`` values per view, one row when a row is
    # wider; the views cover the rows in order and write through
    assert [b.shape[0] for b in row_blocks(np.zeros((5, 30000)))] == [2, 2, 1]
    a = np.zeros((5, 70000))
    blocks = row_blocks(a)
    assert [b.shape[0] for b in blocks] == [1] * 5
    for i, b in enumerate(blocks):
        b[...] = i
    np.testing.assert_array_equal(a, np.arange(5.0)[:, None] * np.ones(70000))


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def adam_for(store, learning_rate=TrainConfig().learning_rate):
    """``AdamState`` with ``TrainConfig``'s default learning rate, or ``learning_rate``."""
    return AdamState.for_params(store, learning_rate)


def test_adam_zero_gradients_keep_parameters():
    store = ParamStore()
    t = store.add("p", np.array([1.0, -2.0]))
    state = adam_for(store)
    t.grad = np.zeros(2)
    adam_step(store, state)
    np.testing.assert_array_equal(t.data, [1.0, -2.0])
    assert state.step == 1


def test_adam_first_step_hand_value():
    # constant gradient 1 on a scalar: after bias correction the first update
    # is exactly -lr / (1 + eps)
    lr, eps = 0.01, optim.ADAM_EPS
    store = ParamStore()
    t = store.add("p", np.array([0.5]))
    state = adam_for(store, learning_rate=lr)
    t.grad = np.array([1.0])
    adam_step(store, state)
    np.testing.assert_allclose(t.data, [0.5 - lr / (1.0 + eps)], rtol=1e-15)
    assert t.grad is None  # dropped afterwards


def test_adam_two_steps_descend_quadratic():
    store = ParamStore()
    t = store.add("p", np.array([3.0]))
    state = adam_for(store, learning_rate=0.1)

    def loss_and_grad():
        loss = sum_all(mul(t, t))
        store.zero_grads()
        loss.backward()
        return float(loss.data)

    first = loss_and_grad()
    adam_step(store, state)
    second = loss_and_grad()
    adam_step(store, state)
    third = float(sum_all(mul(t, t)).data)
    assert second < first and third < second


# one block less, exactly one, one more and a ragged last block, a 2-D
# parameter of several blocks and two small ones
_SHAPES = {"short": (BLOCK - 1,), "one": (BLOCK,), "over": (BLOCK + 1,),
           "ragged": (3 * BLOCK + 5,), "w": (1000, 300), "b": (300,), "s": (1,)}


def _random_store(rng):
    store = ParamStore()
    for name, shape in _SHAPES.items():
        store.add(name, rng.standard_normal(shape))
    store.add("wT", rng.standard_normal((300, 1000)).T)  # a Fortran-ordered value
    return store


def test_adam_in_place_bit_identical_to_textbook():
    rng = np.random.default_rng(21)
    store = _random_store(rng)
    state = adam_for(store, learning_rate=0.002)
    ref = {name: t.data.copy() for name, t in store.items()}
    ref_m = {name: np.zeros_like(p) for name, p in ref.items()}
    ref_v = {name: np.zeros_like(p) for name, p in ref.items()}
    b1, b2, lr, eps = optim.ADAM_BETA1, optim.ADAM_BETA2, state.learning_rate, optim.ADAM_EPS
    assert (b1, b2, eps) == (0.9, 0.999, 1e-8)  # Kingma & Ba 2015's published values
    for step in range(1, 5):
        for name, t in store.items():
            t.grad = 3.0 * rng.standard_normal(t.data.shape)
            g = t.grad.copy()
            ref_m[name] = b1 * ref_m[name] + (1.0 - b1) * g
            ref_v[name] = b2 * ref_v[name] + (1.0 - b2) * (g * g)
            m_hat = ref_m[name] / (1.0 - b1 ** step)
            v_hat = ref_v[name] / (1.0 - b2 ** step)
            ref[name] = ref[name] - lr * m_hat / (np.sqrt(v_hat) + eps)
        adam_step(store, state)
        for name, t in store.items():
            assert t.data.tobytes() == ref[name].tobytes()
            assert state.m[name].tobytes() == ref_m[name].tobytes()
            assert state.v[name].tobytes() == ref_v[name].tobytes()


def _textbook_adam(store, state, grads):
    """Parameters and moments after one Adam step on fresh arrays."""
    b1, b2, eps = optim.ADAM_BETA1, optim.ADAM_BETA2, optim.ADAM_EPS
    lr, step = state.learning_rate, state.step + 1
    out = {}
    for name, t in store.items():
        g = grads[name]
        m = b1 * state.m[name] + (1.0 - b1) * g
        v = b2 * state.v[name] + (1.0 - b2) * (g * g)
        p = t.data - lr * (m / (1.0 - b1 ** step)) / (np.sqrt(v / (1.0 - b2 ** step)) + eps)
        out[name] = (p, m, v)
    return out


# an output-layer-shaped weight of many blocks beside smaller ones, and a
# float32 weight beside a float64 one, each walked in its own dtype
@pytest.mark.parametrize("shapes", [
    (("out.W", (243, 4000), np.float64), ("embed.W", (4000, 40), np.float64),
     ("out.b", (4000,), np.float64), ("ragged", (BLOCK + 7,), np.float64)),
    (("w", (300, 300), np.float32), ("b", (7, 5), np.float64)),
], ids=["paper", "mixed"])
def test_adam_block_walk_bit_identical_to_textbook(shapes):
    rng = np.random.default_rng(31)
    store = ParamStore()
    for name, shape, dtype in shapes:
        store.add(name, rng.standard_normal(shape).astype(dtype))
    values = {name: t.data for name, t in store.items()}
    state = adam_for(store, learning_rate=0.002)
    for _ in range(3):
        grads = {}
        for name, t in store.items():
            t.grad = rng.standard_normal(t.data.shape).astype(t.data.dtype)
            grads[name] = t.grad.copy()
        expected = _textbook_adam(store, state, grads)
        adam_step(store, state)
        for name, t in store.items():
            p, m, v = expected[name]
            assert t.data.tobytes() == p.tobytes(), name
            assert state.m[name].tobytes() == m.tobytes(), name
            assert state.v[name].tobytes() == v.tobytes(), name
            assert t.grad is None, name
    assert all(t.data is values[name] for name, t in store.items())  # updated in place


def test_adam_step_starts_no_thread_and_keeps_no_gradient(monkeypatch):
    # a store of several walk blocks: the walk runs on the calling thread,
    # and no gradient array outlives the step
    started, start = [], threading.Thread.start

    def recorded_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recorded_start)
    rng = np.random.default_rng(33)
    store = ParamStore()
    for name, shape in (("w", (300, 1000)), ("b", (BLOCK + 3,))):
        store.add(name, rng.standard_normal(shape))
    for _, t in store.items():
        t.grad = rng.standard_normal(t.data.shape)
    grads = [weakref.ref(t.grad) for _, t in store.items()]
    adam_step(store, adam_for(store))
    assert started == []
    assert all(t.grad is None for _, t in store.items())
    assert all(ref() is None for ref in grads)


def test_adam_copies_a_gradient_of_another_memory_order():
    rng = np.random.default_rng(32)
    store = ParamStore()
    store.add("w", rng.standard_normal((300, 400)))
    state = adam_for(store)
    given = np.asfortranarray(rng.standard_normal((300, 400)))
    store["w"].grad = given
    expected = _textbook_adam(store, state, {"w": given.copy()})
    before = given.copy()
    adam_step(store, state)
    assert store["w"].data.tobytes() == expected["w"][0].tobytes()
    np.testing.assert_array_equal(given, before)  # the caller's array is left as it was
    assert store["w"].grad is None


@pytest.mark.parametrize("max_norm", [1e6, 1.0])
def test_clip_grad_norm_in_scratch_matches_fresh_squares(max_norm):
    rng = np.random.default_rng(22)
    store = _random_store(rng)
    grads = {name: rng.standard_normal(t.data.shape) for name, t in store.items()}
    expected = float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))
    for name, t in store.items():
        t.grad = grads[name].copy()
    norm, factor = clip_grad_norm(store, max_norm)
    assert norm == pytest.approx(expected, rel=1e-13, abs=0)
    assert factor == min(1.0, max_norm / norm)
    for name, t in store.items():  # the factor is applied by adam_step
        assert t.grad.tobytes() == grads[name].tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_adam_with_the_clip_factor_equals_clip_then_adam_bit_for_bit(dtype):
    # adam_step(grad_scale=factor) multiplies each gradient block in its
    # walk; clipping first scales every gradient in a pass of its own
    rng = np.random.default_rng(26)
    fused, separate = ParamStore(), ParamStore()
    for name, t in _random_store(rng).items():
        fused.add(name, t.data.astype(dtype))
        separate.add(name, t.data.astype(dtype))
    fused_state, separate_state = adam_for(fused), adam_for(separate)
    factors = []
    for _ in range(3):
        for name, t in fused.items():
            t.grad = (3.0 * rng.standard_normal(t.data.shape)).astype(dtype)
            separate[name].grad = t.grad.copy()
        _, factor = clip_grad_norm(fused, max_norm=100.0)
        factors.append(factor)
        adam_step(fused, fused_state, factor)
        for _, t in separate.items():
            t.grad *= factor
        adam_step(separate, separate_state)
        for name, t in fused.items():
            assert t.data.dtype == dtype
            assert t.data.tobytes() == separate[name].data.tobytes(), name
            assert fused_state.m[name].tobytes() == separate_state.m[name].tobytes(), name
            assert fused_state.v[name].tobytes() == separate_state.v[name].tobytes(), name
            assert t.grad is None, name
    assert all(f < 1.0 for f in factors)   # every step clipped


def test_adam_missing_gradient_errors():
    store = ParamStore()
    store.add("p", np.array([1.0]))
    state = adam_for(store)
    with pytest.raises(MissingGradientError, match="p"):
        adam_step(store, state)


@pytest.mark.parametrize("bad_grad", [np.ones(1), np.ones(2, dtype=np.float32)],
                         ids=["shape", "dtype"])
def test_adam_bad_gradient_raises_before_any_change(bad_grad):
    store = ParamStore()
    first = store.add("first", np.array([1.0, -2.0]))
    second = store.add("second", np.array([0.5, 0.25]))
    state = adam_for(store)
    first.grad, second.grad = np.array([0.3, -0.7]), np.array([0.1, 0.2])
    adam_step(store, state)
    first.grad, second.grad = np.array([0.3, -0.7]), bad_grad
    arrays = [first.data, second.data, first.grad, *state.m.values(), *state.v.values()]
    before = [a.tobytes() for a in arrays]
    with pytest.raises(ValueError, match="second"):
        adam_step(store, state)
    assert state.step == 1
    assert [a.tobytes() for a in arrays] == before


@pytest.mark.parametrize("max_norm", [1e6, 1.0])
def test_clip_grad_norm_at_paper_output_shape(max_norm):
    rng = np.random.default_rng(25)
    store = ParamStore()
    t = store.add("out.W", np.zeros((243, 40000)))
    grad = rng.standard_normal(t.data.shape)
    expected = float(np.sqrt(float((grad * grad).sum())))
    t.grad = grad.copy()
    norm, factor = clip_grad_norm(store, max_norm)
    assert norm == pytest.approx(expected, rel=1e-13, abs=0)
    assert factor == min(1.0, max_norm / norm)
    assert np.array_equal(t.grad.view(np.uint64), grad.view(np.uint64))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_on_a_sliced_gradient_equals_the_dense_walk_bit_for_bit(dtype):
    # rows of an embedding and columns of an output layer, each larger than
    # a walk block, and a table whose index is every column; some m entries
    # are -0.0, touched and untouched, which a zero gradient turns to +0.0
    # (b1 * -0.0 + 0.0), and the clip factor is not 1. Every value and
    # moment equals a dense gradient's walk bit for bit.
    rng = np.random.default_rng(41)
    sliced, dense = ParamStore(), ParamStore()
    for name, axis, shape, touched in (("embed", 0, (3000, 40), 150),
                                       ("out", 1, (40, 3000), 150),
                                       ("full", 1, (40, 300), 300)):
        value = rng.standard_normal(shape).astype(dtype)
        sliced.add(name, value.copy())
        dense.add(name, value.copy())
        index = np.sort(rng.choice(shape[axis], size=touched, replace=False))
        block = list(shape)
        block[axis] = index.size
        values = rng.standard_normal(block).astype(dtype)
        values.reshape(-1)[::7] = -0.0
        sliced[name].grad = SlicedGrad(shape, axis, index, values)
        dense[name].grad = sliced[name].grad.dense()
    states = [adam_for(store) for store in (sliced, dense)]
    negative_zeros = {}
    for name, t in sliced.items():
        m = rng.standard_normal(t.data.shape).astype(dtype)
        m.reshape(-1)[::5] = -0.0
        negative_zeros[name] = np.signbit(m[m == 0]).sum()
        v = np.abs(rng.standard_normal(t.data.shape)).astype(dtype)
        for state in states:
            state.m[name], state.v[name], state.step = m.copy(), v.copy(), 3
    arrays = {name: (t.data, states[0].m[name], states[0].v[name]) for name, t in sliced.items()}
    adam_step(sliced, states[0], 0.37)
    adam_step(dense, states[1], 0.37)
    for name, t in sliced.items():
        assert t.grad is None, name
        p, m, v = arrays[name]   # updated in place
        assert t.data is p and states[0].m[name] is m and states[0].v[name] is v, name
        assert t.data.tobytes() == dense[name].data.tobytes(), name
        assert states[0].m[name].tobytes() == states[1].m[name].tobytes(), name
        assert states[0].v[name].tobytes() == states[1].v[name].tobytes(), name
        m = states[0].m[name]
        assert np.signbit(m[m == 0]).sum() < negative_zeros[name], name


@pytest.mark.parametrize("dtype, rtol", [(np.float32, 1e-6), (np.float64, 1e-14)])
def test_clip_norm_of_sliced_gradients_equals_the_dense_norm_within_tolerance(dtype, rtol):
    # the dot skips the zeros of a dense gradient, so only the summation
    # order, and with it the last bits, differ; tolerance fixed before the run
    rng = np.random.default_rng(5)
    sliced, dense = ParamStore(), ParamStore()
    for name, axis, shape in (("embed", 0, (4000, 64)), ("out", 1, (64, 4000))):
        index = np.sort(rng.choice(4000, size=300, replace=False))
        block = list(shape)
        block[axis] = index.size
        values = rng.standard_normal(block).astype(dtype)
        sliced.add(name, np.zeros(shape, dtype)).grad = SlicedGrad(shape, axis, index, values)
        dense.add(name, np.zeros(shape, dtype)).grad = sliced[name].grad.dense()
    norm, factor = clip_grad_norm(sliced, 1.0)
    assert norm == pytest.approx(clip_grad_norm(dense, 1.0)[0], rel=rtol, abs=0)
    assert factor == 1.0 / norm


def _reuse_loss(store):
    # a row gather, plain matmuls and a sampled output layer: each way a
    # backward makes a leaf's gradient
    h = tanh_(matmul(gather_rows(store["embed"], np.array([0, 2, 2, 4])), store["proj"]))
    logits = sampled_logits(h, store["out"], store["bias"], np.array([1, 3, 4]))
    return cross_entropy_rows(logits, np.arange(4), np.array([0, 2, 1, 0]))


def test_backward_accumulates_into_the_gradients_adam_zeroed():
    # adam_step drops every gradient, so the next backward starts each one
    # from zeros in new arrays, as a fresh store's backward does
    rng = np.random.default_rng(23)
    store = ParamStore()
    for name, shape in (("embed", (5, 3)), ("proj", (3, 4)), ("out", (4, 6)), ("bias", (6,))):
        store.add(name, rng.standard_normal(shape))
    state = adam_for(store)
    sliced = {"embed", "out", "bias"}   # gathered or sampled tables
    _reuse_loss(store).backward()
    assert {name for name, t in store.items() if isinstance(t.grad, SlicedGrad)} == sliced
    arrays = {name: t.grad for name, t in store.items()}
    adam_step(store, state)
    assert all(t.grad is None for _, t in store.items())

    _reuse_loss(store).backward()
    fresh = ParamStore()
    for name, t in store.items():
        fresh.add(name, t.data.copy())
    _reuse_loss(fresh).backward()
    for name, t in store.items():
        assert t.grad is not arrays[name], name
        assert t.dense_grad().tobytes() == fresh[name].dense_grad().tobytes()


# ---------------------------------------------------------------------------
# grad_check behavior
# ---------------------------------------------------------------------------

def test_grad_check_quadratic_is_tiny():
    store = ParamStore()
    store.add("p", np.random.default_rng(0).standard_normal(5))
    err = grad_check(lambda s: sum_all(mul(s["p"], s["p"])), store, eps=1e-5)
    assert err < 1e-8


def test_grad_check_quadratic_over_fortran_ordered_parameter_is_tiny():
    # the store copies a Fortran-ordered value into C order once, and a
    # perturbation writes through to that copy, not to the caller's array
    given = np.asfortranarray(np.random.default_rng(1).standard_normal((3, 4)))
    before = given.copy()
    store = ParamStore()
    kept = store.add("w", given).data
    assert kept is not given and kept.flags.c_contiguous
    np.testing.assert_array_equal(kept, given)
    weights = np.arange(12.0).reshape(3, 4) + 1.0
    err = grad_check(lambda s: sum_all(mul_const(mul(s["w"], s["w"]), weights)), store,
                     eps=1e-5)
    assert err < 1e-6
    assert store["w"].data is kept
    np.testing.assert_array_equal(given, before)


def test_grad_check_detects_corrupted_backward():
    store = ParamStore()
    store.add("p", np.random.default_rng(0).standard_normal(4) + 2.0)

    def corrupt_square(t):
        out_data = t.data * t.data

        def bw(g):
            grad = 2.0 * t.data * g
            grad[0] *= 2.0  # deliberately doubled entry
            if t.grad is None:
                t.grad = np.zeros_like(t.data)
            t.grad += grad
        return Tensor(out_data, (t,), bw)

    err = grad_check(lambda s: sum_all(corrupt_square(s["p"])), store, eps=1e-5)
    assert err > 0.1


def test_grad_check_nonfinite_loss_errors():
    store = ParamStore()
    store.add("p", np.array([1.0]))

    def bad_loss(s):
        return Tensor(np.asarray(np.nan))

    with pytest.raises(NonFiniteLossError):
        grad_check(bad_loss, store, eps=1e-5)


def test_grad_check_loss_nonfinite_while_perturbing_errors():
    # finite at the given value, NaN at any other
    store = ParamStore()
    store.add("p", np.array([1.0, 2.0]))

    def loss_fn(s):
        if s["p"].data[1] != 2.0:
            return Tensor(np.asarray(np.nan))
        return sum_all(mul(s["p"], s["p"]))

    with pytest.raises(NonFiniteLossError, match="while perturbing p\\[1\\]"):
        grad_check(loss_fn, store, eps=1e-5)


def test_param_store_rejects_duplicates_and_tracks_order():
    store = ParamStore()
    store.add("b", np.zeros(1))
    store.add("a", np.zeros(1))
    with pytest.raises(ValueError):
        store.add("a", np.zeros(1))
    assert [name for name, _ in store.items()] == ["b", "a"]


@pytest.mark.parametrize("module", ["lenvae", "lenvae.numerics", "lenvae.numerics.tensor"])
def test_every_exported_name_resolves(module):
    namespace = {}
    exec(f"from {module} import *", namespace)
    for name in getattr(importlib.import_module(module), "__all__", ()):
        assert name in namespace, f"{module}.{name}"
