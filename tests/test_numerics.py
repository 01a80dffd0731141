"""Softmax, LSTM kernel and cell, Adam and gradient-checker behavior."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lenvae.numerics import (
    AdamState, MissingGradientError, NonFiniteLossError, ParamStore, Tensor, add,
    adam_step, clip_grad_norm, cross_entropy_rows, gather_rows, grad_check,
    init_lstm_weights, log_softmax_rows, lstm_cell, lstm_sequence, matmul, mul,
    sampled_logits, sum_all, tanh_, zeros,
)
from lenvae.numerics.optim import BLOCK, _sum_of_squares
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
    h0 = Tensor(np.zeros((3, 2)))
    c0 = Tensor(np.zeros((3, 2)))
    w = Tensor(np.zeros((6, 8)))
    b = Tensor(np.zeros(8))
    np.testing.assert_array_equal(lstm_sequence(x, h0, c0, w, b, 2).data, np.zeros((6, 2)))
    h, c = lstm_cell(x.data[:3], h0.data, c0.data, w.data, b.data)
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

    pre = np.array([x_val, h_val[0], h_val[1]]) @ w + b
    sig = lambda v: 1.0 / (1.0 + math.exp(-v))
    i = np.array([sig(pre[0]), sig(pre[1])])
    f = np.array([sig(pre[2]), sig(pre[3])])
    g = np.array([math.tanh(pre[4]), math.tanh(pre[5])])
    o = np.array([sig(pre[6]), sig(pre[7])])
    c_expected = f * c_val + i * g
    h_expected = o * np.tanh(c_expected)

    h, c = lstm_cell(np.array([[x_val]]), h_val[None, :], c_val[None, :], w, b)
    np.testing.assert_allclose(c[0], c_expected, rtol=1e-12)
    np.testing.assert_allclose(h[0], h_expected, rtol=1e-12)
    h_seq = lstm_sequence(Tensor(np.array([[x_val]])), Tensor(h_val[None, :]),
                          Tensor(c_val[None, :]), Tensor(w), Tensor(b), 1)
    np.testing.assert_allclose(h_seq.data[0], h_expected, rtol=1e-12)
    ref_h, ref_c = lstm_cell_forward(Tensor(np.array([[x_val]])), Tensor(h_val[None, :]),
                                     Tensor(c_val[None, :]), Tensor(w), Tensor(b))
    np.testing.assert_allclose(ref_c.data[0], c_expected, rtol=1e-12)
    np.testing.assert_allclose(ref_h.data[0], h_expected, rtol=1e-12)


def test_lstm_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    store = ParamStore()
    w_init, b_init = init_lstm_weights(rng, in_dim=3, hidden=2)
    store.add("w", rng.standard_normal(w_init.shape))
    store.add("b", rng.standard_normal(b_init.shape))
    store.add("x", rng.standard_normal((3 * 2, 3)))
    store.add("h0", rng.standard_normal((2, 2)))
    store.add("c0", rng.standard_normal((2, 2)))

    def loss_fn(p):
        h = lstm_sequence(p["x"], p["h0"], p["c0"], p["w"], p["b"], 3)
        return sum_all(mul(h, h))

    assert grad_check(loss_fn, store, eps=1e-5) < 1e-4


def test_lstm_shape_mismatch_names_offender():
    x = Tensor(np.zeros((1, 3)))
    h = Tensor(np.zeros((1, 2)))
    c = Tensor(np.zeros((1, 2)))
    with pytest.raises(ValueError, match="lstm weight w"):
        lstm_sequence(x, h, c, Tensor(np.zeros((4, 8))), Tensor(np.zeros(8)), 1)
    with pytest.raises(ValueError, match="lstm bias b"):
        lstm_sequence(x, h, c, Tensor(np.zeros((5, 8))), Tensor(np.zeros(7)), 1)
    with pytest.raises(ValueError, match="c0"):
        lstm_sequence(x, h, Tensor(np.zeros((1, 3))), Tensor(np.zeros((5, 8))),
                      Tensor(np.zeros(8)), 1)
    with pytest.raises(ValueError, match="lstm input x"):
        lstm_sequence(x, h, c, Tensor(np.zeros((5, 8))), Tensor(np.zeros(8)), 2)


def test_lstm_forget_bias_initialized_to_one():
    w, b = init_lstm_weights(np.random.default_rng(0), in_dim=4, hidden=3)
    np.testing.assert_array_equal(b[3:6], np.ones(3))
    np.testing.assert_array_equal(b[:3], np.zeros(3))
    np.testing.assert_array_equal(b[6:], np.zeros(6))
    assert np.abs(w).max() <= 0.08


# The kernel splits each step's packed GEMM into x @ w[:I] + b and h @ w[I:]
# and runs its own backward, so it agrees with the chained cell to rounding:
# rtol 1e-12 plus an atol of 1e-12 times the largest entry, for entries that
# cancel to near zero.
KERNEL_RTOL = 1e-12


def assert_close_to(actual, expected):
    np.testing.assert_allclose(actual, expected, rtol=KERNEL_RTOL,
                               atol=KERNEL_RTOL * np.abs(expected).max())


@pytest.mark.parametrize("steps", [1, 2, 7])
@pytest.mark.parametrize("constant_start", [False, True], ids=["leaf-start", "constant-start"])
def test_lstm_sequence_matches_unrolled_cell(steps, constant_start):
    rows, in_dim, hidden = 3, 4, 5

    def inputs():
        r = np.random.default_rng(100 + steps)
        x = r.standard_normal((steps * rows, in_dim))
        if constant_start:
            h0, c0 = zeros((rows, hidden)), zeros((rows, hidden))
        else:
            h0 = Tensor(r.standard_normal((rows, hidden)))
            c0 = Tensor(r.standard_normal((rows, hidden)))
        w = Tensor(0.5 * r.standard_normal((in_dim + hidden, 4 * hidden)))
        b = Tensor(r.standard_normal(4 * hidden))
        return x, h0, c0, w, b

    upstream = np.random.default_rng(200 + steps).standard_normal((steps * rows, hidden))
    x, *kernel_rest = inputs()
    kernel_x = Tensor(x)
    out = lstm_sequence(kernel_x, *kernel_rest, steps)
    sum_all(mul(out, Tensor(upstream))).backward()

    x, *ref_rest = inputs()
    x_steps = [Tensor(x[t * rows:(t + 1) * rows].copy()) for t in range(steps)]
    hs = unrolled_sequence(x_steps, *ref_rest)
    loss = sum_all(mul(hs[0], Tensor(upstream[:rows])))
    for t in range(1, steps):
        loss = add(loss, sum_all(mul(hs[t], Tensor(upstream[t * rows:(t + 1) * rows]))))
    loss.backward()

    assert_close_to(out.data, np.concatenate([h.data for h in hs]))
    assert_close_to(kernel_x.grad, np.concatenate([x_t.grad for x_t in x_steps]))
    for name, k, r in zip(("h0", "c0", "w", "b"), kernel_rest, ref_rest):
        if constant_start and name in ("h0", "c0"):
            assert k.grad is None and r.grad is None
        else:
            assert_close_to(k.grad, r.grad)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def test_adam_zero_gradients_keep_parameters():
    store = ParamStore()
    t = store.add("p", np.array([1.0, -2.0]))
    state = AdamState.for_params(store)
    t.grad = np.zeros(2)
    adam_step(store, state)
    np.testing.assert_array_equal(t.data, [1.0, -2.0])
    assert state.step == 1


def test_adam_first_step_hand_value():
    # constant gradient 1 on a scalar: after bias correction the first update
    # is exactly -lr / (1 + eps)
    lr, eps = 0.01, 1e-8
    store = ParamStore()
    t = store.add("p", np.array([0.5]))
    state = AdamState.for_params(store, learning_rate=lr, eps=eps)
    t.grad = np.array([1.0])
    adam_step(store, state)
    np.testing.assert_allclose(t.data, [0.5 - lr / (1.0 + eps)], rtol=1e-15)
    assert t.grad is None  # zeroed afterwards


def test_adam_two_steps_descend_quadratic():
    store = ParamStore()
    t = store.add("p", np.array([3.0]))
    state = AdamState.for_params(store, learning_rate=0.1)

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
    state = AdamState.for_params(store, learning_rate=0.002)
    ref = {name: t.data.copy() for name, t in store.items()}
    ref_m = {name: np.zeros_like(p) for name, p in ref.items()}
    ref_v = {name: np.zeros_like(p) for name, p in ref.items()}
    b1, b2, lr, eps = state.beta1, state.beta2, state.learning_rate, state.eps
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


@pytest.mark.parametrize("max_norm", [1e6, 1.0])
def test_clip_grad_norm_in_scratch_matches_fresh_squares(max_norm):
    rng = np.random.default_rng(22)
    store = _random_store(rng)
    grads = {name: rng.standard_normal(t.data.shape) for name, t in store.items()}
    expected = float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))
    for name, t in store.items():
        t.grad = grads[name].copy()
    assert clip_grad_norm(store, max_norm, AdamState.for_params(store).scratch[0]) == expected
    factor = min(1.0, max_norm / expected)
    for name, t in store.items():
        assert t.grad.tobytes() == (grads[name] * factor).tobytes()


def test_adam_missing_gradient_errors():
    store = ParamStore()
    store.add("p", np.array([1.0]))
    state = AdamState.for_params(store)
    with pytest.raises(MissingGradientError, match="p"):
        adam_step(store, state)


@pytest.mark.parametrize("bad_grad", [np.ones(1), np.ones(2, dtype=np.float32)],
                         ids=["shape", "dtype"])
def test_adam_bad_gradient_raises_before_any_change(bad_grad):
    store = ParamStore()
    first = store.add("first", np.array([1.0, -2.0]))
    second = store.add("second", np.array([0.5, 0.25]))
    state = AdamState.for_params(store)
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
    assert clip_grad_norm(store, max_norm, np.empty(BLOCK)) == expected
    np.multiply(grad, min(1.0, max_norm / expected), out=grad)
    assert np.array_equal(t.grad.view(np.uint64), grad.view(np.uint64))


def test_sum_of_squares_rebuilds_numpys_pairwise_sum():
    # clip_grad_norm relies on numpy splitting a pairwise sum at n // 2
    # rounded down to a multiple of 8; a numpy that splits otherwise fails
    # here instead of silently moving the clip norm
    rng = np.random.default_rng(24)
    sizes = [1, 7, 8, 9, 128, 129, BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + 8, 2 * BLOCK,
             3 * BLOCK + 5, *rng.integers(BLOCK, 2_000_000, 30)]
    for dtype in (np.float64, np.float32):
        scratch = np.empty(BLOCK, dtype=dtype)
        for n in sizes:
            g = rng.standard_normal(int(n)).astype(dtype)
            got = _sum_of_squares(g, scratch)
            assert got.dtype == dtype and got.tobytes() == (g * g).sum().tobytes(), n


def _reuse_loss(store):
    # a row gather, plain matmuls and a sampled output layer: each way a
    # backward makes a leaf's gradient
    h = tanh_(matmul(gather_rows(store["embed"], np.array([0, 2, 2, 4])), store["proj"]))
    logits = sampled_logits(h, store["out"], store["bias"], np.array([1, 3, 4]))
    return cross_entropy_rows(logits, np.array([0, 2, 1, 0]), np.ones(4))


def test_backward_accumulates_into_the_gradients_adam_zeroed():
    rng = np.random.default_rng(23)
    store = ParamStore()
    for name, shape in (("embed", (5, 3)), ("proj", (3, 4)), ("out", (4, 6)), ("bias", (6,))):
        store.add(name, rng.standard_normal(shape))
    state = AdamState.for_params(store)
    _reuse_loss(store).backward()
    arrays = {name: t.grad for name, t in store.items()}
    adam_step(store, state)
    assert all(t.grad is None for _, t in store.items())
    assert not any(g.any() for g in arrays.values())

    _reuse_loss(store).backward()
    fresh = store.copy()
    _reuse_loss(fresh).backward()
    for name, t in store.items():
        assert t.grad is arrays[name]
        assert t.grad.tobytes() == fresh[name].grad.tobytes()

    adam_step(store, state)
    store.zero_grads()
    _reuse_loss(store).backward()
    assert all(t.grad is not arrays[name] for name, t in store.items())


# ---------------------------------------------------------------------------
# grad_check behavior
# ---------------------------------------------------------------------------

def test_grad_check_quadratic_is_tiny():
    store = ParamStore()
    store.add("p", np.random.default_rng(0).standard_normal(5))
    err = grad_check(lambda s: sum_all(mul(s["p"], s["p"])), store, eps=1e-5)
    assert err < 1e-8


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


def test_param_store_rejects_duplicates_and_tracks_order():
    store = ParamStore()
    store.add("b", np.zeros(1))
    store.add("a", np.zeros(1))
    with pytest.raises(ValueError):
        store.add("a", np.zeros(1))
    assert store.names() == ["b", "a"]
