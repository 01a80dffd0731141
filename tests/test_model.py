"""Encoder, latent ops, countdown, decoder and loss oracles."""

import ast
import itertools
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lenvae import model
from lenvae.model import (
    GRADCHECK_MIN_GRADIENT, GRADCHECK_SEEDS, INIT_SCALE, HyperParams,
    LatentParams, batch_rows, bow_loss, decode_step, decoder_states, draw_negatives, encode,
    encoder_mean, encoder_rows, init_decoder_state, init_params, kl_divergence,
    length_input, param_shapes, posterior_means, reparameterize, tiny_gradcheck_instance,
    total_loss,
)
from lenvae.numerics import (
    Tensor, affine, cross_entropy_rows, grad_check, sampled_logits, zeros,
)
from lenvae.numerics.tensor import _toposort
from lenvae.textpipe import BOS_ID, EOS_ID, PAD_ID, Batch, make_batch

import lstm_reference
from lstm_reference import lstm_cell_forward

TINY = HyperParams(vocab_size=7, cell_size=3, embed_size=4, latent_dim=2,
                   bow_width=5, len_embed_size=2, decoder_layers=2,
                   max_len_index=6, softmax_samples=3)


def tiny_params(seed=0, hp=TINY):
    """Parameters in float64, the dtype of the references these tests hold
    the model to."""
    return init_params(hp, np.random.default_rng(seed), dtype=np.float64)


def one_sentence_batch(ids, hp=TINY):
    return make_batch([list(ids)], hp.vocab_size)


def test_init_params_draws_each_weight_as_one_uniform_draw():
    hp = HyperParams(vocab_size=20000, cell_size=64, embed_size=8, latent_dim=4,
                     bow_width=4, len_embed_size=3, decoder_layers=1)
    # float64 is that draw bit for bit, and float32 is it rounded to float32
    params = init_params(hp, np.random.default_rng(3), dtype=np.float64)
    params32 = init_params(hp, np.random.default_rng(3))
    rng = np.random.default_rng(3)
    for name, shape in param_shapes(hp).items():
        assert params32[name].data.dtype == np.float32, name
        if name.endswith(".W"):
            expected = rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape)
            assert params[name].data.tobytes() == expected.tobytes(), name
            assert params32[name].data.tobytes() == expected.astype(np.float32).tobytes(), name
        else:
            assert params32[name].data.tobytes() == \
                params[name].data.astype(np.float32).tobytes(), name


# ---------------------------------------------------------------------------
# encoder
# ---------------------------------------------------------------------------

def test_encoder_mean_single_token_equals_state():
    hp, params = TINY, tiny_params(1)
    batch = one_sentence_batch([5])
    mean = encoder_mean(encoder_rows(batch), params, hp).data[0]

    emb = Tensor(params["embed.W"].data[[5]])
    h0 = zeros((1, hp.cell_size), np.float64)
    c0 = zeros((1, hp.cell_size), np.float64)
    fh, _ = lstm_cell_forward([emb], h0, c0, params["enc_fwd.W"], params["enc_fwd.b"])
    bh, _ = lstm_cell_forward([emb], h0, c0, params["enc_bwd.W"], params["enc_bwd.b"])
    np.testing.assert_allclose(mean, np.concatenate([fh.data[0], bh.data[0]]), rtol=1e-12)


def test_encode_zero_affines_return_biases():
    hp, params = TINY, tiny_params(2)
    params["mu.W"].data[:] = 0.0
    params["mu.b"].data[:] = 1.5
    params["logvar.W"].data[:] = 0.0
    params["logvar.b"].data[:] = -0.5
    latent = encode(encoder_rows(one_sentence_batch([5, 6, 5])), params, hp)
    np.testing.assert_allclose(latent.mu.data, np.full((1, hp.latent_dim), 1.5))
    np.testing.assert_allclose(latent.logvar.data, np.full((1, hp.latent_dim), -0.5))


def test_posterior_means_of_an_empty_sentence_is_mu_at_a_zero_mean():
    # an empty sentence has no step to average, so its encoder mean is zero
    hp, params = TINY, tiny_params(2)
    params["mu.b"].data[:] = np.random.default_rng(0).standard_normal(hp.latent_dim)
    expected = np.zeros((1, 2 * hp.cell_size)) @ params["mu.W"].data + params["mu.b"].data
    assert posterior_means([[]], params, hp).tobytes() == expected.tobytes()


def _unrolled_direction(ids, params, hp, prefix):
    """Hand-unrolled LSTM pass over the given token order; returns states."""
    h = zeros((1, hp.cell_size), np.float64)
    c = zeros((1, hp.cell_size), np.float64)
    states = []
    for i in ids:
        emb = Tensor(params["embed.W"].data[[i]])
        h, c = lstm_cell_forward([emb], h, c, params[f"{prefix}.W"], params[f"{prefix}.b"])
        states.append(h.data[0])
    return states


def test_encoder_mean_matches_hand_unrolled_two_step_cell():
    hp, params = TINY, tiny_params(3)
    t1, t2 = 5, 6
    mean = encoder_mean(encoder_rows(one_sentence_batch([t1, t2])), params, hp).data[0]
    fwd = _unrolled_direction([t1, t2], params, hp, "enc_fwd")
    bwd = _unrolled_direction([t2, t1], params, hp, "enc_bwd")  # reads reversed
    expected = np.concatenate([(fwd[0] + fwd[1]) / 2, (bwd[0] + bwd[1]) / 2])
    np.testing.assert_allclose(mean, expected, rtol=1e-12)


def test_encoder_reversal_swaps_directions():
    hp, params = TINY, tiny_params(4)
    fwd_half = encoder_mean(encoder_rows(one_sentence_batch([5, 6])), params, hp).data[0]
    rev_half = encoder_mean(encoder_rows(one_sentence_batch([6, 5])), params, hp).data[0]
    h = hp.cell_size
    # backward states over [5,6] are the forward pass of the reversed order,
    # computed by the other direction's weights; only the mean is compared
    # against the unrolled oracle above. Here: reversing input order leaves
    # each direction's mean computed over the same token multiset but
    # different state sequences, so the halves must genuinely differ.
    assert not np.allclose(fwd_half[:h], rev_half[:h])


def test_encoder_invariant_to_extra_padding():
    hp, params = TINY, tiny_params(5)
    base = one_sentence_batch([5, 6, 5])
    padded = Batch(
        ids=np.concatenate([base.ids, np.full((1, 3), PAD_ID, dtype=np.intp)], axis=1),
        lengths=base.lengths.copy(),
        vocab_size=base.vocab_size,
    )
    latent_a = encode(encoder_rows(base), params, hp)
    latent_b = encode(encoder_rows(padded), params, hp)
    np.testing.assert_allclose(latent_a.mu.data, latent_b.mu.data, atol=1e-14)
    np.testing.assert_allclose(latent_a.logvar.data, latent_b.logvar.data, atol=1e-14)


# ---------------------------------------------------------------------------
# reparameterization and KL
# ---------------------------------------------------------------------------

def test_reparameterize_zero_noise_returns_mean():
    mu = Tensor(np.array([[0.3, -1.2]]))
    logvar = Tensor(np.array([[0.4, 0.8]]))
    z = reparameterize(LatentParams(mu, logvar), np.zeros((1, 2)))
    np.testing.assert_array_equal(z.data, mu.data)


def test_reparameterize_unit_sigma_adds_noise():
    mu = Tensor(np.array([[0.3, -1.2]]))
    logvar = Tensor(np.zeros((1, 2)))
    e = np.array([[0.5, -0.25]])
    z = reparameterize(LatentParams(mu, logvar), e)
    np.testing.assert_allclose(z.data, mu.data + e, rtol=1e-15)


def test_reparameterize_sample_mean_within_four_standard_errors():
    rng = np.random.default_rng(42)
    mu = np.array([0.7, -0.3, 1.1])
    logvar = np.array([0.2, -0.5, 0.0])
    n = 1_000_000
    eps = rng.standard_normal((n, 3))
    z = reparameterize(LatentParams(Tensor(np.tile(mu, (n, 1))),
                                    Tensor(np.tile(logvar, (n, 1)))), eps)
    se = np.exp(logvar / 2) / math.sqrt(n)
    assert (np.abs(z.data.mean(axis=0) - mu) <= 4 * se).all()


def test_kl_zero_at_prior():
    latent = LatentParams(Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 4))))
    np.testing.assert_array_equal(kl_divergence(latent).data, np.zeros(2))


def test_kl_hand_value():
    latent = LatentParams(Tensor(np.array([[1.0]])), Tensor(np.array([[0.0]])))
    np.testing.assert_allclose(kl_divergence(latent).data, [0.5], rtol=1e-15)


def test_kl_matches_monte_carlo():
    rng = np.random.default_rng(11)
    mu = rng.standard_normal(4)
    logvar = rng.uniform(-1, 1, 4)
    closed = float(kl_divergence(LatentParams(Tensor(mu[None, :]),
                                              Tensor(logvar[None, :]))).data[0])
    n = 1_000_000
    sigma = np.exp(logvar / 2)
    z = mu + sigma * rng.standard_normal((n, 4))
    log_q = (-0.5 * math.log(2 * math.pi) - logvar / 2
             - (z - mu) ** 2 / (2 * sigma ** 2)).sum(axis=1)
    log_p = (-0.5 * math.log(2 * math.pi) - z ** 2 / 2).sum(axis=1)
    mc = float((log_q - log_p).mean())
    assert closed >= 0
    assert abs(closed - mc) / closed < 0.01


def test_kl_nonnegative_random_inputs():
    rng = np.random.default_rng(12)
    latent = LatentParams(Tensor(rng.standard_normal((50, 6))),
                          Tensor(rng.uniform(-3, 3, (50, 6))))
    assert (kl_divergence(latent).data >= 0).all()


# ---------------------------------------------------------------------------
# length countdown
# ---------------------------------------------------------------------------

# A countdown table whose row i is the constant i, so length_input reads back
# the countdown value it looked up.
COUNTDOWN_HP = HyperParams(vocab_size=7, cell_size=3, embed_size=4, latent_dim=2,
                           bow_width=5, len_embed_size=2, decoder_layers=2,
                           max_len_index=60, softmax_samples=3)


def countdown(start, steps, hp=COUNTDOWN_HP):
    params = init_params(hp, np.random.default_rng(0))
    params["len_table.W"].data[:] = np.arange(hp.max_len_index + 1)[:, None]
    return [int(value) for value in length_input(start - np.arange(steps), params, hp).data[:, 0]]


def test_countdown_sequence_from_three():
    assert countdown(3, 6) == [3, 2, 1, 0, 0, 0]


def test_countdown_from_zero_stays_zero():
    assert countdown(0, 4) == [0, 0, 0, 0]


def test_countdown_exact_for_all_starts_up_to_fifty():
    for start in range(51):
        values = countdown(start, start + 3)
        assert values == [max(start - t, 0) for t in range(start + 3)]
        assert values[start] == 0  # reaches zero after exactly `start` steps
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_length_embed_lookup_and_clamp():
    hp, params = TINY, tiny_params(6)
    first = length_input(np.array([2, 2]), params, hp).data
    np.testing.assert_array_equal(first[0], first[1])  # same index, same vector
    np.testing.assert_allclose(first[0], params["len_table.W"].data[2])
    beyond = length_input(np.array([hp.max_len_index + 5]), params, hp).data
    np.testing.assert_allclose(beyond[0], params["len_table.W"].data[hp.max_len_index])
    later = length_input(np.array([hp.max_len_index + 5 - 6]), params, hp).data
    np.testing.assert_allclose(later[0], params["len_table.W"].data[hp.max_len_index - 1])


# ---------------------------------------------------------------------------
# decoder step
# ---------------------------------------------------------------------------

def _step_inputs(hp, params, seed, rows=1):
    """z (1, latent), ``rows`` previous-word rows, the shared row [z, length
    input] and z's start state, one row per decoded row."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((1, hp.latent_dim))
    prev = rng.standard_normal((rows, hp.embed_size))
    shared = np.concatenate([z, rng.standard_normal((1, hp.len_embed_size))], axis=1)
    state = init_decoder_state(np.repeat(z, rows, axis=0), params, hp)
    return z, prev, shared, state


def test_decode_step_deterministic():
    hp, params = TINY, tiny_params(7)
    _, prev, shared, state = _step_inputs(hp, params, 0)
    logits_a, _ = decode_step(prev, shared, state, params, hp)
    logits_b, _ = decode_step(prev, shared, state, params, hp)
    np.testing.assert_array_equal(logits_a, logits_b)


def test_decode_step_into_buffer_byte_equal():
    hp, params = TINY, tiny_params(8)
    _, prev, shared, state = _step_inputs(hp, params, 1, rows=3)
    logits, new_state = decode_step(prev, shared, state, params, hp)
    buffer = np.full((5, hp.vocab_size), np.nan)
    into, into_state = decode_step(prev, shared, state, params, hp, out=buffer)
    assert into.base is buffer and into.shape == (3, hp.vocab_size)
    assert into.tobytes() == logits.tobytes()
    assert np.isnan(buffer[3:]).all()
    for (h, c), (h_into, c_into) in zip(new_state, into_state):
        assert h.tobytes() == h_into.tobytes() and c.tobytes() == c_into.tobytes()


@pytest.mark.parametrize("seed", range(5))
def test_decode_step_sensitive_to_latent(seed):
    hp = TINY
    params = tiny_params(100 + seed)
    z, prev, shared, state = _step_inputs(hp, params, seed)
    logits_a, _ = decode_step(prev, shared, state, params, hp)
    z_shift = z + 0.5
    shared_shift = shared.copy()
    shared_shift[:, :hp.latent_dim] = z_shift
    logits_b, _ = decode_step(prev, shared_shift, init_decoder_state(z_shift, params, hp),
                              params, hp)
    assert np.abs(logits_a - logits_b).max() > 1e-6


@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("seed", range(3))
def test_decode_step_byte_equal_to_tensor_step(seed, layers):
    # the graph-free step sums each layer's gate terms in the reference
    # cell's order, with the Tensor ops' arithmetic, so beams match the
    # Tensor decoder bit for bit
    hp = replace(TINY, decoder_layers=layers)
    params = tiny_params(300 + seed, hp)
    z, prev, shared, _ = _step_inputs(hp, params, seed, rows=4)
    rng = np.random.default_rng(400 + seed)
    state = [(rng.standard_normal((4, hp.cell_size)), rng.standard_normal((4, hp.cell_size)))
             for _ in range(layers)]
    logits, new_state = decode_step(prev, shared, state, params, hp)
    ref_logits, ref_state = lstm_reference.decode_step(
        Tensor(prev), Tensor(shared), lstm_reference.as_tensors(state), params, hp)
    assert logits.tobytes() == ref_logits.data.tobytes()
    for (h, c), (ref_h, ref_c) in zip(new_state, ref_state):
        assert h.tobytes() == ref_h.data.tobytes()
        assert c.tobytes() == ref_c.data.tobytes()
    start = lstm_reference.init_decoder_state(Tensor(z), params, hp)
    for (h, c), (ref_h, ref_c) in zip(init_decoder_state(z, params, hp), start):
        assert h.tobytes() == ref_h.data.tobytes()
        assert c.tobytes() == ref_c.data.tobytes()


@pytest.mark.parametrize("lenemb", [True, False])
@pytest.mark.parametrize("layers", [1, 2, 3])
def test_decoding_along_teacher_forcing_reproduces_the_training_decoder(layers, lenemb):
    # decode_step (lstm_cell, z and the length input one shared row) and
    # decoder_states (lstm_sequence, z one row per sentence) must read the
    # same rows of every layer's weight. They sum the gates in different
    # orders, so they agree to rounding: rtol 1e-12 plus 1e-12 of the
    # largest |entry|. One sentence is longer than the length table.
    hp = replace(TINY, decoder_layers=layers, lenemb=lenemb)
    params = tiny_params(600 + layers, hp)
    rng = np.random.default_rng(700 + layers)
    for _, t in params.items():
        t.data[:] = rng.uniform(-1.0, 1.0, t.data.shape)
    sentences = [[5, 6, 5], [6], [5, 5, 6, 6, 5, 6, 5, 6]]
    rows = batch_rows(make_batch(sentences, hp.vocab_size))
    n, steps = rows.dec_in.shape
    z = rng.standard_normal((n, hp.latent_dim))
    states = decoder_states(Tensor(z), rows.dec_in, rows.countdown, params, hp)
    logits = sampled_logits(states, params["out.W"], params["out.b"], np.arange(hp.vocab_size))

    decoded_states = np.empty((steps, n, hp.cell_size))
    decoded_logits = np.empty((steps, n, hp.vocab_size))
    for r, sentence in enumerate(sentences):
        state = init_decoder_state(z[r:r + 1], params, hp)
        for t in range(steps):
            len_row = length_input(np.array([len(sentence) - t]), params, hp).data
            shared = np.concatenate([z[r:r + 1], len_row], axis=1)
            prev = params["embed.W"].data[rows.dec_in[r, t:t + 1]]
            decoded_logits[t, r], state = decode_step(prev, shared, state, params, hp)
            decoded_states[t, r] = state[-1][0]
    for actual, expected in [(decoded_states, states.data), (decoded_logits, logits.data)]:
        expected = expected.reshape(actual.shape)
        np.testing.assert_allclose(actual, expected, rtol=1e-12,
                                   atol=1e-12 * np.abs(expected).max())


def test_z_enters_the_teacher_forced_decoder_once_per_sentence():
    # no concat_cols or gather_rows node copies z per row: each layer's
    # lstm_sequence node reads it as a (B, latent) block, and dec_init's
    # matmul maps it to layer 0's cell state
    hp, params = TINY, tiny_params(5)
    rows = batch_rows(make_batch([[5, 6, 5], [6]], hp.vocab_size))
    z = Tensor(np.random.default_rng(5).standard_normal((2, hp.latent_dim)))
    states = decoder_states(z, rows.dec_in, rows.countdown, params, hp)
    readers = sorted(node._backward.__qualname__ for node in _toposort(states)
                     if any(parent is z for parent in node._parents))
    assert readers == ["lstm_sequence.<locals>.bw"] * hp.decoder_layers + ["matmul.<locals>.bw"]


# ---------------------------------------------------------------------------
# bag-of-words loss
# ---------------------------------------------------------------------------

def test_bow_loss_uniform_logits_is_n_log_v():
    hp, params = TINY, tiny_params(9)
    for name in ("bow_h.W", "bow_h.b", "bow_out.W", "bow_out.b"):
        params[name].data[:] = 0.0
    z = Tensor(np.random.default_rng(0).standard_normal((1, hp.latent_dim)))
    loss = bow_loss(z, (np.zeros(3, int), np.array([5, 6, 5])), params)
    np.testing.assert_allclose(float(loss.data), 3 * math.log(hp.vocab_size), rtol=1e-12)


def test_bow_loss_perfect_prediction_tends_to_zero():
    hp, params = TINY, tiny_params(10)
    for name in ("bow_h.W", "bow_h.b", "bow_out.W"):
        params[name].data[:] = 0.0
    params["bow_out.b"].data[:] = -50.0
    params["bow_out.b"].data[5] = 50.0
    z = Tensor(np.zeros((1, hp.latent_dim)))
    assert float(bow_loss(z, (np.zeros(3, int), np.full(3, 5)), params).data) < 1e-8


def test_bow_loss_empty_sentence_contributes_zero():
    hp, params = TINY, tiny_params(11)
    z = Tensor(np.random.default_rng(1).standard_normal((1, hp.latent_dim)))
    no_words = (np.zeros(0, int), np.zeros(0, int))
    assert float(bow_loss(z, no_words, params).data) == 0.0


def test_bow_loss_matches_direct_formula():
    hp, params = TINY, tiny_params(12)
    rng = np.random.default_rng(2)
    z_arr = rng.standard_normal((2, hp.latent_dim))
    counts = rng.integers(0, 3, size=(2, hp.vocab_size)).astype(float)
    sentence, word = np.nonzero(counts)
    pairs = tuple(np.repeat(a, counts[sentence, word].astype(int)) for a in (sentence, word))
    loss = float(bow_loss(Tensor(z_arr), pairs, params).data)

    hidden = np.tanh(z_arr @ params["bow_h.W"].data + params["bow_h.b"].data)
    logits = hidden @ params["bow_out.W"].data + params["bow_out.b"].data
    log_probs = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    expected = float(-(counts * log_probs).sum() / 2)
    np.testing.assert_allclose(loss, expected, rtol=1e-10)


# ---------------------------------------------------------------------------
# sampled softmax
# ---------------------------------------------------------------------------

class StubRng:
    """Deterministic stand-in for Generator.random."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)

    def random(self, size):
        assert tuple(np.atleast_1d(size)) == self.values.shape
        return self.values


def sampled_loss(out_w, out_b, hidden, targets, sample_count, rng):
    """Sampled-softmax cross-entropy of one decoder step, as total_loss scores it."""
    targets = np.asarray(targets)
    ids, target_pos = draw_negatives(rng, out_w.data.shape[1], sample_count, targets)
    logits = sampled_logits(hidden, out_w, out_b, ids)
    return cross_entropy_rows(logits, np.arange(targets.size), target_pos)


def full_loss(out_w, out_b, hidden, targets):
    logits = hidden.data @ out_w.data + out_b.data
    m = logits.max(axis=1, keepdims=True)
    log_probs = logits - m - np.log(np.exp(logits - m).sum(axis=1, keepdims=True))
    return float(-log_probs[np.arange(len(targets)), targets].sum())


@pytest.mark.parametrize("targets,sample_count", [
    ([2, 0, 6], 1), ([2, 0, 6], 3), ([2, 0, 6, 2], 4), ([2, 0, 6], 6),
    ([3, 3, 3], 2), (list(range(7)), 5),
], ids=["one-negative", "some-negatives", "repeated-target", "whole-vocab",
        "one-distinct-target", "every-id-a-target"])
def test_draw_negatives_shares_one_set_holding_every_target(targets, sample_count):
    targets = np.array(targets)
    ids, target_pos = draw_negatives(np.random.default_rng(3), 7, sample_count, targets)
    distinct = set(targets.tolist())
    assert len(set(ids.tolist())) == len(ids)
    np.testing.assert_array_equal(ids[target_pos], targets)
    negatives = set(ids.tolist()) - distinct
    assert len(negatives) == min(sample_count, 7 - len(distinct))
    assert negatives <= set(range(7))
    if sample_count >= 7 - len(distinct):
        assert sorted(ids) == list(range(7))
    with pytest.raises(ValueError):
        draw_negatives(np.random.default_rng(3), 7, 0, targets)


def test_draw_negatives_is_uniform_over_non_targets():
    rng = np.random.default_rng(11)
    counts = np.zeros(10)
    trials = 4000
    for _ in range(trials):
        ids, _ = draw_negatives(rng, 10, 3, np.array([4, 7]))
        assert np.all(np.diff(ids) > 0)   # ascending
        counts[ids[~np.isin(ids, [4, 7])]] += 1
    assert counts[4] == counts[7] == 0
    share = np.delete(counts, [4, 7]) / trials
    np.testing.assert_allclose(share, 3 / 8, atol=0.03)


def test_sampled_softmax_hand_computed_two_way():
    # V=3, target 0, the single negative forced to id 1 (the smallest key)
    out_w = Tensor(np.array([[0.5, -0.2, 0.1], [0.3, 0.8, -0.4]]))
    out_b = Tensor(np.array([0.05, -0.1, 0.2]))
    hidden = Tensor(np.array([[1.0, -2.0]]))
    stub = StubRng([0.05, 0.1, 0.9])
    loss = float(sampled_loss(out_w, out_b, hidden, [0], 1, stub).data)

    logits = hidden.data[0] @ out_w.data + out_b.data
    expected = -math.log(math.exp(logits[0]) / (math.exp(logits[0]) + math.exp(logits[1])))
    np.testing.assert_allclose(loss, expected, rtol=1e-12)


def test_sampled_softmax_full_negatives_equals_full_cross_entropy():
    rng = np.random.default_rng(4)
    v = 9
    out_w = Tensor(rng.standard_normal((3, v)))
    out_b = Tensor(rng.standard_normal(v))
    hidden = Tensor(rng.standard_normal((4, 3)))
    targets = np.array([4, 1, 4, 8])
    loss = float(sampled_loss(out_w, out_b, hidden, targets, v - 1,
                              np.random.default_rng(5)).data)
    np.testing.assert_allclose(loss, full_loss(out_w, out_b, hidden, targets), rtol=1e-12)


def test_sampled_softmax_expectation_close_to_full_loss():
    # 20-word vocabulary: the mean over many resamplings stays within 5%
    rng = np.random.default_rng(6)
    v = 20
    out_w = Tensor(0.5 * rng.standard_normal((4, v)))
    out_b = Tensor(0.1 * rng.standard_normal(v))
    hidden = Tensor(rng.standard_normal((1, 4)))
    targets = [7]
    full = full_loss(out_w, out_b, hidden, targets)

    draws = np.random.default_rng(7)
    estimates = [float(sampled_loss(out_w, out_b, hidden, targets, 18, draws).data)
                 for _ in range(4000)]
    assert abs(np.mean(estimates) - full) / full < 0.05


# ---------------------------------------------------------------------------
# total loss
# ---------------------------------------------------------------------------

def _two_sentence_batch(hp=TINY):
    return make_batch([[5, 6, 5], [6, 5]], hp.vocab_size)


def test_total_loss_zero_kl_weight_excludes_kl():
    hp, params = TINY, tiny_params(13)
    batch = _two_sentence_batch()
    eps = np.zeros((2, hp.latent_dim))
    _, comps = total_loss(batch, params, hp, 0.0, "eval", eps=eps)
    assert comps["kl"] != 0.0
    np.testing.assert_allclose(comps["total"], comps["reconstruction"] + comps["bow"],
                               rtol=1e-12)


def test_total_loss_prior_matched_posterior_has_zero_kl():
    hp, params = TINY, tiny_params(14)
    for name in ("mu.W", "mu.b", "logvar.W", "logvar.b"):
        params[name].data[:] = 0.0
    _, comps = total_loss(_two_sentence_batch(), params, hp, 1.0, "eval",
                          eps=np.zeros((2, hp.latent_dim)))
    assert comps["kl"] == 0.0
    np.testing.assert_allclose(comps["total"], comps["reconstruction"] + comps["bow"],
                               rtol=1e-12)


def test_total_loss_eval_deterministic_given_eps():
    hp, params = TINY, tiny_params(15)
    batch = _two_sentence_batch()
    eps = np.random.default_rng(8).standard_normal((2, hp.latent_dim))
    a = total_loss(batch, params, hp, 0.5, "eval", eps=eps)[1]
    b = total_loss(batch, params, hp, 0.5, "eval", eps=eps)[1]
    assert a == b


def test_eval_loss_memory_stays_under_three_logit_matrices():
    # the desk shape at V=5000: the (T*B, V) logits and the log-probabilities
    # the cross-entropy node keeps are two such matrices; the bound leaves
    # one more for everything else
    hp = HyperParams(vocab_size=5000)
    params = init_params(hp, np.random.default_rng(26))
    rng = np.random.default_rng(27)
    batch = make_batch([list(rng.integers(4, hp.vocab_size, size=15)) for _ in range(16)],
                       hp.vocab_size)
    logit_bytes = (15 + 1) * 16 * hp.vocab_size * 4
    tracemalloc.start()
    try:
        total_loss(batch, params, hp, 1.0, "eval")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.0 * logit_bytes


def test_eval_loss_does_not_hold_a_copy_of_the_output_weight():
    # an output weight as large as the logits (H = T*B = 128, V = 20000):
    # the logits and the log-probabilities are two (H, V)-sized arrays and
    # the bound leaves one more for everything else, which a copy of
    # out.W's columns kept by the scoring node would fill on its own
    hp = HyperParams(vocab_size=20000, cell_size=128)
    params = init_params(hp, np.random.default_rng(28))
    rng = np.random.default_rng(29)
    batch = make_batch([rng.integers(5, hp.vocab_size, size=15).tolist() for _ in range(8)],
                       hp.vocab_size)
    weight_bytes = params["out.W"].data.nbytes
    assert (15 + 1) * 8 * hp.vocab_size * 4 == weight_bytes
    tracemalloc.start()
    try:
        total_loss(batch, params, hp, 1.0, "eval")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.0 * weight_bytes


def _padded_batch(hp=TINY):
    # lengths 5, 1, 0 and 2: 12 real rows (words and EOS) of 4 * 6
    return make_batch([[5, 6, 5, 4, 3], [6], [], [4, 5]], hp.vocab_size)


@pytest.mark.parametrize("mode", ["train", "eval"])
def test_only_the_real_decoder_rows_reach_the_output_layer(monkeypatch, mode):
    scored = []

    def counted(h, w, b, ids):
        scored.append(h.data.shape[0])
        return sampled_logits(h, w, b, ids)

    monkeypatch.setattr("lenvae.model.sampled_logits", counted)
    hp, params = TINY, tiny_params(30)
    batch = _padded_batch()
    total_loss(batch, params, hp, 1.0, mode, np.random.default_rng(31),
               dropout_keep=0.87, word_drop_p=0.2)
    assert scored == [int((batch.lengths + 1).sum())] == [12]


def test_eval_loss_memory_follows_the_real_rows_not_the_padded_ones():
    # one 30-word sentence and fifteen 2-word ones: 76 of 496 rows are real.
    # The bound is six (real rows, V) float32 arrays; the padded (496, V)
    # logits alone are 6.5 of them
    hp = HyperParams(vocab_size=5000)
    params = init_params(hp, np.random.default_rng(32))
    rng = np.random.default_rng(33)
    sentences = [rng.integers(4, hp.vocab_size, size=n).tolist() for n in [30] + [2] * 15]
    batch = make_batch(sentences, hp.vocab_size)
    real_rows = int((batch.lengths + 1).sum())
    assert (real_rows, batch.ids.size + batch.ids.shape[0]) == (76, 496)
    tracemalloc.start()
    try:
        total_loss(batch, params, hp, 1.0, "eval")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6.0 * real_rows * hp.vocab_size * 4


def test_training_draws_each_random_array_at_the_padded_batch_shape():
    # word dropout, eps, the hidden-state dropout mask and the candidate keys
    # are drawn in this order at the shapes of the whole padded batch, so
    # each sentence sees the same noise whichever rows are computed
    hp, params = TINY, tiny_params(34)
    batch = _padded_batch()
    rows, width = batch.ids.shape
    rng = np.random.default_rng(35)
    total_loss(batch, params, hp, 1.0, "train", rng, dropout_keep=0.87, word_drop_p=0.2)
    reference = np.random.default_rng(35)
    reference.random((rows, width + 1))
    reference.standard_normal((rows, hp.latent_dim))
    reference.random(((width + 1) * rows, hp.cell_size))
    reference.random(hp.vocab_size)
    assert rng.bit_generator.state == reference.bit_generator.state


def _loss_and_gradients(batch, params, hp, mode, rng=None, **kwargs):
    params.zero_grads()
    loss, _ = total_loss(batch, params, hp, 1.0, mode, rng, **kwargs)
    loss.backward()
    return loss.data.tobytes(), {name: t.dense_grad().tobytes() for name, t in params.items()}


def test_training_reconstruction_equals_eval_with_all_negatives():
    # a candidate set that covers V, with V-1 or with V-U negatives (U the
    # batch's distinct targets), is arange(V), eval's set: the same nodes on
    # the same arrays, so the loss and every gradient agree bit for bit
    for dtype, vocab_size in itertools.product((np.float64, np.float32), (7, 50)):
        rng = np.random.default_rng(vocab_size)
        batch = make_batch([list(rng.integers(4, vocab_size, size=n)) for n in (3, 5, 2)],
                           vocab_size)
        distinct = np.unique(batch_rows(batch).targets).size
        eps = rng.standard_normal((3, 2))
        for samples in (vocab_size - 1, vocab_size - distinct):
            hp = HyperParams(vocab_size=vocab_size, cell_size=3, embed_size=4, latent_dim=2,
                             bow_width=5, len_embed_size=2, decoder_layers=2,
                             max_len_index=6, softmax_samples=samples)
            params = init_params(hp, np.random.default_rng(16), dtype=dtype)
            train = _loss_and_gradients(batch, params, hp, "train", np.random.default_rng(10),
                                        dropout_keep=1.0, eps=eps)
            evaluated = _loss_and_gradients(batch, params, hp, "eval", eps=eps)
            assert train == evaluated, (dtype, vocab_size, samples)


# float32 sampled softmax with every other id as a negative is float32 eval
# bit for bit. Against the float64 full softmax on the same weights it
# differed by at most 1.3e-7 relative over 60 instances (V = 7, 50 and 400,
# seeds 0-19, weights N(0, 0.25)); the bound is 1e-6.
FLOAT32_SOFTMAX_RTOL = 1e-6


@pytest.mark.parametrize("seed", range(4))
def test_float32_sampled_softmax_with_all_negatives_equals_full_softmax(seed):
    hp = HyperParams(vocab_size=50, cell_size=16, embed_size=8, latent_dim=4,
                     bow_width=5, len_embed_size=2, decoder_layers=2,
                     max_len_index=12, softmax_samples=49)   # V-1 negatives
    rng = np.random.default_rng(seed)
    params = init_params(hp, np.random.default_rng(seed))
    for _, t in params.items():
        t.data[:] = 0.5 * rng.standard_normal(t.data.shape)
    params64 = init_params(hp, np.random.default_rng(seed), dtype=np.float64)
    for name, t in params.items():
        params64[name].data[:] = t.data
    batch = make_batch([list(rng.integers(4, hp.vocab_size, size=rng.integers(1, 10)))
                        for _ in range(6)], hp.vocab_size)
    eps = np.zeros((6, hp.latent_dim))
    train_loss, train = total_loss(batch, params, hp, 1.0, "train", np.random.default_rng(1),
                                   dropout_keep=1.0, eps=eps)
    _, full = total_loss(batch, params, hp, 1.0, "eval", eps=eps)
    _, full64 = total_loss(batch, params64, hp, 1.0, "eval", eps=eps)
    assert train_loss.data.dtype == np.float32
    assert train["reconstruction"] == full["reconstruction"]
    np.testing.assert_allclose(train["reconstruction"], full64["reconstruction"],
                               rtol=FLOAT32_SOFTMAX_RTOL, atol=0)


def _log_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _recon_inputs(hp, params, batch, eps):
    """Time-major (T*B, cell) teacher-forced states, their targets and the
    indices of the real rows."""
    rows = batch_rows(batch)
    z = reparameterize(encode(rows.encoder, params, hp), eps)
    states = decoder_states(z, rows.dec_in, rows.countdown, params, hp).data
    return states, rows.targets, rows.live


def test_training_reconstruction_is_one_sampled_softmax_over_one_shared_set():
    # no dropout of either kind and a given eps: the candidate draw is the
    # objective's only use of rng, one rng.random(V) for the whole batch
    hp = replace(TINY, vocab_size=12, softmax_samples=2)
    params = tiny_params(19, hp)
    batch = make_batch([[5, 6, 5, 7], [8, 5], [9, 10, 6]], hp.vocab_size)
    eps = np.random.default_rng(20).standard_normal((3, hp.latent_dim))
    rng = np.random.default_rng(21)
    _, comps = total_loss(batch, params, hp, 1.0, "train", rng, dropout_keep=1.0,
                          word_drop_p=0.0, eps=eps)

    reference = np.random.default_rng(21)
    keys = reference.random(hp.vocab_size)
    assert rng.bit_generator.state == reference.bit_generator.state
    states, targets, live = _recon_inputs(hp, params, batch, eps)
    distinct = np.unique(targets)   # every row's target, PAD included
    keys[distinct] = 2.0
    negatives = np.argsort(keys)[:hp.softmax_samples]
    in_set = np.isin(np.arange(hp.vocab_size), distinct) | \
        np.isin(np.arange(hp.vocab_size), negatives)
    ids = np.flatnonzero(in_set)   # the set, ascending
    assert len(ids) < hp.vocab_size   # a proper subset of the vocabulary
    w, b = params["out.W"].data, params["out.b"].data
    log_probs = _log_softmax(states[live] @ w[:, ids] + b[ids])
    target_pos = np.cumsum(in_set)[targets[live]] - 1
    expected = -log_probs[np.arange(live.size), target_pos].sum() / 3
    np.testing.assert_allclose(comps["reconstruction"], expected, rtol=1e-12)


def _op_nodes(loss):
    return sum(node._backward is not None for node in _toposort(loss))


def test_total_loss_node_count_does_not_grow_with_sentence_length():
    hp, params = TINY, tiny_params(22)
    counts = []
    for width in (3, 9):
        batch = make_batch([[5] * width, [6, 5]], hp.vocab_size)
        loss, _ = total_loss(batch, params, hp, 0.5, "train", np.random.default_rng(23),
                             dropout_keep=0.8, word_drop_p=0.2)
        assert batch.ids.shape[1] == width
        counts.append(_op_nodes(loss))
    assert counts[0] == counts[1]


def test_eval_reconstruction_equals_per_step_sum():
    # the per-step form: one full softmax over each decoder step's B rows
    hp, params = TINY, tiny_params(24)
    batch = make_batch([[5, 6, 5, 4], [6, 5], [3]], hp.vocab_size)
    eps = np.random.default_rng(25).standard_normal((3, hp.latent_dim))
    _, comps = total_loss(batch, params, hp, 1.0, "eval", eps=eps)

    states, targets, live = _recon_inputs(hp, params, batch, eps)
    n = batch.ids.shape[0]
    per_step = 0.0
    for t in range(targets.size // n):
        rows = live[(live >= t * n) & (live < (t + 1) * n)]
        logits = affine(Tensor(states[rows]), params["out.W"], params["out.b"])
        per_step += float(cross_entropy_rows(logits, np.arange(rows.size), targets[rows]).data)
    np.testing.assert_allclose(comps["reconstruction"], per_step / n, rtol=1e-12)


def test_total_loss_rejects_bad_mode_and_weight():
    hp, params = TINY, tiny_params(17)
    batch = _two_sentence_batch()
    with pytest.raises(ValueError):
        total_loss(batch, params, hp, 0.5, "predict")
    with pytest.raises(ValueError):
        total_loss(batch, params, hp, 1.5, "eval")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 12), min_size=1, max_size=8), st.integers(0, 3),
       st.integers(0, 2**32 - 1))
def test_batch_rows_match_a_per_sentence_reference(lengths, extra_pad, seed):
    # the batch of test_encoder_invariant_to_extra_padding, at any B and
    # lengths; every array is rebuilt one sentence at a time
    rng = np.random.default_rng(seed)
    sentences = [rng.integers(4, TINY.vocab_size, size=n).tolist() for n in lengths]
    base = make_batch(sentences, TINY.vocab_size)
    batch = Batch(ids=np.pad(base.ids, ((0, 0), (0, extra_pad)), constant_values=PAD_ID),
                  lengths=base.lengths, vocab_size=base.vocab_size)
    n, width = batch.ids.shape
    fwd, bwd = (np.full((width, n), PAD_ID) for _ in range(2))
    weights = np.zeros((width, n))
    dec_in = np.full((n, width + 1), PAD_ID)
    targets = np.full((width + 1, n), PAD_ID)
    countdown = np.zeros((width + 1, n), dtype=int)
    bow_pairs = ([r for r, words in enumerate(sentences) for _ in words],
                 [w for words in sentences for w in words])
    for r, words in enumerate(sentences):
        fwd[:len(words), r] = words
        bwd[:len(words), r] = words[::-1]
        weights[:len(words), r] = 1.0 / max(len(words), 1)
        dec_in[r, :len(words) + 1] = [BOS_ID] + words
        targets[:len(words) + 1, r] = words + [EOS_ID]
        countdown[:, r] = [len(words) - t for t in range(width + 1)]

    rows = batch_rows(batch)
    # time-major: step t of sentence r at t*B + r
    np.testing.assert_array_equal(rows.encoder.enc_ids[0], fwd.ravel())
    np.testing.assert_array_equal(rows.encoder.enc_ids[1], bwd.ravel())
    assert rows.encoder.enc_weights.tobytes() == weights.tobytes()
    np.testing.assert_array_equal(rows.dec_in, dec_in)
    np.testing.assert_array_equal(rows.targets, targets.ravel())
    np.testing.assert_array_equal(rows.live, np.flatnonzero(targets.ravel() != PAD_ID))
    np.testing.assert_array_equal(rows.countdown, countdown.ravel())
    for got, expected in zip(rows.bow_pairs, bow_pairs, strict=True):
        np.testing.assert_array_equal(got, np.array(expected, dtype=int))


def _layout_readers():
    """Qualified names of the functions in model.py that read an ``.ids``,
    ``.lengths`` or ``.bow`` attribute."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Attribute) and child.attr in ("ids", "lengths", "bow"):
                found.add(".".join(scope))
            visit(child, scope)

    visit(ast.parse(Path(model.__file__).read_text()), ())
    return found


def test_only_batch_rows_reads_a_batch_layout():
    # batch_rows alone, with encoder_rows as its encoder half, turns a batch's
    # ids and lengths into the model's rows and bag-of-words pairs, and
    # nothing reads the batch's (B, V) counts, so moving to packed sequences
    # (sorted sentences, a live prefix per step) changes those two,
    # lstm_sequence and weighted_step_sum only
    assert _layout_readers() == {"batch_rows", "encoder_rows"}


def test_full_model_gradient_check_single_instance():
    params, loss_fn = tiny_gradcheck_instance(0)
    assert grad_check(loss_fn, params, eps=1e-5) < 1e-4


def test_gradcheck_loss_fn_draws_the_same_noise_every_call():
    params, loss_fn = tiny_gradcheck_instance(0)
    first = loss_fn(params)
    first.backward()
    grads = [t.dense_grad().copy() for _, t in params.items()]
    params.zero_grads()
    second = loss_fn(params)
    second.backward()
    assert second.data.tobytes() == first.data.tobytes()
    for (_, t), grad in zip(params.items(), grads):
        assert t.dense_grad().tobytes() == grad.tobytes()
    w = params["out.W"].data
    original = w[0, 0]
    w[0, 0] = original + 1e-3
    assert loss_fn(params).data != first.data
    w[0, 0] = original
    assert loss_fn(params).data.tobytes() == first.data.tobytes()


@pytest.mark.parametrize("index", range(len(GRADCHECK_SEEDS)))
def test_gradcheck_instance_meets_screening_rule(index):
    # every nonzero gradient must be resolvable by a central difference
    params, loss_fn = tiny_gradcheck_instance(index)
    loss_fn(params).backward()
    grads = np.concatenate([np.abs(t.dense_grad()).ravel() for _, t in params.items()])
    assert grads[grads > 0].min() >= GRADCHECK_MIN_GRADIENT
    # the candidate set is a proper subset: 5 of the 7 output biases take part
    assert np.count_nonzero(params["out.b"].dense_grad()) == 5


@pytest.mark.parametrize("index", range(1, len(GRADCHECK_SEEDS)))
def test_full_model_gradient_check_remaining_instances(index):
    # instance 0 is covered by test_full_model_gradient_check_single_instance
    params, loss_fn = tiny_gradcheck_instance(index)
    assert grad_check(loss_fn, params, eps=1e-5) < 1e-4


@pytest.mark.parametrize("changes, index", [
    ({"lenemb": False}, 7),
    ({"decoder_layers": 1}, 1),
], ids=["no-lenemb", "one-layer"])
def test_full_model_gradient_check_other_shapes(changes, index):
    # the default instance has the length table and two decoder layers; the
    # index is the first whose changed instance meets the screening rule
    params, loss_fn = tiny_gradcheck_instance(index, **changes)
    loss_fn(params).backward()
    grads = np.concatenate([np.abs(t.dense_grad()).ravel() for _, t in params.items()])
    assert grads[grads > 0].min() >= GRADCHECK_MIN_GRADIENT
    assert grad_check(loss_fn, params, eps=1e-5) < 1e-4


def test_no_lenemb_model_has_no_length_table():
    hp = replace(TINY, lenemb=False)
    params = init_params(hp, np.random.default_rng(18))
    assert "len_table.W" not in dict(params.items())
    batch = _two_sentence_batch(hp)
    _, comps = total_loss(batch, params, hp, 0.5, "eval",
                          eps=np.zeros((2, hp.latent_dim)))
    assert np.isfinite(comps["total"])
    for t in (0, 5):
        zero = length_input(np.array([3, 9]) - t, params, hp).data
        np.testing.assert_array_equal(zero, np.zeros((2, hp.len_embed_size)))
