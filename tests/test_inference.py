"""Beam search against brute-force enumeration, plus decode plumbing."""

import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest

from lenvae import inference
from lenvae.checkpoint import checkpoint_load
from lenvae.config import ConfigError, load_run_config
from lenvae.inference import (
    NATURAL, DecodeRequest, beam_search, best_entries, detokenize, requested_length,
    summarize,
)
from lenvae.model import HyperParams, init_params
from lenvae.numerics import Tensor, concat_cols, gather_rows, log_softmax_rows, zeros
from lenvae.textpipe import BOS_ID, EOS_ID, PAD_ID, build_vocab
# the Tensor decoder step, an implementation independent of the array one
from lstm_reference import decode_step, init_decoder_state


def tiny_hp(v=4, layers=1, lenemb=True):
    return HyperParams(vocab_size=v, cell_size=5, embed_size=4, latent_dim=3,
                       bow_width=4, len_embed_size=2, decoder_layers=layers,
                       max_len_index=10, softmax_samples=2, lenemb=lenemb)


def random_model(seed, hp, dtype=np.float64):
    """Standard-normal parameters and z, rounded to ``dtype``: float64, the
    reference dtype, unless a test asks for the float32 compute type."""
    params = init_params(hp, np.random.default_rng(seed), dtype=dtype)
    for _, t in params.items():
        t.data[:] = np.random.default_rng(seed + 1).standard_normal(t.data.shape)
    z = np.random.default_rng(seed + 2).standard_normal(hp.latent_dim).astype(dtype)
    return params, z


def shared_row(z, remaining, params, hp):
    """The (1, latent + len_embed) Tensor row [z, length input] that every
    row of a step reads, for the countdown value ``remaining``."""
    if hp.lenemb:
        idx = np.array([min(remaining, hp.max_len_index)])
        len_emb = gather_rows(params["len_table.W"], idx)
    else:
        len_emb = zeros((1, hp.len_embed_size), z.dtype)
    return concat_cols([Tensor(z[None, :]), len_emb])


def step_log_probs(prev_id, state, z, params, hp, remaining):
    """Single decode step on raw arrays; returns (log_probs, new state)."""
    prev = gather_rows(params["embed.W"], np.array([prev_id]))
    logits, new_state = decode_step(prev, shared_row(z, remaining, params, hp), state,
                                    params, hp)
    return log_softmax_rows(logits.data)[0], new_state


def brute_force_best(z, params, hp, max_len, initial_length):
    """Exhaustively score every sequence over the full vocabulary.

    Sequences end early on EOS; all others run to ``max_len``. Returns the
    best (ids, log_prob).
    """
    best = (None, -np.inf)

    def expand(prefix, logp, state, remaining):
        nonlocal best
        if prefix and prefix[-1] == EOS_ID:
            if logp > best[1]:
                best = (prefix, logp)
            return
        if len(prefix) == max_len:
            if logp > best[1]:
                best = (prefix, logp)
            return
        prev = prefix[-1] if prefix else BOS_ID
        log_probs, new_state = step_log_probs(prev, state, z, params, hp, remaining)
        for v in range(hp.vocab_size):
            expand(prefix + [v], logp + log_probs[v], new_state,
                   max(remaining - 1, 0))

    z_row = Tensor(z[None, :])
    expand([], 0.0, init_decoder_state(z_row, params, hp), initial_length)
    return best


@pytest.mark.parametrize("seed", range(6))
def test_beam_matches_brute_force_enumeration(seed):
    hp = tiny_hp(v=4)
    params, z = random_model(10 * seed, hp)
    expected_ids, expected_logp = brute_force_best(z, params, hp, max_len=3,
                                                   initial_length=3)
    request = DecodeRequest(beam_width=64, max_tokens=3)
    result = beam_search(z, request, params, hp, initial_length=3, forbidden_ids=())
    np.testing.assert_allclose(result.log_prob, expected_logp, rtol=1e-10)
    assert result.ids == expected_ids


@pytest.mark.parametrize("seed", range(6))
def test_float32_beam_equals_float32_brute_force_exactly(seed):
    # both sides decode in float32, one row at a time against the beam's
    # stacked rows, and sum each path's log-probabilities in the same order
    hp = tiny_hp(v=4)
    params, z = random_model(10 * seed, hp, dtype=np.float32)
    expected_ids, expected_logp = brute_force_best(z, params, hp, max_len=3,
                                                   initial_length=3)
    request = DecodeRequest(beam_width=64, max_tokens=3)
    result = beam_search(z, request, params, hp, initial_length=3, forbidden_ids=())
    assert expected_logp.dtype == np.float32
    assert result.log_prob == float(expected_logp)
    assert result.ids == expected_ids


def greedy_decode(z, params, hp, max_len, initial_length, forbidden):
    state = init_decoder_state(Tensor(z[None, :]), params, hp)
    ids, logp, prev, remaining = [], 0.0, BOS_ID, initial_length
    for _ in range(max_len):
        log_probs, state = step_log_probs(prev, state, z, params, hp, remaining)
        log_probs = log_probs.copy()
        for f in forbidden:
            log_probs[f] = -np.inf
        v = int(np.argmax(log_probs))
        ids.append(v)
        logp += log_probs[v]
        if v == EOS_ID:
            break
        prev, remaining = v, max(remaining - 1, 0)
    return ids, logp


@pytest.mark.parametrize("seed", range(4))
def test_beam_width_one_equals_greedy(seed):
    hp = tiny_hp(v=7)
    params, z = random_model(100 + seed, hp)
    forbidden = (PAD_ID, BOS_ID)
    greedy_ids, greedy_logp = greedy_decode(z, params, hp, 6, 4, forbidden)
    request = DecodeRequest(beam_width=1, max_tokens=6)
    result = beam_search(z, request, params, hp, initial_length=4,
                         forbidden_ids=forbidden)
    assert result.ids == greedy_ids
    np.testing.assert_allclose(result.log_prob, greedy_logp, rtol=1e-12)


def test_beam_deterministic():
    hp = tiny_hp(v=6)
    params, z = random_model(55, hp)
    request = DecodeRequest(beam_width=4, max_tokens=8)
    a = beam_search(z, request, params, hp, initial_length=3)
    b = beam_search(z, request, params, hp, initial_length=3)
    assert a.ids == b.ids and a.log_prob == b.log_prob


@pytest.mark.parametrize("seed", [201, 202, 203, 204, 207])
def test_wider_beam_never_scores_worse(seed):
    # width monotonicity holds when the kept candidate sets nest, which is
    # the typical case; a narrow beam that diverges early can in principle
    # do better than a slightly wider one, so the instances here are fixed
    hp = tiny_hp(v=8)
    params, z = random_model(seed, hp)
    scores = []
    for width in (1, 2, 4, 8, 16):
        request = DecodeRequest(beam_width=width, max_tokens=12)
        result = beam_search(z, request, params, hp, initial_length=4)
        scores.append(result.log_prob)
    assert all(a <= b + 1e-12 for a, b in zip(scores, scores[1:]))


@pytest.mark.parametrize("seed", range(5))
def test_exhaustive_width_upper_bounds_every_beam(seed):
    # the exhaustive beam is the global argmax, so no width can beat it
    hp = tiny_hp(v=4)
    params, z = random_model(300 + seed, hp)
    exhaustive = beam_search(z, DecodeRequest(beam_width=4 ** 3, max_tokens=3),
                             params, hp, initial_length=3, forbidden_ids=())
    for width in (1, 2, 4, 8):
        request = DecodeRequest(beam_width=width, max_tokens=3)
        result = beam_search(z, request, params, hp, initial_length=3,
                             forbidden_ids=())
        assert result.log_prob <= exhaustive.log_prob + 1e-12


def test_beam_truncation_flag_when_eos_unreachable():
    hp = tiny_hp(v=5)
    params, z = random_model(7, hp)
    params["out.b"].data[EOS_ID] = -1e9  # EOS never competitive
    request = DecodeRequest(beam_width=2, max_tokens=4)
    result = beam_search(z, request, params, hp, initial_length=3)
    assert result.truncated
    assert len(result.ids) == 4
    assert EOS_ID not in result.ids


def test_exhaustive_beam_equals_brute_force_argmax():
    hp = tiny_hp(v=3)
    params, z = random_model(31, hp)
    expected_ids, expected_logp = brute_force_best(z, params, hp, max_len=3,
                                                   initial_length=2)
    request = DecodeRequest(beam_width=3 ** 3, max_tokens=3)
    result = beam_search(z, request, params, hp, initial_length=2, forbidden_ids=())
    np.testing.assert_allclose(result.log_prob, expected_logp, rtol=1e-10)
    assert result.ids == expected_ids


# ---------------------------------------------------------------------------
# the array engine against the per-hypothesis reference
# ---------------------------------------------------------------------------

@dataclass
class Hypothesis:
    ids: list = field(default_factory=list)
    log_prob: float = 0.0
    state: list = field(default_factory=list)   # per layer (h, c) arrays
    remaining: int = 0
    finished: bool = False


def _state_to_arrays(state):
    return [(h.data, c.data) for h, c in state]


def reference_beam_search(z, request, params, hp, initial_length,
                          forbidden_ids=(PAD_ID, BOS_ID)):
    """One ``Hypothesis`` per live row, a full argsort per row and a sort of
    Python candidate tuples by (-score, row, token); returns (ids, log_prob,
    truncated). Ties are exact wherever no three equal scores straddle a
    row's width-th place."""
    dtype = params["out.W"].data.dtype
    z_row = Tensor(np.asarray(z, dtype=dtype)[None, :])
    init_state = _state_to_arrays(init_decoder_state(z_row, params, hp))
    beams = [Hypothesis(state=init_state, remaining=initial_length)]
    completed = []
    forbidden = [i for i in forbidden_ids if i < hp.vocab_size]

    for _ in range(request.max_tokens):
        prev_ids = np.array([b.ids[-1] if b.ids else BOS_ID for b in beams], dtype=np.intp)
        state = [(Tensor(np.stack([b.state[l][0][0] for b in beams])),
                  Tensor(np.stack([b.state[l][1][0] for b in beams])))
                 for l in range(hp.decoder_layers)]
        prev_emb = gather_rows(params["embed.W"], prev_ids)
        (remaining,) = {b.remaining for b in beams}  # the rows advance in lockstep
        shared = shared_row(np.asarray(z, dtype=dtype), remaining, params, hp)
        logits, new_state = decode_step(prev_emb, shared, state, params, hp)
        log_probs = log_softmax_rows(logits.data)
        if forbidden:
            log_probs[:, forbidden] = -np.inf
        rows_state = _state_to_arrays(new_state)

        candidates = []
        for r, beam in enumerate(beams):
            scores = beam.log_prob + log_probs[r]
            for v in np.argsort(scores)[::-1][:request.beam_width + 1]:
                if not np.isfinite(scores[v]):
                    continue
                candidates.append((float(scores[v]), r, int(v)))
        candidates.sort(key=lambda t: (-t[0], t[1], t[2]))

        next_beams = []
        for score, r, v in candidates[:request.beam_width]:
            row_state = [(rows_state[l][0][r:r + 1], rows_state[l][1][r:r + 1])
                         for l in range(hp.decoder_layers)]
            hyp = Hypothesis(ids=beams[r].ids + [v], log_prob=score, state=row_state,
                             remaining=max(beams[r].remaining - 1, 0),
                             finished=(v == EOS_ID))
            if hyp.finished:
                completed.append(hyp)
            else:
                next_beams.append(hyp)
        if not next_beams and not completed:
            break
        beams = next_beams
        if not beams:
            break
        if completed:
            best_done = max(c.log_prob for c in completed)
            if best_done >= max(b.log_prob for b in beams):
                break

    best = max(completed + beams, key=lambda h: h.log_prob)
    return best.ids, best.log_prob, not best.finished


def assert_matches_reference(z, request, params, hp, initial_length, **kwargs):
    result = beam_search(z, request, params, hp, initial_length, **kwargs)
    expected = reference_beam_search(z, request, params, hp, initial_length, **kwargs)
    assert (result.ids, result.log_prob, result.truncated) == expected
    return result


@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("lenemb", [True, False])
@pytest.mark.parametrize("forbidden", ["default", ()])
@pytest.mark.parametrize("width", [1, 2, 8, 6 ** 4])
@pytest.mark.parametrize("seed", [0, 1])
def test_array_engine_equals_reference(seed, width, forbidden, lenemb, layers):
    # width 6**4 keeps every (row, token) expansion of a 4-step search
    hp = tiny_hp(v=6, layers=layers, lenemb=lenemb)
    params, z = random_model(400 + seed, hp)
    params["out.b"].data[EOS_ID] += 1.0  # let some hypotheses complete
    kwargs = {} if forbidden == "default" else {"forbidden_ids": forbidden}
    assert_matches_reference(z, DecodeRequest(beam_width=width, max_tokens=4),
                             params, hp, initial_length=2, **kwargs)


@pytest.mark.parametrize("lenemb", [True, False])
@pytest.mark.parametrize("width", [2, 6 ** 4])
def test_float32_array_engine_equals_reference(width, lenemb):
    hp = tiny_hp(v=6, layers=2, lenemb=lenemb)
    params, z = random_model(400, hp, dtype=np.float32)
    params["out.b"].data[EOS_ID] += 1.0
    assert_matches_reference(z, DecodeRequest(beam_width=width, max_tokens=4),
                             params, hp, initial_length=2)


def test_exact_tie_settled_by_row_then_token():
    # tokens 4 and 5 get the same constant logit in every row, so they tie
    # exactly; the rows they open then tie as well, up to rounding
    hp = tiny_hp(v=6)
    params, z = random_model(21, hp)
    params["out.W"].data[:, 4:6] = 0.0
    params["out.b"].data[4:6] = 50.0
    params["embed.W"].data[5] = params["embed.W"].data[4]
    result = assert_matches_reference(z, DecodeRequest(beam_width=2, max_tokens=3),
                                      params, hp, initial_length=3)
    assert result.ids[0] == 4
    # ties across rows and within a row, settled by (row, token)
    idx, values = best_entries(np.array([[-1.0, -0.5, -0.5], [-0.5, -0.5, -2.0]]), 3)
    assert idx.tolist() == [1, 2, 3] and values.tolist() == [-0.5] * 3


def test_fewer_finite_candidates_than_width():
    hp = tiny_hp(v=6)
    params, z = random_model(5, hp)
    forbidden = [i for i in range(hp.vocab_size) if i not in (EOS_ID, 4)]
    result = assert_matches_reference(z, DecodeRequest(beam_width=8, max_tokens=5),
                                      params, hp, initial_length=3, forbidden_ids=forbidden)
    assert set(result.ids) <= {EOS_ID, 4}


def test_fewer_rows_than_width_partitions_every_entry():
    # a width above the live row count but below rows x V uses the
    # partition over all entries instead of the row-maximum bound
    hp = tiny_hp(v=7)
    params, z = random_model(9, hp)
    params["out.b"].data[EOS_ID] += 2.0   # completions shrink the live rows
    assert_matches_reference(z, DecodeRequest(beam_width=5, max_tokens=6),
                             params, hp, initial_length=4)


@pytest.mark.parametrize("rows,width", [(1, 3), (3, 5), (4, 4), (6, 2), (5, 40)])
def test_best_entries_equals_full_sort(rows, width):
    rng = np.random.default_rng(rows * 100 + width)
    scores = rng.integers(-4, 0, size=(rows, 7)).astype(float)   # many exact ties
    scores[rng.random(scores.shape) < 0.3] = -np.inf
    scores[0, 0] = np.nan
    flat = scores.ravel()
    ranked = sorted((-flat[i], i) for i in range(flat.size) if np.isfinite(flat[i]))
    expected = [i for _, i in ranked[:width]]
    idx, values = best_entries(scores, width)
    assert idx.tolist() == expected
    assert values.tolist() == [flat[i] for i in expected]


def _decode_calls(monkeypatch):
    calls = []
    original = inference.decode_step

    def counted(*args, **kwargs):
        calls.append(args[0].shape[0])
        return original(*args, **kwargs)
    monkeypatch.setattr(inference, "decode_step", counted)
    return calls


def test_stop_reason_bound(monkeypatch):
    hp = tiny_hp(v=6)
    params, z = random_model(3, hp)
    params["out.b"].data[EOS_ID] = 20.0   # EOS leads by far at the first step
    calls = _decode_calls(monkeypatch)
    result = assert_matches_reference(z, DecodeRequest(beam_width=3, max_tokens=8),
                                      params, hp, initial_length=3)
    assert (result.stop_reason, result.steps, result.ids) == ("bound", 1, [EOS_ID])
    assert len(calls) == result.steps and not result.truncated


def test_stop_reason_horizon(monkeypatch):
    hp = tiny_hp(v=6)
    params, z = random_model(7, hp)
    params["out.b"].data[EOS_ID] = -1e9   # EOS never competitive
    calls = _decode_calls(monkeypatch)
    result = assert_matches_reference(z, DecodeRequest(beam_width=2, max_tokens=5),
                                      params, hp, initial_length=3)
    assert (result.stop_reason, result.steps) == ("horizon", 5)
    assert len(calls) == 5 and result.truncated and len(result.ids) == 5


def test_stop_reason_exhausted(monkeypatch):
    hp = tiny_hp(v=6)
    params, z = random_model(3, hp)
    params["out.b"].data[EOS_ID] = 20.0
    calls = _decode_calls(monkeypatch)
    # width 1: the only expansion completes, so nothing is left to extend
    result = assert_matches_reference(z, DecodeRequest(beam_width=1, max_tokens=8),
                                      params, hp, initial_length=3)
    assert (result.stop_reason, result.steps, result.ids) == ("exhausted", 1, [EOS_ID])
    assert len(calls) == 1
    # every token forbidden: no expansion at all, the empty start stands
    result = assert_matches_reference(z, DecodeRequest(beam_width=4, max_tokens=8),
                                      params, hp, initial_length=3,
                                      forbidden_ids=tuple(range(hp.vocab_size)))
    assert (result.stop_reason, result.steps, result.ids) == ("exhausted", 1, [])
    assert result.truncated and result.log_prob == 0.0


def test_beam_search_holds_one_score_buffer():
    # one (width, V) buffer per search; three temporaries per step, as
    # decoding once made them, measured 4.03 buffers at this shape
    hp = HyperParams(vocab_size=20000)
    params = init_params(hp, np.random.default_rng(0))
    itemsize = params["out.W"].data.itemsize
    z = np.random.default_rng(1).standard_normal(hp.latent_dim)
    request = DecodeRequest(beam_width=8, max_tokens=10)
    tracemalloc.start()
    try:
        result = beam_search(z, request, params, hp, initial_length=10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.steps > 1
    assert peak < 2 * request.beam_width * hp.vocab_size * itemsize


# ---------------------------------------------------------------------------
# summarize plumbing
# ---------------------------------------------------------------------------

@pytest.fixture
def toy_model():
    vocab = build_vocab([["the", "cat", "runs", "dog", "sleeps"]], top_k=10)
    hp = HyperParams(vocab_size=vocab.size, cell_size=6, embed_size=5,
                     latent_dim=4, bow_width=5, len_embed_size=3,
                     decoder_layers=2, max_len_index=12, softmax_samples=4)
    params = init_params(hp, np.random.default_rng(3))
    return params, hp, vocab


def test_summarize_runs_on_untrained_model(toy_model):
    params, hp, vocab = toy_model
    out = summarize("The cat runs.", 2, params, hp, vocab, beam_width=3, max_tokens=6)
    assert isinstance(out, str)
    assert len(out.split()) <= 6


def test_summarize_output_contains_no_control_tokens(toy_model):
    params, hp, vocab = toy_model
    for length in (1, 3, NATURAL):
        out = summarize("the dog sleeps", length, params, hp, vocab,
                        beam_width=4, max_tokens=8)
        toks = out.split()
        assert not set(vocab.decode([PAD_ID, BOS_ID, EOS_ID])) & set(toks)


def test_summarize_deterministic(toy_model):
    params, hp, vocab = toy_model
    a = summarize("the cat runs", 3, params, hp, vocab, beam_width=4, max_tokens=8)
    b = summarize("the cat runs", 3, params, hp, vocab, beam_width=4, max_tokens=8)
    assert a == b


def test_summarize_rejects_empty_input(toy_model):
    params, hp, vocab = toy_model
    with pytest.raises(ValueError):
        summarize("   ", 3, params, hp, vocab)


def test_summarize_natural_uses_the_input_word_count(toy_model):
    params, hp, vocab = toy_model
    a = summarize("the cat runs", NATURAL, params, hp, vocab, beam_width=3, max_tokens=8)
    b = summarize("the cat runs", 3, params, hp, vocab, beam_width=3, max_tokens=8)
    assert a == b


def test_detokenize_strips_single_trailing_eos(toy_model):
    _, _, vocab = toy_model
    the, cat = vocab.encode(["the", "cat"])
    assert detokenize([the, cat, EOS_ID], vocab) == "the cat"
    assert detokenize([the, cat], vocab) == "the cat"
    assert detokenize([EOS_ID], vocab) == ""


def test_decode_request_validation():
    with pytest.raises(ValueError):
        DecodeRequest(beam_width=0)
    with pytest.raises(ValueError):
        DecodeRequest(max_tokens=0)


def test_summarize_rejects_negative_length(toy_model):
    params, hp, vocab = toy_model
    with pytest.raises(ValueError):
        summarize("the cat runs", -1, params, hp, vocab)


LENGTH_MESSAGE = "desired_length must be a word count >= 0 or 'natural'"


@pytest.mark.parametrize("value", [4.7, 4.0, True, False, "4.7", "abc", "", " 3", "-2", -1],
                         ids=repr)
def test_a_length_that_is_no_word_count_is_rejected_by_config_and_summarize(toy_model, value):
    # one parser: neither path truncates a float, reads a bool as a count
    # or raises int()'s bare message
    params, hp, vocab = toy_model
    with pytest.raises(ConfigError, match=LENGTH_MESSAGE):
        load_run_config(overrides={"desired_length": value})
    with pytest.raises(ValueError, match=LENGTH_MESSAGE):
        summarize("the cat runs", value, params, hp, vocab, beam_width=3, max_tokens=8)


@pytest.mark.parametrize("value, words", [(0, 0), ("0", 0), (3, 3), ("3", 3),
                                          (NATURAL, NATURAL)], ids=repr)
def test_a_word_count_or_natural_is_read_alike_by_config_and_summarize(toy_model, value, words):
    params, hp, vocab = toy_model
    assert requested_length(value) == words
    assert load_run_config(overrides={"desired_length": value}).desired_length == value
    expected = summarize("the cat runs", 3 if words == NATURAL else words, params, hp, vocab,
                         beam_width=3, max_tokens=8)
    assert summarize("the cat runs", value, params, hp, vocab, beam_width=3,
                     max_tokens=8) == expected


@pytest.mark.parametrize("lenemb", [True, False])
def test_beam_search_rejects_negative_length(lenemb):
    # a negative start would index the length table from its end
    hp = tiny_hp(lenemb=lenemb)
    params, z = random_model(3, hp)
    with pytest.raises(ValueError, match="initial_length"):
        beam_search(z, DecodeRequest(beam_width=2, max_tokens=4), params, hp,
                    initial_length=-3)


def test_summarize_decodes_mu_when_sigma_overflows():
    # decoding reads the posterior mean only: a log-variance whose sigma
    # overflows to inf must not turn z into NaN
    path = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "desk_1500.lvae"
    params, hp, vocab, _ = checkpoint_load(path)
    sentence = "a green old bird hunts quietly"
    expected = summarize(sentence, NATURAL, params, hp, vocab)
    assert expected
    params["logvar.b"].data[:] = 1500.0
    assert summarize(sentence, NATURAL, params, hp, vocab) == expected
