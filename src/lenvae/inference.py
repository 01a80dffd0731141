"""Beam-search decoding with a controllable length countdown.

The countdown's starting value is the knob: the input's own word count for
plain reconstruction, or any smaller number to ask the decoder to compress.
Inference decodes from the posterior mean mu, so decoding is deterministic.
The countdown biases the decoder toward stopping but never forces
termination; end-of-sentence stays an ordinary predicted token.

The beam lives in stacked arrays, one row per live hypothesis: emitted token
ids (rows, t), cumulative log-probabilities (rows,) and each decoder layer's
(h, c) pair, (rows, cell_size) apiece. All rows advance in lockstep and read
z and the countdown as one shared row; after each step every array is
re-gathered by the selected expansions' parent rows, in selection order.

A search writes every step's scores into one (beam_width, V) buffer: the
output GEMM and bias (``decode_step(out=)``), the log-softmax
(``log_softmax_rows(out=)``), the forbidden columns and the cumulative
scores all land in its first rows in place, so a step allocates no (rows, V)
array of its own.
"""

from dataclasses import dataclass

import numpy as np

from .checkpoint import IncompatibleCheckpointError
from .model import (
    HyperParams, decode_step, init_decoder_state, length_input, posterior_means,
)
from .numerics import ParamStore, log_softmax_rows
from .textpipe import BOS_ID, EOS_ID, PAD_ID, Vocabulary, normalize

NATURAL = "natural"


def requested_length(value):
    """``value``, a word count (an int >= 0 or its decimal string) or
    NATURAL, as an int or NATURAL; anything else raises ``ValueError``."""
    if value == NATURAL or (type(value) is int and value >= 0):
        return value
    if isinstance(value, str) and value.isascii() and value.isdigit():
        return int(value)
    raise ValueError(f"desired_length must be a word count >= 0 or {NATURAL!r}, got {value!r}")


@dataclass
class DecodeRequest:
    """How wide and how long to search; the countdown's start is passed to
    ``beam_search`` on its own."""

    beam_width: int = 8
    max_tokens: int = 40

    def __post_init__(self):
        if self.beam_width < 1:
            raise ValueError("beam_width must be >= 1")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")


@dataclass
class BeamResult:
    """The winning sequence and how the search ended.

    ``truncated``: the winner never emitted EOS. ``steps``: decoder steps
    taken. ``stop_reason``: "bound" (the best completed score reached the
    best live one), "horizon" (``max_tokens`` steps ran) or "exhausted" (no
    live hypothesis was left to expand).
    """

    ids: list
    log_prob: float
    truncated: bool = False
    steps: int = 0
    stop_reason: str = "horizon"


def best_entries(scores: np.ndarray, width: int):
    """Flat indices and values of the ``width`` best finite entries of the
    (rows, V) ``scores``, ordered by (-score, row, token).

    Entries at or above a threshold that at least ``width`` finite entries
    reach are the only candidates: with rows >= width, the width-th largest
    row maximum (each row maximum is an entry); otherwise every finite entry.
    A partition over the candidates narrows them to those at or above the
    width-th largest, ties included, and a stable sort of that handful by
    descending score keeps the ascending flat index, i.e. (row, token), as
    the tie-break. NaN ranks as -inf; non-finite entries are never returned.
    """
    row_max = scores.max(axis=1)
    if np.isnan(row_max).any():
        scores = np.where(np.isnan(scores), -np.inf, scores)
        row_max = scores.max(axis=1)
    flat = scores.ravel()
    rows = row_max.size
    bound = np.partition(row_max, rows - width)[rows - width] if rows >= width else -np.inf
    if bound > -np.inf:
        idx = np.flatnonzero(flat >= bound)
    else:
        idx = np.flatnonzero(np.isfinite(flat))
    values = flat[idx]
    if idx.size > width:
        kth = np.partition(values, idx.size - width)[idx.size - width]
        keep = np.flatnonzero(values >= kth)
        idx, values = idx[keep], values[keep]
    order = np.argsort(-values, kind="stable")[:width]
    return idx[order], values[order]


def beam_search(z: np.ndarray, request: DecodeRequest, params: ParamStore,
                hp: HyperParams, initial_length: int,
                forbidden_ids=(PAD_ID, BOS_ID)) -> BeamResult:
    """Highest cumulative-log-probability sequence under the decoder.

    ``z`` is a (latent_dim,) vector; ``initial_length`` (>= 0) starts the
    countdown.
    Each step runs the decoder once over all live rows, adds every row's
    cumulative score to its token log-probabilities and keeps the
    ``beam_width`` best finite (row, token) expansions in (-score, row,
    token) order (see ``best_entries``). An expansion that emits EOS moves
    to the completed pool and is never extended; the others are the next
    step's rows, in the same order. No length normalization is applied.

    The search stops with ``stop_reason``:
      - "bound": the best completed score is >= the best live score (token
        log-probabilities are <= 0, so scores only fall);
      - "exhausted": no live expansion is left; if nothing has completed
        either, the previous live rows stand;
      - "horizon": ``max_tokens`` steps ran; rows still alive then compete
        with the pool at their cumulative score.
    The winner is the best of the pool and the live rows, the pool winning
    ties. ``truncated=True`` marks a winner that never emitted EOS.

    ``forbidden_ids`` are never proposed (padding/control tokens); pass ()
    to rank the raw full vocabulary.

    Every step's scores live in one (beam_width, V) buffer allocated per
    search; the selection copies what it keeps out of it. ``z``, the
    buffer and the cumulative scores take the parameters' dtype, so a
    float32 model decodes in float32.
    """
    if initial_length < 0:
        raise ValueError(f"initial_length must be >= 0, got {initial_length}")
    width = request.beam_width
    dtype = params["out.W"].data.dtype
    z = np.asarray(z, dtype=dtype)
    state = init_decoder_state(z[None, :], params, hp)
    # every beam row shares z and the countdown, so step t's one row serves them all
    len_rows = length_input(initial_length - np.arange(request.max_tokens), params, hp).data
    shared = np.concatenate([np.broadcast_to(z, (request.max_tokens, z.size)), len_rows], axis=1)
    embed = params["embed.W"].data
    ids = np.zeros((1, 0), dtype=np.intp)
    log_prob = np.zeros(1, dtype)
    prev_ids = np.array([BOS_ID], dtype=np.intp)
    done = None  # (ids, log_prob) of the first best completed hypothesis
    forbidden = [i for i in forbidden_ids if i < hp.vocab_size]
    stop_reason = "horizon"
    buffer = np.empty((width, hp.vocab_size), dtype)

    for steps in range(1, request.max_tokens + 1):
        logits, new_state = decode_step(embed[prev_ids], shared[steps - 1:steps], state,
                                        params, hp, out=buffer)
        scores = log_softmax_rows(logits, out=logits)
        if forbidden:
            scores[:, forbidden] = -np.inf
        scores += log_prob[:, None]
        picked, picked_scores = best_entries(scores, width)
        parents, tokens = np.divmod(picked, hp.vocab_size)

        finished = tokens == EOS_ID
        if finished.any():
            k = int(np.argmax(finished))  # this step's first, so best, completion
            if done is None or picked_scores[k] > done[1]:
                done = (ids[parents[k]].tolist() + [EOS_ID], float(picked_scores[k]))
        live = np.flatnonzero(~finished)
        if live.size == 0:
            stop_reason = "exhausted"
            if done is not None:  # the pool alone competes; else the last rows stand
                log_prob = log_prob[:0]
            break
        parents, prev_ids = parents[live], tokens[live]
        ids = np.concatenate([ids[parents], prev_ids[:, None]], axis=1)
        log_prob = picked_scores[live]
        state = [(h[parents], c[parents]) for h, c in new_state]
        if done is not None and done[1] >= log_prob[0]:
            stop_reason = "bound"
            break

    # live rows are in descending score order, so row 0 is the best of them
    if done is not None and (log_prob.size == 0 or done[1] >= log_prob[0]):
        return BeamResult(ids=done[0], log_prob=done[1], truncated=False,
                          steps=steps, stop_reason=stop_reason)
    return BeamResult(ids=ids[0].tolist(), log_prob=float(log_prob[0]), truncated=True,
                      steps=steps, stop_reason=stop_reason)


def detokenize(ids, vocab: Vocabulary) -> str:
    """Ids to surface text; the terminal EOS (if any) is stripped."""
    if ids and ids[-1] == EOS_ID:
        ids = ids[:-1]
    return " ".join(vocab.decode(ids))


def summarize(sentence: str, desired_length, params: ParamStore, hp: HyperParams,
              vocab: Vocabulary, beam_width: int = DecodeRequest.beam_width,
              max_tokens: int = DecodeRequest.max_tokens) -> str:
    """Decode a shortened (or same-length) version of one sentence.

    ``desired_length`` is read by ``requested_length``: a word count, or
    NATURAL for the input's own count.
    Requesting a specific length from a model trained without the length
    table is an incompatibility error.
    """
    length = requested_length(desired_length)
    tokens = normalize(sentence)
    if not tokens:
        raise ValueError("cannot summarize an empty sentence")
    if length == NATURAL:
        length = len(tokens)
    elif not hp.lenemb:
        raise IncompatibleCheckpointError(
            "checkpoint was trained without length embeddings; use --length natural")
    request = DecodeRequest(beam_width=beam_width, max_tokens=max_tokens)
    mu = posterior_means([vocab.encode(tokens)], params, hp)[0]
    result = beam_search(mu, request, params, hp, initial_length=length)
    return detokenize(result.ids, vocab)

