"""Latent-variable sentence autoencoder with a length-countdown input.

Encoder: bidirectional LSTM over embedded tokens; the per-step forward and
backward states are concatenated and averaged over the true (non-PAD) steps;
two affine maps produce the posterior mean and log-variance. Decoder: a stack
of LSTM layers stepped with [previous-token embedding, z, length embedding]
as input (layers above the first also see the lower layer's hidden state),
the first layer's cell state initialized from an affine map of z. The length
embedding indexes a learned table by a per-step countdown that starts at the
desired output length and decrements to 0. Losses: per-token reconstruction
cross-entropy over candidate ids (sampled in training mode, every id in eval
mode), the closed-form KL against a standard-normal prior, and a
bag-of-words auxiliary loss predicting the input's token counts from z.
Those counts are derived from the batch's ids each step (``Batch.bow``): a
batch holds no (B, V) array, and encoding (``posterior_means``) never
builds one.

The training-mode reconstruction is a sampled softmax with one candidate set
per batch, shared by every decoder step and row (Jean et al. 2015): the
batch's distinct targets plus ``softmax_samples`` uniform non-target draws.
Other rows' and steps' targets serve as negatives, so the whole term is one
GEMM against the candidate columns of the output layer. The set is sorted
and eval mode's set is every id, so a training set that covers the
vocabulary is eval's full softmax bit for bit. Each real (step, row), a
word or EOS, is scored against all U + K candidates, U being the batch's
distinct targets (a set per step would give U_t + K). So the term's work
and memory grow with U: about the same as per-step sets while U is small
next to K, four times their logits at the paper preset's batch of 512
sentences over a Zipf 40k vocabulary (U near 3,900 against K = 1,000).

So a training step touches few of the vocabulary's rows and columns. The
output weight's and bias's gradients hold only the candidate columns and
entries, and the embedding's and length table's only the gathered rows
(``numerics.SlicedGrad``); Adam updates the rest as a zero gradient would.
The bag-of-words head's output layer scores every id, so its gradient is
the one dense (bow_width, V) array of a step.

Training runs each LSTM layer over the whole sequence as one autograd node
(``numerics.lstm_sequence``: one input GEMM against w[:I], h @ w[I:] per
step, a hand-written backward through time). Its inputs and states are
time-major rows, step t of batch row r at row t*B + r; ``batch_rows``, the
one reader of a batch's ids and lengths, owns that layout. Under teacher
forcing every decoder input is known up front, so the decoder's layers run
that way too (``decoder_states``); the loss gathers the real rows of the (T*B, cell)
states once for one dropout mask, candidate draw and cross-entropy.
Inference steps the decoder on plain arrays with no graph (``decode_step``),
through the packed [x, h] @ W + b GEMM and the same cell nonlinearity.
"""

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .numerics import (
    ParamStore, Tensor, add, add_scalar, affine, concat_cols,
    cross_entropy_rows, exp_, gather_rows, lstm_cell,
    lstm_sequence, mul, mul_const, row_blocks, sampled_logits, scale,
    sub, sum_all, sum_cols, tanh_, weighted_cross_entropy_rows,
    weighted_step_sum, zeros,
)
from .numerics.tensor import _sorted_distinct
from .textpipe import BOS_ID, EOS_ID, PAD_ID, UNK_ID, Batch, make_batch

INIT_SCALE = 0.08  # fresh weights are uniform in +-INIT_SCALE


@dataclass(frozen=True)
class HyperParams:
    """Architecture sizes. Desk-scale defaults; ``paper_scale`` holds the
    published large-corpus configuration.

    ``softmax_samples`` is K, the number of non-target ids each training
    batch draws for the candidate set that all its decoder steps share, on
    top of the batch's distinct targets (capped at the ids left in the
    vocabulary). Eval mode ignores it: its candidate set is every id.
    """

    vocab_size: int
    cell_size: int = 32
    embed_size: int = 32
    latent_dim: int = 16
    bow_width: int = 32
    len_embed_size: int = 8
    decoder_layers: int = 2
    max_len_index: int = 30
    softmax_samples: int = 32
    lenemb: bool = True

    def __post_init__(self):
        for name in ("vocab_size", "cell_size", "embed_size", "latent_dim",
                     "bow_width", "len_embed_size", "decoder_layers",
                     "max_len_index", "softmax_samples"):
            if getattr(self, name) < 1:
                raise ValueError(f"HyperParams.{name} must be positive")

    @classmethod
    def paper_scale(cls, vocab_size: int) -> "HyperParams":
        return cls(vocab_size=vocab_size, cell_size=243, embed_size=254,
                   latent_dim=124, bow_width=236, len_embed_size=50,
                   decoder_layers=2, max_len_index=30, softmax_samples=1000)


@dataclass
class LatentParams:
    """Per-sentence posterior: mean and log-variance."""

    mu: Tensor
    logvar: Tensor


def param_shapes(hp: HyperParams) -> dict:
    """Name -> shape of every parameter, in creation (and checkpoint) order.

    Weights end in ".W" and biases in ".b"; an LSTM layer's packed weight is
    (in_dim + cell, 4 * cell) (see ``numerics.lstm``).
    """
    cell, latent = hp.cell_size, hp.latent_dim
    step_in = hp.embed_size + latent + hp.len_embed_size

    def dense(name, n_in, n_out):
        return {f"{name}.W": (n_in, n_out), f"{name}.b": (n_out,)}

    shapes = {"embed.W": (hp.vocab_size, hp.embed_size)}
    for name in ("enc_fwd", "enc_bwd"):
        shapes |= dense(name, hp.embed_size + cell, 4 * cell)
    shapes |= dense("mu", 2 * cell, latent) | dense("logvar", 2 * cell, latent)
    shapes |= dense("dec_init", latent, cell)
    for layer in range(hp.decoder_layers):
        in_dim = step_in if layer == 0 else cell + step_in
        shapes |= dense(f"dec_l{layer}", in_dim + cell, 4 * cell)
    if hp.lenemb:
        shapes["len_table.W"] = (hp.max_len_index + 1, hp.len_embed_size)
    shapes |= dense("out", cell, hp.vocab_size)
    shapes |= dense("bow_h", latent, hp.bow_width) | dense("bow_out", hp.bow_width, hp.vocab_size)
    return shapes


def init_params(hp: HyperParams, rng: np.random.Generator, dtype=np.float32) -> ParamStore:
    """Fresh ``dtype`` parameters of ``param_shapes(hp)``, drawn in its
    order: each weight one uniform +-INIT_SCALE draw, biases 0, except each
    LSTM layer's forget-gate bias, 1.0 (a standard stabilizer; gate order i,
    f, g, o).

    float32 is the compute type of training and decoding, and every array
    the model makes follows the parameters' dtype. float64 is the reference
    that the gradient check and the exactness tests ask for.

    A weight is drawn in row blocks (``row_blocks``) into one reused float64
    scratch, ``low + (high - low) * rng.random()`` as ``rng.uniform``
    computes it, and each block is rounded into the array. So a float64
    store is bit for bit one ``rng.uniform(-INIT_SCALE, INIT_SCALE, shape)``
    draw, and a float32 store is that draw rounded to float32, with no
    float64 copy of a whole weight.
    """
    lstm_biases = {"enc_fwd.b", "enc_bwd.b", *(f"dec_l{i}.b" for i in range(hp.decoder_layers))}
    p = ParamStore()
    scratch = np.empty(0)
    for name, shape in param_shapes(hp).items():
        value = np.zeros(shape, dtype=dtype)
        if name in lstm_biases:
            value[hp.cell_size:2 * hp.cell_size] = 1.0
        if name.endswith(".W"):
            for block in row_blocks(value):
                if scratch.size < block.size:
                    scratch = np.empty(block.size)
                draw = rng.random(out=scratch[:block.size])
                draw *= 2 * INIT_SCALE
                draw -= INIT_SCALE
                block[...] = draw.reshape(block.shape)
        p.add(name, value)
    return p


# ---------------------------------------------------------------------------
# encoder
# ---------------------------------------------------------------------------

class BatchRows(NamedTuple):
    """A batch's rows as the model reads them; time-major arrays hold step t
    of sentence r at row t*B + r."""

    enc_ids: tuple           # (T*B,) forward ids, then reversed within length; PAD after
    enc_weights: np.ndarray  # (T, B): 1/length on the words, 0 after
    dec_in: np.ndarray       # (B, T+1): BOS, the words, PAD
    targets: np.ndarray      # ((T+1)*B,): the words, EOS, PAD
    live: np.ndarray         # ascending indices of the word and EOS targets
    countdown: np.ndarray    # ((T+1)*B,): length - step for every decoder row


def batch_rows(batch: Batch) -> BatchRows:
    """Every index array the model reads from ``batch``, built once."""
    ids, lengths = batch.ids, batch.lengths
    n, width = ids.shape
    steps, sentence = np.arange(width + 1)[:, None], np.arange(n)
    words = steps[:width] < lengths
    reversed_ids = ids.T[np.where(words, lengths - 1 - steps[:width], 0), sentence]
    enc_ids = (ids.T.ravel(), np.where(words, reversed_ids, PAD_ID).ravel())
    enc_weights = np.where(words, 1.0 / np.maximum(lengths, 1), 0.0)
    dec_in = np.concatenate([np.full((n, 1), BOS_ID), ids], axis=1)
    targets = np.concatenate([ids.T, np.full((1, n), PAD_ID)])
    targets[lengths, sentence] = EOS_ID
    return BatchRows(enc_ids, enc_weights, dec_in, targets.ravel(),
                     np.flatnonzero(steps <= lengths), (lengths - steps).ravel())


def encoder_mean(rows: BatchRows, params: ParamStore, hp: HyperParams) -> Tensor:
    """(B, 2*cell) mean over true steps of the concatenated bi-LSTM states.

    Each direction is one ``lstm_sequence`` node over the embeddings of its
    ``rows.enc_ids``, and one ``weighted_step_sum`` with ``rows.enc_weights``
    takes the mean of its (T*B, cell) states over the words.
    """
    width, n = rows.enc_weights.shape
    means = []
    for direction, dir_ids in zip(("enc_fwd", "enc_bwd"), rows.enc_ids):
        emb = gather_rows(params["embed.W"], dir_ids)
        states = lstm_sequence(emb, zeros((n, hp.cell_size), emb.data.dtype),
                               params[f"{direction}.W"], params[f"{direction}.b"], width)
        means.append(weighted_step_sum(states, rows.enc_weights))
    return concat_cols(means)


def encode(rows: BatchRows, params: ParamStore, hp: HyperParams) -> LatentParams:
    mean = encoder_mean(rows, params, hp)
    mu = affine(mean, params["mu.W"], params["mu.b"])
    logvar = affine(mean, params["logvar.W"], params["logvar.b"])
    return LatentParams(mu=mu, logvar=logvar)


def posterior_means(sentences, params: ParamStore, hp: HyperParams,
                    batch_size: int = 256) -> np.ndarray:
    """(N, latent_dim) posterior means mu (N may be 0) for a list of id lists
    (``encode_sentences``), encoded ``batch_size`` sentences at a time.

    Decoding and the length probe read mu itself: noise enters only the
    training objective's z = mu + sigma * eps, so a sigma that overflows
    cannot reach them.
    """
    rows = [np.empty((0, hp.latent_dim), params["mu.b"].data.dtype)]
    for start in range(0, len(sentences), batch_size):
        batch = make_batch(sentences[start:start + batch_size], hp.vocab_size)
        rows.append(encode(batch_rows(batch), params, hp).mu.data)
    return np.concatenate(rows, axis=0)


def reparameterize(latent: LatentParams, eps: np.ndarray) -> Tensor:
    """z = mu + exp(logvar / 2) * eps, with ``eps`` treated as a constant."""
    sigma = exp_(scale(latent.logvar, 0.5))
    return add(latent.mu, mul_const(sigma, eps))


def kl_divergence(latent: LatentParams) -> Tensor:
    """(B,) closed-form KL(q || standard normal) per example, always >= 0."""
    term = add_scalar(
        sub(sub(latent.logvar, mul(latent.mu, latent.mu)), exp_(latent.logvar)), 1.0)
    return scale(sum_cols(term), -0.5)


# ---------------------------------------------------------------------------
# length countdown
# ---------------------------------------------------------------------------

def length_input(countdown: np.ndarray, params: ParamStore, hp: HyperParams) -> Tensor:
    """(N, len_embed_size) length input for the flat (N,) ints ``countdown``.

    With ``lenemb``: the ``len_table`` row at min(max(countdown, 0),
    max_len_index) for each entry, so the countdown floors at 0 and values
    beyond the table clamp to its last row. Without it: a zero leaf of the
    parameters' dtype.
    """
    index = np.minimum(np.maximum(countdown, 0), hp.max_len_index)
    if not hp.lenemb:
        return zeros((index.size, hp.len_embed_size), params["embed.W"].data.dtype)
    return gather_rows(params["len_table.W"], index)


# ---------------------------------------------------------------------------
# decoder
# ---------------------------------------------------------------------------

def init_decoder_state(z: np.ndarray, params: ParamStore, hp: HyperParams) -> list:
    """Per-layer (h, c) arrays for the (B, latent) ``z``; layer 0's cell
    state is an affine map of z, everything else zeros of the parameters'
    dtype."""
    n = z.shape[0]
    c0 = z @ params["dec_init.W"].data + params["dec_init.b"].data
    state = [(np.zeros((n, hp.cell_size), c0.dtype), c0)]
    for _ in range(1, hp.decoder_layers):
        state.append(tuple(np.zeros((n, hp.cell_size), c0.dtype) for _ in range(2)))
    return state


def decoder_stack_step(z: np.ndarray, prev_emb: np.ndarray, len_emb: np.ndarray, state: list,
                       params: ParamStore, hp: HyperParams):
    """One step through all layers on arrays; returns (top hidden, new state)."""
    step_input = np.concatenate([prev_emb, z, len_emb], axis=1)
    new_state = []
    below = None
    for layer in range(hp.decoder_layers):
        layer_in = step_input if layer == 0 else np.concatenate([below, step_input], axis=1)
        h_prev, c_prev = state[layer]
        h, c = lstm_cell(layer_in, h_prev, c_prev,
                         params[f"dec_l{layer}.W"].data, params[f"dec_l{layer}.b"].data)
        new_state.append((h, c))
        below = h
    return below, new_state


def decode_step(z: np.ndarray, prev_emb: np.ndarray, len_emb: np.ndarray, state: list,
                params: ParamStore, hp: HyperParams, out: np.ndarray | None = None):
    """One inference step on arrays, no graph: returns (vocabulary logits
    (B, V), new state). ``z`` is (B, latent), one row per decoded row.

    With ``out`` (a C-contiguous array of at least B rows of V values) the
    logits are written into its first B rows and that view is returned; the
    values are the same bit for bit either way.
    """
    hidden, new_state = decoder_stack_step(z, prev_emb, len_emb, state, params, hp)
    logits = np.matmul(hidden, params["out.W"].data,
                       out=None if out is None else out[:hidden.shape[0]])
    logits += params["out.b"].data
    return logits, new_state


def decoder_states(z: Tensor, dec_in: np.ndarray, countdown: np.ndarray,
                   params: ParamStore, hp: HyperParams) -> Tensor:
    """Teacher-forced top-layer states, (T*B, cell) time-major, for the
    (B, T) decoder input ids ``dec_in`` and the rows' (T*B,) ``countdown``.

    Every step's input [previous-token embedding, z, length embedding] is
    known up front, so each layer is one ``lstm_sequence`` node: layer 0
    reads the step inputs, each higher layer [its lower layer's states, step
    inputs]. Layer 0's cell state starts at an affine map of z.
    """
    n, steps = dec_in.shape
    step_input = concat_cols([
        gather_rows(params["embed.W"], dec_in.T.ravel()),
        gather_rows(z, np.tile(np.arange(n), steps)),
        length_input(countdown, params, hp),
    ])
    c0 = affine(z, params["dec_init.W"], params["dec_init.b"])
    below = None
    for layer in range(hp.decoder_layers):
        layer_in = step_input if layer == 0 else concat_cols([below, step_input])
        start_cell = c0 if layer == 0 else zeros((n, hp.cell_size), c0.data.dtype)
        below = lstm_sequence(layer_in, start_cell, params[f"dec_l{layer}.W"],
                              params[f"dec_l{layer}.b"], steps)
    return below


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def bow_loss(z: Tensor, bow_counts: np.ndarray, params: ParamStore, hp: HyperParams) -> Tensor:
    """Batch-mean of -sum_w count_w * log softmax(logits)_w from a tanh layer on z.

    ``bow_counts`` is (B, V); ``total_loss`` passes the step's ``Batch.bow``,
    built from the batch's ids for this step alone, and the loss node keeps
    it until backward.
    """
    hidden = tanh_(affine(z, params["bow_h.W"], params["bow_h.b"]))
    logits = affine(hidden, params["bow_out.W"], params["bow_out.b"])
    n = z.data.shape[0]
    return scale(weighted_cross_entropy_rows(logits, bow_counts), 1.0 / n)


def draw_negatives(rng, vocab_size: int, sample_count: int, targets: np.ndarray):
    """One candidate set for a batch, shared by every decoder step and row.

    ``targets`` holds every (step, row) target, PAD too (see ``total_loss``).
    Returns ``(ids, target_pos)``: ``ids`` holds, ascending, the U distinct
    targets and ``min(sample_count, V - U)`` non-target ids drawn uniformly
    without replacement; ``ids[target_pos[r]] == targets[r]``. The draw is one
    ``rng.random(V)`` whose smallest non-target keys win, so the draws
    depend on the batch's shape, never on parameter values. Once
    ``sample_count >= V - U`` the set is ``arange(V)``, eval mode's set.
    """
    if sample_count < 1:
        raise ValueError(f"sample_count must be >= 1, got {sample_count}")
    distinct = _sorted_distinct(targets)
    keys = rng.random(vocab_size)
    keys[distinct] = 2.0  # above every uniform key: targets are never drawn
    extra = min(sample_count, vocab_size - distinct.size)
    ids = np.sort(np.concatenate([distinct, np.argpartition(keys, extra - 1)[:extra]]))
    return ids, np.searchsorted(ids, targets)


def word_dropout(decoder_input_ids: np.ndarray, p: float, rng) -> np.ndarray:
    """Independently replace previous-word inputs by UNK with probability p.

    BOS and PAD positions are never replaced. The caller's targets are a
    separate array and stay untouched.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("dropout probability must be in [0, 1]")
    if p == 0.0:
        return decoder_input_ids
    drop = rng.random(decoder_input_ids.shape) < p
    protected = (decoder_input_ids == BOS_ID) | (decoder_input_ids == PAD_ID)
    out = decoder_input_ids.copy()
    out[drop & ~protected] = UNK_ID
    return out


def tiny_gradcheck_instance(index: int, **changes):
    """A small full-model loss for finite-difference checking.

    Returns (params, loss_fn). ``loss_fn`` seeds a fresh generator and fixes
    eps on every call; the objective's draws (one dropout mask and one
    ``rng.random(V)`` per batch) have shapes set by the batch alone, so each
    call sees the same noise and the loss is a deterministic function of the
    parameters, which are float64, the reference dtype. V=7, cell 4,
    latent 3, two decoder layers, weights uniform in +-1. K=1: the targets
    hold 4 distinct ids (PAD, EOS, 5, 6), so the candidate set is 5 of the 7
    ids and the check exercises a proper subset.
    ``changes`` replaces HyperParams fields (e.g. ``lenemb=False``). The
    default-shape instances are pre-screened (see GRADCHECK_SEEDS) so that
    every nonzero parameter gradient is large enough (>= ~4e-6) to be
    resolved by a float64 central difference at step 1e-5; below that
    magnitude the relative-error quotient measures rounding noise rather
    than correctness. A changed shape needs its own screening check.
    """
    seed = GRADCHECK_SEEDS[index % len(GRADCHECK_SEEDS)]
    hp = replace(HyperParams(vocab_size=7, cell_size=4, embed_size=5, latent_dim=3,
                             bow_width=6, len_embed_size=3, decoder_layers=2,
                             max_len_index=8, softmax_samples=1), **changes)
    rng = np.random.default_rng(1000 + seed)
    params = init_params(hp, rng, dtype=np.float64)
    for _, t in params.items():
        t.data[:] = rng.uniform(-1.0, 1.0, size=t.data.shape)
    batch = make_batch([[5, 6, 5], [6, 5]], hp.vocab_size)
    eps_noise = np.random.default_rng(3000 + seed).standard_normal((2, hp.latent_dim))

    def loss_fn(p):
        loss, _ = total_loss(batch, p, hp, kl_weight=0.7, mode="train",
                             rng=np.random.default_rng(2000 + seed),
                             dropout_keep=0.87, eps=eps_noise)
        return loss

    return params, loss_fn


# Screened instance seeds for tiny_gradcheck_instance: the first ten seeds
# whose minimum nonzero gradient magnitude is >= GRADCHECK_MIN_GRADIENT.
# Re-screen (scan that minimum over seeds 0, 1, 2, ...) if the model's draw
# order changes.
GRADCHECK_MIN_GRADIENT = 4e-6
GRADCHECK_SEEDS = (13, 19, 23, 25, 26, 30, 31, 32, 39, 44)


def total_loss(batch: Batch, params: ParamStore, hp: HyperParams, kl_weight: float,
               mode: str, rng=None, *, dropout_keep: float = 1.0,
               word_drop_p: float = 0.0, eps: np.ndarray | None = None):
    """Scalar objective and its components for one batch.

    mode "train": word dropout at ``word_drop_p`` on the teacher-forcing
    inputs (the targets stay clean), hidden-state dropout at
    ``dropout_keep``, candidates from ``draw_negatives``, noise drawn from
    ``rng`` unless ``eps`` is supplied. mode "eval": every id a candidate
    (the full softmax), no dropout of either kind, eps defaults to 0. Only
    the real decoder rows (``live``) reach the dropout and the output layer,
    but each draw keeps the padded shape, and ``draw_negatives`` gets PAD
    targets too: without them the loss and ``GRADCHECK_SEEDS`` would move.

    Returns (loss Tensor, components dict with reconstruction / kl / bow /
    total floats; kl is the unweighted batch-mean KL value).
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    if not 0.0 <= kl_weight <= 1.0:
        raise ValueError(f"kl_weight must be in [0, 1], got {kl_weight}")
    training = mode == "train"
    rows = batch_rows(batch)
    targets, live, n = rows.targets, rows.live, rows.dec_in.shape[0]
    dec_in = word_dropout(rows.dec_in, word_drop_p, rng) if training else rows.dec_in
    latent = encode(rows, params, hp)
    if eps is None:
        eps = rng.standard_normal((n, hp.latent_dim)) if training \
            else np.zeros((n, hp.latent_dim))
    z = reparameterize(latent, eps)
    kl_mean = scale(sum_all(kl_divergence(latent)), 1.0 / n)

    states = gather_rows(decoder_states(z, dec_in, rows.countdown, params, hp), live)
    if training:
        if dropout_keep < 1.0:
            keep_mask = rng.random((targets.size, hp.cell_size))[live] < dropout_keep
            states = mul_const(states, keep_mask.astype(states.data.dtype) / dropout_keep)
        ids, target_pos = draw_negatives(rng, hp.vocab_size, hp.softmax_samples, targets)
    else:
        ids, target_pos = np.arange(hp.vocab_size), targets
    logits = sampled_logits(states, params["out.W"], params["out.b"], ids)
    reconstruction = scale(cross_entropy_rows(logits, target_pos[live]), 1.0 / n)

    bow = bow_loss(z, batch.bow, params, hp)
    total = add(add(reconstruction, scale(kl_mean, kl_weight)), bow)
    components = {
        "reconstruction": float(reconstruction.data),
        "kl": float(kl_mean.data),
        "bow": float(bow.data),
        "total": float(total.data),
    }
    return total, components
