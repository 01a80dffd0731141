"""The benchmark's two workloads: their shapes and their seeded inputs.

Every input is generated from the benchmark's ``--seed``; the program under
test only ever sees the generated sentences, vocabulary and parameters.
"""

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

from lenvae.checkpoint import checkpoint_load
from lenvae.inference import NATURAL
from lenvae.model import HyperParams, init_params
from lenvae.textpipe import (
    Vocabulary, build_vocab, default_toy_grammar, encode_sentences,
    generate_toy_corpus, make_batch, normalize,
)
from lenvae.training import TrainConfig

HERE = os.path.dirname(os.path.abspath(__file__))
DESK_CHECKPOINT = os.path.join(HERE, "data", "desk_1500.lvae")
DESK_CHECKPOINT_RECORD = os.path.join(HERE, "data", "desk_1500.json")
REQUESTS = (4, 8, 12, NATURAL)
LETTERS = np.array(list("abcdefghijklmnopqrstuvwxyz"))
# paper-vocab sentences: at most MAX_WORDS words, LONG_SHARE of them exactly
# that long so nearly every batch of 16 reaches the full width (P(no full-length
# sentence in a batch) = 0.75**16 = 1%), words drawn with p(rank) ~ rank**-ZIPF_S
MAX_WORDS = 20
LONG_SHARE = 0.25
ZIPF_S = 1.0


@dataclass(frozen=True)
class Spec:
    """Shape of one workload. The train phase repeats a ``train()`` call of
    ``train_steps`` steps; the decode phase cycles through the decode items
    (every decode line at every requested length)."""

    name: str
    batch_size: int
    train_batches: int            # corpus size in batches (one epoch)
    train_steps: int              # steps per train() call
    checkpoint_interval: int | None   # None: no out_dir, no checkpoints
    heldout_size: int             # sentences in the held-out NLL batch
    decode_lines: int
    beam_width: int
    max_tokens: int
    check_items: int              # decoded in every run; digest and length error
    setup_repeats: int
    len_err_limit: float | None = None   # decode length error the model must meet
    vocab_size: int = 0           # paper-vocab only; desk takes the grammar's words


# 64 steps over a 32-batch corpus: two epochs, so every call re-batches once
# mid-call, and checkpoints land every 16 steps
DESK = Spec(name="desk", batch_size=64, train_batches=32, train_steps=64,
            checkpoint_interval=16, heldout_size=64, decode_lines=600,
            beam_width=8, max_tokens=20, check_items=400,
            setup_repeats=5, len_err_limit=0.5)

# B=16, not 64: the graph keeps an (H,B,K) gather alive per time step, and
# B=16 already peaks near 3 GB. 64 batches make encode_batch build a 328 MB
# epoch up front. No out_dir: checkpoint_save would join a 240 MB file in memory.
PAPER_VOCAB = Spec(name="paper-vocab", batch_size=16, train_batches=64, train_steps=3,
                   checkpoint_interval=None, heldout_size=16, decode_lines=16,
                   beam_width=100, max_tokens=20, check_items=2,
                   setup_repeats=3, vocab_size=40_000)

SPECS = {spec.name: spec for spec in (DESK, PAPER_VOCAB)}


@dataclass
class Inputs:
    """Everything a run needs, built in set-up."""

    hp: HyperParams
    vocab: Vocabulary
    sentences: list               # TokenizedSentence, the training corpus
    config: TrainConfig
    heldout: object               # Batch for the held-out NLL
    untrained: object             # ParamStore: the model train() starts from
    decode_params: object
    decode_hp: HyperParams
    decode_vocab: Vocabulary
    items: list                   # (sentence, requested length)


def sha256_of(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _decode_items(lines, count):
    """Every line at every requested length, interleaved so any prefix mixes them."""
    return [(line, REQUESTS[(i + j) % len(REQUESTS)])
            for i, line in enumerate(lines[:count]) for j in range(len(REQUESTS))]


def _train_config(spec: Spec, seed: int) -> TrainConfig:
    interval = spec.checkpoint_interval or spec.train_steps + 1
    return TrainConfig(batch_size=spec.batch_size, total_steps=spec.train_steps,
                       anneal_horizon=spec.train_steps, seed=seed,
                       checkpoint_interval=interval)


def desk_inputs(spec: Spec, seed: int) -> Inputs:
    n_train = spec.batch_size * spec.train_batches
    lines = generate_toy_corpus(default_toy_grammar(),
                                n_train + spec.heldout_size + spec.decode_lines, seed)
    tokens = [normalize(line) for line in lines]
    vocab = build_vocab(tokens[:n_train], top_k=100)
    hp = HyperParams(vocab_size=vocab.size)
    config = _train_config(spec, seed)
    heldout = make_batch(encode_sentences(tokens[n_train:n_train + spec.heldout_size], vocab),
                         vocab.size)
    untrained = init_params(hp, np.random.default_rng(config.seed))
    with open(DESK_CHECKPOINT_RECORD, encoding="utf-8") as f:
        expected_sha256 = json.load(f)["sha256"]
    if sha256_of(DESK_CHECKPOINT) != expected_sha256:
        raise ValueError(f"{DESK_CHECKPOINT} does not match its recorded sha256")
    decode_params, decode_hp, decode_vocab, _ = checkpoint_load(DESK_CHECKPOINT)
    return Inputs(hp=hp, vocab=vocab, sentences=encode_sentences(tokens[:n_train], vocab),
                  config=config, heldout=heldout, untrained=untrained,
                  decode_params=decode_params, decode_hp=decode_hp,
                  decode_vocab=decode_vocab,
                  items=_decode_items(lines[n_train + spec.heldout_size:], spec.decode_lines))


def zipf_word_types(rng, count: int) -> list[str]:
    """``count`` distinct lowercase letter-only words, 2 to 10 letters."""
    words, seen = [], set()
    while len(words) < count:
        lengths = rng.integers(2, 11, size=count)
        letters = LETTERS[rng.integers(0, 26, size=(count, 10))]
        for row, n in zip(letters, lengths):
            word = "".join(row[:n])
            if word not in seen:
                seen.add(word)
                words.append(word)
                if len(words) == count:
                    break
    return words


def zipf_lines(rng, words, count: int) -> list[str]:
    """Sentences of 5 to MAX_WORDS Zipf-ranked words."""
    ranks = np.arange(1, len(words) + 1, dtype=np.float64)
    probs = ranks ** -ZIPF_S
    probs /= probs.sum()
    lengths = np.where(rng.random(count) < LONG_SHARE, MAX_WORDS,
                       rng.integers(5, MAX_WORDS, size=count))
    ids = rng.choice(len(words), size=int(lengths.sum()), p=probs)
    lines, pos = [], 0
    for n in lengths:
        lines.append(" ".join(words[i] for i in ids[pos:pos + n]))
        pos += n
    return lines


def paper_vocab_inputs(spec: Spec, seed: int) -> Inputs:
    rng = np.random.default_rng(seed)
    words = zipf_word_types(rng, spec.vocab_size - 5)
    n_train = spec.batch_size * spec.train_batches
    lines = zipf_lines(rng, words, n_train + spec.heldout_size + spec.decode_lines)
    tokens = [normalize(line) for line in lines]
    if any(toks != line.split() for toks, line in zip(tokens, lines)):
        raise ValueError("generated paper-vocab sentence does not survive normalize()")
    # words are listed by Zipf rank, the order build_vocab would give them
    vocab = Vocabulary(words)
    hp = HyperParams.paper_scale(vocab.size)
    config = _train_config(spec, seed)
    heldout = make_batch(encode_sentences(tokens[n_train:n_train + spec.heldout_size], vocab),
                         vocab.size)
    # the decode model is a seeded init: it is the untrained start of train() too
    untrained = init_params(hp, np.random.default_rng(config.seed))
    return Inputs(hp=hp, vocab=vocab, sentences=encode_sentences(tokens[:n_train], vocab),
                  config=config, heldout=heldout, untrained=untrained,
                  decode_params=untrained, decode_hp=hp, decode_vocab=vocab,
                  items=_decode_items(lines[n_train + spec.heldout_size:], spec.decode_lines))


def build_inputs(spec: Spec, seed: int) -> Inputs:
    if spec.name == "desk":
        return desk_inputs(spec, seed)
    return paper_vocab_inputs(spec, seed)
