"""Corpus ingestion: normalization, vocabulary, batching, and a toy corpus.

Normalization lowercases, splits punctuation off into separate tokens and
replaces digit runs (optionally with . or , separators, e.g. "1,000" or
"3.14") by the "#" token. Vocabularies keep the top-k most frequent content
tokens after five reserved entries. Batches carry a PAD-filled id matrix,
true lengths and the vocabulary size. The model reads only the ids and
lengths; ``Batch.bow`` derives bag-of-words count vectors from them for
inspection, one (B, V) array per read, and training never reads it.
"""

import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

PAD, UNK, BOS, EOS, NUM = "<pad>", "<unk>", "<s>", "</s>", "#"
RESERVED_TOKENS = (PAD, UNK, BOS, EOS, NUM)
PAD_ID, UNK_ID, BOS_ID, EOS_ID, NUM_ID = range(5)

# digit runs (with optional ./, separators) first, then letter runs, then any
# single other non-space character
_TOKEN_RE = re.compile(r"\d+(?:[.,]\d+)*|[^\W\d_]+|\S")


def normalize(raw: str) -> list[str]:
    """Lowercase and tokenize one line; digit runs become the NUM token."""
    tokens = []
    for m in _TOKEN_RE.finditer(raw.lower()):
        tok = m.group(0)
        if tok[0].isdigit():
            tok = NUM
        tokens.append(tok)
    return tokens


class Vocabulary:
    """Bidirectional token<->id map; reserved tokens occupy ids 0..4."""

    def __init__(self, content_tokens):
        self.tokens = list(RESERVED_TOKENS) + list(content_tokens)
        self._ids = {tok: i for i, tok in enumerate(self.tokens)}
        if len(self._ids) != len(self.tokens):
            raise ValueError("vocabulary tokens must be unique")

    @property
    def size(self) -> int:
        return len(self.tokens)

    def encode(self, tokens) -> list[int]:
        return [self._ids.get(t, UNK_ID) for t in tokens]

    def decode(self, ids) -> list[str]:
        return [self.tokens[i] for i in ids]

    def save(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for tok in self.tokens:
                f.write(tok + "\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        with open(path, encoding="utf-8") as f:
            tokens = [line.rstrip("\n") for line in f]
        while tokens and tokens[-1] == "":
            tokens.pop()
        return cls.from_tokens(tokens)

    @classmethod
    def from_tokens(cls, tokens) -> "Vocabulary":
        """Rebuild from a full token list (reserved entries included)."""
        tokens = list(tokens)
        if tokens[:5] != list(RESERVED_TOKENS):
            raise ValueError("token list does not start with the reserved tokens")
        return cls(tokens[5:])


def build_vocab(corpus, top_k: int) -> Vocabulary:
    """Vocabulary of the ``top_k`` most frequent tokens plus the reserved five.

    ``corpus`` is an iterable of token sequences. Frequency ties break
    lexicographically. Tokens that collide with a reserved token (realistically
    only "#") are not counted as content.
    """
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    reserved = set(RESERVED_TOKENS)
    counts = Counter()
    n_sentences = 0
    for sent in corpus:
        n_sentences += 1
        counts.update(t for t in sent if t not in reserved)
    if n_sentences == 0:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return Vocabulary([tok for tok, _ in ranked[:top_k]])


def filter_by_length(corpus, max_words: int):
    """Keep sentences with at most ``max_words`` tokens, order preserved."""
    if max_words < 1:
        raise ValueError(f"max_words must be >= 1, got {max_words}")
    return [sent for sent in corpus if len(sent) <= max_words]


def encode_sentences(token_corpus, vocab: Vocabulary) -> list[list[int]]:
    """One id list per token sequence; ids contain no PAD/BOS/EOS."""
    return [vocab.encode(toks) for toks in token_corpus]


@dataclass
class Batch:
    """PAD-filled id matrix with true lengths, over a vocabulary of
    ``vocab_size`` ids.

    ids (B, T) int; positions at or beyond the true length are PAD.
    A batch holds no (B, V) array: ``bow`` derives the bag-of-words counts
    from ``ids`` and ``lengths`` on every read. Training scores the words
    from ``ids`` and ``lengths`` directly and never reads ``bow``.
    """

    ids: np.ndarray
    lengths: np.ndarray
    vocab_size: int

    @property
    def bow(self) -> np.ndarray:
        """(B, V) float32 counts over each sentence's own ids (no
        PAD/BOS/EOS), a fresh array per read; counts below 2**24 are exact
        in float32. For inspection: the model does not read it."""
        in_sentence = np.arange(self.ids.shape[1]) < self.lengths[:, None]
        counts = np.zeros((self.ids.shape[0], self.vocab_size), dtype=np.float32)
        np.add.at(counts, (np.nonzero(in_sentence)[0], self.ids[in_sentence]), 1.0)
        return counts


def make_batch(sentences: list[list[int]], vocab_size: int) -> Batch:
    """One batch of id lists over ``vocab_size`` ids; its counts are
    derived when ``Batch.bow`` is read."""
    n = len(sentences)
    lengths = np.array([len(s) for s in sentences], dtype=np.intp)
    width = int(lengths.max()) if n else 0
    ids = np.full((n, width), PAD_ID, dtype=np.intp)
    for r, s in enumerate(sentences):
        ids[r, :len(s)] = s
    return Batch(ids=ids, lengths=lengths, vocab_size=vocab_size)


def encode_batch(sentences, vocab: Vocabulary, batch_size: int,
                 rng: np.random.Generator) -> list[Batch]:
    """Partition sentences, shuffled by ``rng``, into batches; each sentence
    appears exactly once. The batches hold ids and lengths only, so an
    epoch takes O(tokens) memory; each step derives its own counts."""
    order = np.arange(len(sentences))
    rng.shuffle(order)
    batches = []
    for start in range(0, len(sentences), batch_size):
        chunk = [sentences[i] for i in order[start:start + batch_size]]
        batches.append(make_batch(chunk, vocab.size))
    return batches


# ---------------------------------------------------------------------------
# synthetic toy corpus
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrammarSpec:
    """Templated sentence grammar: DET ADJ* NOUN VERB ADV*.

    The adjective and adverb chains are contiguous runs read cyclically from
    their word pools starting at a random offset, so a chain is determined by
    its start and length rather than by independent draws. That keeps the
    per-sentence content compact while the chain lengths still vary freely:
    the same prefix can either stop or continue, so sentence length carries
    information of its own.
    """

    determiners: tuple
    adjectives: tuple
    nouns: tuple
    verbs: tuple
    adverbs: tuple
    min_words: int = 4
    max_words: int = 12

    @property
    def core_words(self) -> frozenset:  # a sentence without its ADJ* and ADV* chains
        return frozenset(self.determiners + self.nouns + self.verbs)


def default_toy_grammar() -> GrammarSpec:
    return GrammarSpec(
        determiners=("the", "a"),
        adjectives=("red", "blue", "green", "old", "young", "tall", "small",
                    "loud", "quiet", "happy"),
        nouns=("cat", "dog", "bird", "fox", "horse", "mouse", "wolf", "bear",
               "fish", "owl", "rabbit", "deer"),
        verbs=("runs", "sleeps", "jumps", "sings", "hides", "waits", "plays",
               "hunts", "swims", "climbs"),
        adverbs=("quickly", "slowly", "quietly", "loudly", "gladly", "sadly",
                 "calmly", "boldly", "softly", "early"),
    )


def _cyclic_run(pool, start: int, count: int) -> list[str]:
    return [pool[(start + i) % len(pool)] for i in range(count)]


def generate_toy_corpus(grammar: GrammarSpec, size: int, seed: int) -> list[str]:
    """Deterministic surface-text sentences usable as normalize() input.

    Target lengths are drawn uniformly over the grammar's range; the split
    between the adjective and adverb chains is drawn uniformly over the
    feasible splits, so every length in the range occurs with comparable
    frequency. Chains are cyclic runs (see GrammarSpec).
    """
    rng = np.random.default_rng(seed)
    g = grammar
    max_adj = min(len(g.adjectives), g.max_words - 3)  # det + noun + verb fixed
    lines = []
    for _ in range(size):
        total = int(rng.integers(g.min_words, g.max_words + 1))
        extra = total - 3  # words beyond det/noun/verb
        lo = max(0, extra - len(g.adverbs))
        hi = min(extra, max_adj)
        n_adj = int(rng.integers(lo, hi + 1))
        n_adv = extra - n_adj
        words = [str(rng.choice(g.determiners))]
        words += _cyclic_run(g.adjectives, int(rng.integers(len(g.adjectives))), n_adj)
        words.append(str(rng.choice(g.nouns)))
        words.append(str(rng.choice(g.verbs)))
        words += _cyclic_run(g.adverbs, int(rng.integers(len(g.adverbs))), n_adv)
        lines.append(" ".join(words))
    return lines
