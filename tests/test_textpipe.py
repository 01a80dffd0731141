"""Normalization, vocabulary, batching and toy-corpus behavior."""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lenvae.textpipe import (
    BOS_ID, EOS_ID, NUM, PAD_ID, RESERVED_TOKENS, UNK_ID,
    Vocabulary, build_vocab, default_toy_grammar, encode_batch,
    encode_sentences, filter_by_length, generate_toy_corpus, make_batch,
    normalize,
)

# Hand-reviewed outputs of the frozen tokenizer rule set: digit runs (with
# ./, separators) -> "#", letter runs kept whole, any other character split
# off as a single token.
TOKENIZER_GOLDEN = [
    ("Sold 25 Cars.", ["sold", "#", "cars", "."]),
    ("IBM", ["ibm"]),
    ("on 01/02, 2017 we...", ["on", "#", "/", "#", ",", "#", "we", ".", ".", "."]),
    ("A 2-year deal worth $1,000,000!",
     ["a", "#", "-", "year", "deal", "worth", "$", "#", "!"]),
    ("Pi is 3.14159, roughly.", ["pi", "is", "#", ",", "roughly", "."]),
    ("Don't stop believing", ["don", "'", "t", "stop", "believing"]),
    ("e-mail me: test@example.com",
     ["e", "-", "mail", "me", ":", "test", "@", "example", ".", "com"]),
    ("Scores were 7-3 and 11-0",
     ["scores", "were", "#", "-", "#", "and", "#", "-", "#"]),
    ("  leading and trailing   spaces  ", ["leading", "and", "trailing", "spaces"]),
    ("commas, in 1, 2, and 3,000 forms",
     ["commas", ",", "in", "#", ",", "#", ",", "and", "#", "forms"]),
]


@pytest.mark.parametrize("raw,expected", TOKENIZER_GOLDEN)
def test_normalize_golden(raw, expected):
    assert normalize(raw) == expected


def test_normalize_empty_line():
    assert normalize("") == []
    assert normalize("   \t ") == []


def test_digit_runs_all_become_num_token():
    for raw in ("7", "1234", "3.14", "1,000", "10.0,5"):
        assert normalize(raw) == [NUM]


# ---------------------------------------------------------------------------
# vocabulary
# ---------------------------------------------------------------------------

def test_build_vocab_frequency_order():
    vocab = build_vocab([["a", "a", "b"]], top_k=1)
    assert vocab.tokens[:5] == list(RESERVED_TOKENS)
    assert vocab.tokens[5:] == ["a"]
    assert vocab.encode(["b"]) == [UNK_ID]
    assert vocab.encode(["a"]) == [5]


def test_build_vocab_lexicographic_tie_break():
    vocab = build_vocab([["b", "a", "b", "a"]], top_k=1)
    assert vocab.tokens[5:] == ["a"]


def test_build_vocab_empty_corpus_errors():
    with pytest.raises(ValueError):
        build_vocab([], top_k=5)
    with pytest.raises(ValueError):
        build_vocab([["a"]], top_k=0)


def test_build_vocab_num_token_not_duplicated():
    vocab = build_vocab([["#", "#", "x"]], top_k=5)
    assert vocab.tokens.count("#") == 1
    assert vocab.encode(["#"]) == [4]


def test_vocab_roundtrip_ids():
    vocab = build_vocab([["cat", "sat", "cat"]], top_k=10)
    ids = list(range(vocab.size))
    assert vocab.encode(vocab.tokens) == ids
    assert vocab.decode(ids) == vocab.tokens


def test_vocab_file_roundtrip(tmp_path):
    vocab = build_vocab([["z", "y", "z", "x"]], top_k=3)
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    loaded = Vocabulary.load(path)
    assert loaded.tokens == vocab.tokens
    text = path.read_text(encoding="utf-8").splitlines()
    assert text[:5] == list(RESERVED_TOKENS)  # line number == id


def test_vocab_file_with_trailing_blank_lines_loads(tmp_path):
    vocab = build_vocab([["z", "y", "z", "x"]], top_k=3)
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    path.write_text(path.read_text(encoding="utf-8") + "\n\n", encoding="utf-8")
    assert Vocabulary.load(path).tokens == vocab.tokens


def test_vocab_rejects_repeated_tokens():
    with pytest.raises(ValueError, match="vocabulary tokens must be unique"):
        Vocabulary(["a", "a"])


def test_encode_decode_roundtrip_for_in_vocab_sentences():
    corpus = [normalize("the cat sat on the mat"), normalize("a dog ran")]
    vocab = build_vocab(corpus, top_k=50)
    for toks in corpus:
        assert vocab.decode(vocab.encode(toks)) == toks


# ---------------------------------------------------------------------------
# filtering and batching
# ---------------------------------------------------------------------------

def test_filter_by_length_boundary():
    s30 = ["w"] * 30
    s31 = ["w"] * 31
    assert filter_by_length([s30, s31], 30) == [s30]
    assert filter_by_length([], 30) == []
    with pytest.raises(ValueError):
        filter_by_length([s30], 0)


def test_bow_counts_single_occurrence():
    vocab = build_vocab([["a", "b"]], top_k=2)
    batch = make_batch(encode_sentences([["a", "b"]], vocab), vocab.size)
    expected = np.zeros(vocab.size)
    expected[vocab.encode(["a", "b"])] = 1
    np.testing.assert_array_equal(batch.bow[0], expected)
    assert batch.bow.dtype == np.float32   # exact counts at half float64's bytes


def test_bow_counts_duplicates():
    vocab = build_vocab([["a"]], top_k=1)
    batch = make_batch(encode_sentences([["a", "a"]], vocab), vocab.size)
    assert batch.bow[0, vocab.encode(["a"])[0]] == 2
    assert batch.bow[0].sum() == 2  # equals the content-token count


def test_bow_is_derived_per_read_and_counts_only_true_positions():
    # ids beyond a row's length are PAD here, but any id there must be
    # ignored; a batch holds no (B, V) array, and each read is a fresh one
    rng = np.random.default_rng(5)
    sents = [rng.integers(5, 40, size=n).tolist() for n in (7, 1, 12, 3)]
    batch = make_batch(sents, 40)
    expected = np.zeros((4, 40), dtype=np.float32)
    for r, s in enumerate(sents):
        for i in s:
            expected[r, i] += 1.0
    np.testing.assert_array_equal(batch.bow, expected)
    assert batch.bow is not batch.bow
    assert [f.name for f in dataclasses.fields(batch)] == ["ids", "lengths", "vocab_size"]
    batch.ids[0, 7:] = 9   # beyond the first row's length
    np.testing.assert_array_equal(batch.bow, expected)
    assert make_batch([], 40).bow.shape == (0, 40)


def test_batch_padding_and_lengths():
    vocab = build_vocab([["a", "b", "c", "d", "e"]], top_k=5)
    sents = encode_sentences([["a", "b", "c"], ["a", "b", "c", "d", "e"]], vocab)
    batch = make_batch(sents, vocab.size)
    assert batch.ids.shape == (2, 5)
    np.testing.assert_array_equal(batch.lengths, [3, 5])
    assert (batch.ids[0, 3:] == PAD_ID).all()
    assert BOS_ID not in batch.ids and EOS_ID not in batch.ids


def test_encode_batch_partition():
    vocab = build_vocab([["a"]], top_k=1)
    sents = [[5] * (i + 1) for i in range(10)]  # distinct lengths
    batches = encode_batch(sents, vocab, batch_size=3,
                           rng=np.random.default_rng(0))
    sizes = [b.ids.shape[0] for b in batches]
    assert sum(sizes) == 10 and sizes == [3, 3, 3, 1]
    assert sorted(n for b in batches for n in b.lengths) == list(range(1, 11))
    batches_again = encode_batch(sents, vocab, batch_size=3,
                                 rng=np.random.default_rng(0))
    for b1, b2 in zip(batches, batches_again):
        np.testing.assert_array_equal(b1.ids, b2.ids)


# ---------------------------------------------------------------------------
# toy corpus
# ---------------------------------------------------------------------------

def test_toy_corpus_deterministic():
    g = default_toy_grammar()
    assert generate_toy_corpus(g, 10, seed=7) == generate_toy_corpus(g, 10, seed=7)
    assert generate_toy_corpus(g, 0, seed=7) == []


def test_toy_corpus_covers_every_grammar_length():
    g = default_toy_grammar()
    lines = generate_toy_corpus(g, 5000, seed=3)
    lengths = {len(line.split()) for line in lines}
    assert lengths == set(range(g.min_words, g.max_words + 1))  # 4..12 all present


def test_toy_corpus_closure():
    g = default_toy_grammar()
    vocab_tokens = set(g.determiners + g.adjectives + g.nouns + g.verbs + g.adverbs)
    assert len(vocab_tokens) <= 100
    for line in generate_toy_corpus(g, 300, seed=5):
        assert set(line.split()) <= vocab_tokens


def test_core_words_are_one_determiner_noun_and_verb_of_every_line():
    g = default_toy_grammar()
    for line in generate_toy_corpus(g, 5000, seed=101):
        words = line.split()
        core = [i for i, w in enumerate(words) if w in g.core_words]
        assert len(core) == 3, line
        det, noun, verb = core
        assert (words[det] in g.determiners and words[noun] in g.nouns
                and words[verb] in g.verbs), line
        assert det == 0 and verb == noun + 1, line
        assert all(w in g.adjectives for w in words[det + 1:noun]), line
        assert all(w in g.adverbs for w in words[verb + 1:]), line


# sha256 of the 5,000-line toy corpus at seed 101, one sentence per line
CLAIMS_CORPUS_SHA256 = "5dd9be29e35f8a79476ed2f3ddde43a33b497169b03b82134baeae58315503b6"


def test_claims_corpus_is_pinned():
    # claims/run.py trains on this corpus, perfbench/data/desk_1500.lvae on its first 4,800 lines
    text = "".join(line + "\n" for line in generate_toy_corpus(default_toy_grammar(), 5000,
                                                                 seed=101))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == CLAIMS_CORPUS_SHA256


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_toy_corpus_lengths_in_range(seed):
    g = default_toy_grammar()
    for line in generate_toy_corpus(g, 20, seed=seed):
        assert g.min_words <= len(line.split()) <= g.max_words
