"""Walk through the text pipeline: normalization, vocabulary, batching.

Run:  python3 demos/01_text_pipeline.py
"""

import numpy as np

from lenvae import build_vocab, encode_sentences, filter_by_length, make_batch, normalize

# Normalization lowercases, splits punctuation into separate tokens and
# replaces digit runs by the reserved "#" token.
examples = [
    "Sold 25 Cars.",
    "IBM announced a 2-year deal worth $1,000,000!",
    "Pi is roughly 3.14159, they say.",
]
print("== normalization ==")
for raw in examples:
    print(f"  {raw!r:55s} -> {normalize(raw)}")

# A vocabulary keeps the top-k most frequent content tokens after five
# reserved entries (PAD, UNK, BOS, EOS, #). Ties break alphabetically.
corpus = [normalize(line) for line in [
    "the cat sat on the mat",
    "the dog sat on the log",
    "a cat and a dog",
]]
vocab = build_vocab(corpus, top_k=6)
print("\n== vocabulary (top 6 content tokens) ==")
for i, tok in enumerate(vocab.tokens):
    print(f"  id {i}: {tok}")
print("  'zebra' is out of vocabulary ->", vocab.encode(["zebra"]))

# Length filtering is inclusive at the boundary.
kept = filter_by_length(corpus, max_words=6)
print(f"\n== length filter (max 6 words): kept {len(kept)} of {len(corpus)} ==")

# Batches pad to the longest member; their bag-of-words counts (which
# training does not read) sum to each sentence's word count.
sentences = encode_sentences(kept, vocab)
batch = make_batch(sentences, vocab.size)
print("\n== batch ==")
print("  id matrix:\n", batch.ids)
print("  true lengths:", batch.lengths)
print("  bag-of-words counts sum per row:", batch.bow.sum(axis=1),
      "(equals the word counts)")
assert np.array_equal(batch.bow.sum(axis=1), batch.lengths.astype(float))
