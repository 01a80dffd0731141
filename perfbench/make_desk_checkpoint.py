"""Regenerate the stored desk checkpoint that the `desk` decode phase loads.

    PYTHONPATH=src python3 perfbench/make_desk_checkpoint.py

Trains the desk-scale model for STEPS steps on the toy grammar corpus and
writes perfbench/data/desk_1500.lvae plus a JSON record of its recipe and
sha256. Training is bit-deterministic, so on the same numpy/OpenBLAS build
the regenerated file has the recorded sha256; a different BLAS may round
differently and give another hash.
"""

import hashlib
import json
import os
import time

from lenvae.checkpoint import checkpoint_save
from lenvae.model import HyperParams
from lenvae.textpipe import (
    build_vocab, default_toy_grammar, encode_sentences, generate_toy_corpus, normalize,
)
from lenvae.training import TrainConfig, train

CORPUS_SEED = 101
CORPUS_SIZE = 4800
TRAIN_SEED = 0
STEPS = 1500

HERE = os.path.dirname(os.path.abspath(__file__))
CKPT_PATH = os.path.join(HERE, "data", "desk_1500.lvae")
RECORD_PATH = os.path.join(HERE, "data", "desk_1500.json")


def sha256_of(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def main():
    tokens = [normalize(line)
              for line in generate_toy_corpus(default_toy_grammar(), CORPUS_SIZE, CORPUS_SEED)]
    vocab = build_vocab(tokens, top_k=100)
    hp = HyperParams(vocab_size=vocab.size)
    config = TrainConfig(batch_size=64, total_steps=STEPS, anneal_horizon=STEPS // 2,
                         seed=TRAIN_SEED, checkpoint_interval=STEPS)
    start = time.perf_counter()
    result = train(encode_sentences(tokens, vocab), vocab, hp, config)
    elapsed = time.perf_counter() - start
    checkpoint_save(CKPT_PATH, result.params, hp, vocab, STEPS)
    record = {
        "file": os.path.basename(CKPT_PATH),
        "sha256": sha256_of(CKPT_PATH),
        "recipe": {"corpus": "generate_toy_corpus(default_toy_grammar())",
                   "corpus_seed": CORPUS_SEED, "corpus_size": CORPUS_SIZE,
                   "top_k": 100, "hyperparams": "HyperParams(vocab_size) defaults",
                   "batch_size": 64, "total_steps": STEPS,
                   "anneal_horizon": STEPS // 2, "train_seed": TRAIN_SEED},
        "final_loss": result.metrics.records[-1][5],
    }
    with open(RECORD_PATH, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=2)
        f.write("\n")
    print(f"wrote {CKPT_PATH} in {elapsed:.1f}s, sha256 {record['sha256']}")


if __name__ == "__main__":
    main()
