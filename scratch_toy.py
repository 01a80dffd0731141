"""Scratch: tune the toy length-control experiment (not part of the package)."""

import sys
import time
from dataclasses import replace

import numpy as np

from lenvae.inference import summarize
from lenvae.metrics import byte_cap, rouge_n
from lenvae.model import HyperParams
from lenvae.probe import probe_experiment
from lenvae.textpipe import (
    build_vocab, default_toy_grammar, encode_sentences, generate_toy_corpus,
    normalize,
)
from lenvae.training import TrainConfig, train

SEED = int(sys.argv[1]) if len(sys.argv) > 1 else 0
STEPS = int(sys.argv[2]) if len(sys.argv) > 2 else 1500
LR = float(sys.argv[3]) if len(sys.argv) > 3 else 0.002
LAYERS = int(sys.argv[4]) if len(sys.argv) > 4 else 2

t0 = time.time()
lines = generate_toy_corpus(default_toy_grammar(), 5000, seed=101)
tokens = [normalize(l) for l in lines]
vocab = build_vocab(tokens, top_k=100)
sentences = encode_sentences(tokens, vocab)
train_sents, held_out = sentences[:4800], lines[4800:]
print(f"vocab {vocab.size}, corpus {len(sentences)}")

hp = HyperParams(vocab_size=vocab.size, cell_size=32, embed_size=32, latent_dim=16,
                 bow_width=32, len_embed_size=8, decoder_layers=LAYERS,
                 max_len_index=30, softmax_samples=32)
cfg = TrainConfig(batch_size=64, total_steps=STEPS, anneal_horizon=min(1000, STEPS // 2),
                  seed=SEED, learning_rate=LR, checkpoint_interval=10**9)

result = train(train_sents, vocab, hp, cfg)
print(f"lenemb model trained in {time.time()-t0:.0f}s; last:", result.metrics.records[-1])

hp_no = replace(hp, lenemb=False)
t1 = time.time()
result_no = train(train_sents, vocab, hp_no, cfg)
print(f"no-lenemb model trained in {time.time()-t1:.0f}s; last:", result_no.metrics.records[-1])

# --- criterion 7: length control ---
t2 = time.time()
requested, produced = [], []
outputs_by_req = {4: [], 8: [], 12: []}
natural_lengths = []
for line in held_out:
    for req in (4, 8, 12):
        out = summarize(line, req, result.params, hp, vocab, beam_width=8, max_tokens=20)
        requested.append(req)
        produced.append(len(out.split()))
        outputs_by_req[req].append(out)
    nat = summarize(line, "natural", result.params, hp, vocab, beam_width=8, max_tokens=20)
    natural_lengths.append(len(nat.split()))
pearson = float(np.corrcoef(requested, produced)[0, 1])
print(f"decoded in {time.time()-t2:.0f}s")
print(f"PEARSON requested vs produced: {pearson:.3f} (need >= 0.8)")
for req in (4, 8, 12):
    lens = [len(o.split()) for o in outputs_by_req[req]]
    print(f"  req {req}: mean {np.mean(lens):.2f} std {np.std(lens):.2f} "
          f"dist {np.bincount(lens, minlength=15)[:15]}")
nat_std = float(np.std(natural_lengths))
fixed_std = float(np.std([len(o.split()) for o in outputs_by_req[8]]))
print(f"STD fixed-8 {fixed_std:.2f} vs natural {nat_std:.2f} (need fixed <= 0.5*natural)")

# --- criterion 8: probe direction ---
probe = probe_experiment(result.params, hp, result_no.params, hp_no,
                         sentences[:2000], seed=0)
print(f"PROBE R2 with {probe.r2_with:.3f} without {probe.r2_without:.3f} "
      f"(need without > with)")

# --- criterion 9: first-k references, capped ROUGE-1 ---
for k, cap, req in ((6, 40, 7), (6, 35, 6), (5, 35, 6)):
    refs = [" ".join(normalize(l)[:k]) for l in held_out]
    short_scores, nat_scores = [], []
    for i, line in enumerate(held_out):
        req_out = outputs_by_req[8 if req == 8 else req][i] if req in outputs_by_req else None
        short = summarize(line, req, result.params, hp, vocab, beam_width=8, max_tokens=20) \
            if req not in outputs_by_req else outputs_by_req[req][i]
        nat = summarize(line, "natural", result.params, hp, vocab, beam_width=8, max_tokens=20)
        short_scores.append(rouge_n(byte_cap(short, cap).split(), [refs[i].split()], 1).recall)
        nat_scores.append(rouge_n(byte_cap(nat, cap).split(), [refs[i].split()], 1).recall)
    print(f"k={k} cap={cap} req={req}: short R1 {np.mean(short_scores):.4f} "
          f"vs natural {np.mean(nat_scores):.4f} (need short > natural)")
print(f"total {time.time()-t0:.0f}s")
