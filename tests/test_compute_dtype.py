"""float32 is the compute type: a train step and a decode of a float32 model
make every value, gradient, moment and score in float32 (no silent upcast)."""

import numpy as np

from lenvae import inference, training
from lenvae.model import HyperParams, total_loss
from lenvae.numerics import lstm, tensor
from lenvae.numerics.tensor import _toposort
from lenvae.textpipe import (
    build_vocab, default_toy_grammar, encode_sentences, generate_toy_corpus, make_batch,
    normalize,
)
from lenvae.training import TrainConfig, train


def _graph_dtypes(loss, seen, kind):
    """Records the dtype of every node's value, and wraps every backward so
    that it records the dtype of the gradient it is handed."""
    for node in _toposort(loss):
        op = node._backward.__qualname__.split(".")[0] if node._backward else "leaf"
        seen.append((f"{kind} value of {op}", node.data.dtype))
        if node._backward is not None:
            def checked(g, op=op, backward=node._backward):
                seen.append((f"upstream gradient of {op}", g.dtype))
                backward(g)
            node._backward = checked


def test_one_train_step_and_one_summarize_stay_float32(monkeypatch):
    lines = generate_toy_corpus(default_toy_grammar(), 64, seed=0)
    tokens = [normalize(line) for line in lines]
    vocab = build_vocab(tokens, top_k=100)
    hp = HyperParams(vocab_size=vocab.size)  # the desk shape
    cfg = TrainConfig(batch_size=32, total_steps=1, anneal_horizon=1, seed=5)
    seen = []

    def watched_loss(*args, **kwargs):
        loss, comps = total_loss(*args, **kwargs)
        _graph_dtypes(loss, seen, "train")
        return loss, comps

    def watched_accum(accum):
        def run(t, g):
            seen.append(("accumulated gradient", g.dtype))
            accum(t, g)
        return run

    adam_step = training.adam_step

    def watched_adam(params, state, grad_scale):
        for name, t in params.items():
            seen.extend([(f"gradient of {name}", t.grad.dtype),
                         (f"m of {name}", state.m[name].dtype),
                         (f"v of {name}", state.v[name].dtype)])
        adam_step(params, state, grad_scale)

    monkeypatch.setattr(training, "total_loss", watched_loss)
    monkeypatch.setattr(training, "adam_step", watched_adam)
    monkeypatch.setattr(tensor, "_accum", watched_accum(tensor._accum))
    monkeypatch.setattr(lstm, "_accum", watched_accum(lstm._accum))
    params = train(encode_sentences(tokens, vocab), vocab, hp, cfg).params
    seen.extend((f"parameter of {name}", t.data.dtype) for name, t in params.items())

    eval_loss, _ = total_loss(make_batch(encode_sentences(tokens[:8], vocab), vocab.size),
                              params, hp, 1.0, "eval")
    _graph_dtypes(eval_loss, seen, "eval")
    eval_loss.backward()

    decode_step, best_entries = inference.decode_step, inference.best_entries

    def watched_decode_step(prev_emb, shared, state, params, hp, out):
        seen.extend([("decode embedding", prev_emb.dtype),
                     ("decode z and length input", shared.dtype), ("score buffer", out.dtype)]
                    + [("decode state", a.dtype) for pair in state for a in pair])
        logits, new_state = decode_step(prev_emb, shared, state, params, hp, out=out)
        seen.extend([("logits", logits.dtype)]
                    + [("decode state", a.dtype) for pair in new_state for a in pair])
        return logits, new_state

    def watched_best_entries(scores, width):
        idx, values = best_entries(scores, width)
        seen.extend([("beam scores", scores.dtype), ("kept scores", values.dtype)])
        return idx, values

    monkeypatch.setattr(inference, "decode_step", watched_decode_step)
    monkeypatch.setattr(inference, "best_entries", watched_best_entries)
    out = inference.summarize(lines[0], 3, params, hp, vocab, beam_width=4, max_tokens=8)

    assert isinstance(out, str)
    kinds = {kind.split(" of ")[0] for kind, _ in seen}
    assert {"train value", "upstream gradient", "accumulated gradient", "gradient", "m", "v",
            "parameter", "eval value", "score buffer", "beam scores"} <= kinds
    upcast = sorted({kind for kind, dtype in seen if dtype != np.float32})
    assert upcast == []
