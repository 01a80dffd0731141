"""The benchmark's tracer finds lenvae's functions by name; each must exist."""

import importlib
from pathlib import Path

import numpy as np
import pytest

from lenvae import model
from lenvae.inference import DecodeRequest, beam_search, summarize
from lenvae.model import HyperParams, init_params, posterior_means
from lenvae.numerics import tensor
from lenvae.textpipe import EOS_ID, build_vocab, encode_sentences
from lenvae.training import TrainConfig, train

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def test_every_traced_name_resolves(tracing):
    for module, attr in tracing.SPANNED.values():
        assert hasattr(module, attr), f"{module.__name__}.{attr}"
    for op in tracing.OPS:
        assert hasattr(tensor, op), f"numerics.tensor.{op}"
    originals = (model.encode, tensor.Tensor.backward)
    with tracing.Tracer().installed(graph=True):
        assert model.encode is not originals[0]
    assert (model.encode, tensor.Tensor.backward) == originals


def test_decoding_encodes_through_the_traced_encoder(tracing):
    vocab = build_vocab([["the", "cat", "runs"]], top_k=10)
    hp = HyperParams(vocab_size=vocab.size, cell_size=6, embed_size=5,
                     latent_dim=4, bow_width=5, len_embed_size=3,
                     decoder_layers=1, max_len_index=12, softmax_samples=4)
    params = init_params(hp, np.random.default_rng(0))
    tracer = tracing.Tracer()
    with tracer.installed(graph=False):
        summarize("the cat runs", 2, params, hp, vocab, beam_width=2, max_tokens=4)
    names = [span[0] for span in tracer.spans]
    assert names.count("model.encode") == 1
    assert "model.decode_step" in names


def test_decode_spans_once_per_beam_step(tracing):
    # the benchmark's per-step decode buckets count one decode_step and one
    # log_softmax_rows span per step, and read the rows from args[0] (z)
    vocab = build_vocab([["the", "cat", "runs", "a", "dog", "sleeps"]], top_k=10)
    hp = HyperParams(vocab_size=vocab.size, cell_size=6, embed_size=5,
                     latent_dim=4, bow_width=5, len_embed_size=3,
                     decoder_layers=2, max_len_index=12, softmax_samples=4)
    params = init_params(hp, np.random.default_rng(1))
    params["out.b"].data[EOS_ID] = -1e9  # run to the horizon
    tracer = tracing.Tracer()
    with tracer.installed(graph=False):
        summarize("the cat runs", 3, params, hp, vocab, beam_width=3, max_tokens=5)
    mu = posterior_means([vocab.encode(["the", "cat", "runs"])],
                         params, hp)[0]
    result = beam_search(mu, DecodeRequest(beam_width=3, max_tokens=5), params, hp, 3)
    names = [span[0] for span in tracer.spans]
    assert result.steps == 5
    assert names.count("model.decode_step") == result.steps
    assert names.count("numerics.log_softmax_rows") == result.steps
    assert tracer.counts["inference.decode_step.calls"] == result.steps
    assert tracer.counts["inference.decode_step.rows"] == 1 + 3 * (result.steps - 1)


def test_traced_training_spans_one_candidate_draw_per_step(tracing, monkeypatch):
    # the traced run's sampled-softmax metrics count one draw and one gather
    # of the candidate columns per training step, and tracing changes nothing
    words = "the cat dog bird runs sleeps eats sits a big small red".split()
    lines = [[words[(3 * i + j) % len(words)] for j in range(2 + i % 4)] for i in range(12)]
    vocab = build_vocab(lines, top_k=20)
    sentences = encode_sentences(lines, vocab)
    hp = HyperParams(vocab_size=vocab.size, cell_size=6, embed_size=5,
                     latent_dim=4, bow_width=5, len_embed_size=3,
                     decoder_layers=2, max_len_index=12, softmax_samples=2)
    config = TrainConfig(batch_size=4, total_steps=5, anneal_horizon=5)
    plain = train(sentences, vocab, hp, config)

    draw = model.draw_negatives
    candidates = []

    def counted_draw(*args):
        ids, target_pos = draw(*args)
        candidates.append(ids.size)
        return ids, target_pos

    monkeypatch.setattr(model, "draw_negatives", counted_draw)
    tracer = tracing.Tracer()
    with tracer.installed(graph=True):
        traced = train(sentences, vocab, hp, config)
    names = [span[0] for span in tracer.spans]
    steps = config.total_steps
    assert len(candidates) == steps
    assert names.count("numerics.sampled_logits.fwd") == steps
    assert names.count("model.draw_negatives") == steps
    assert sum(candidates) < steps * hp.vocab_size   # proper subsets of V
    itemsize = traced.params["out.W"].data.itemsize
    assert tracer.counts["numerics.sampled_logits.gather_bytes"] == \
        hp.cell_size * sum(candidates) * itemsize
    for (name, a), (_, b) in zip(plain.params.items(), traced.params.items()):
        assert a.data.tobytes() == b.data.tobytes(), name
