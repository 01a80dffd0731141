"""The benchmark's tracer finds lenvae's functions by name; each must exist."""

import importlib
from pathlib import Path

import numpy as np
import pytest

from lenvae import model
from lenvae.inference import summarize
from lenvae.model import HyperParams, init_params
from lenvae.numerics import tensor
from lenvae.textpipe import build_vocab

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
