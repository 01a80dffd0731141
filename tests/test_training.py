"""Annealing, word dropout, the training loop and its determinism."""

import weakref

import numpy as np
import pytest

from lenvae import training
from lenvae.checkpoint import checkpoint_load
from lenvae.model import HyperParams, init_params, total_loss, word_dropout
from lenvae.numerics import optim
from lenvae.textpipe import (
    BOS_ID, PAD_ID, UNK_ID, build_vocab, default_toy_grammar, encode_batch,
    encode_sentences, generate_toy_corpus, make_batch, normalize,
)
from lenvae.training import (
    MetricsLog, TrainConfig, TrainingDivergedError, kl_anneal_weight, train,
)


# ---------------------------------------------------------------------------
# annealing
# ---------------------------------------------------------------------------

def test_linear_anneal_endpoints_and_midpoint():
    cfg = TrainConfig(total_steps=200, anneal_horizon=100)
    assert kl_anneal_weight(0, cfg) == 0.0
    assert kl_anneal_weight(50, cfg) == 0.5
    assert kl_anneal_weight(100, cfg) == 1.0
    assert kl_anneal_weight(10_000, cfg) == 1.0


@pytest.mark.parametrize("horizon", [1, 7, 1000])
def test_anneal_equals_the_linear_formula_bit_for_bit(horizon):
    cfg = TrainConfig(total_steps=2 * horizon, anneal_horizon=horizon)
    for step in range(2 * horizon + 1):
        expected = step / horizon if step < horizon else 1.0
        weight = kl_anneal_weight(step, cfg)
        assert type(weight) is float
        assert weight.hex() == expected.hex(), step


def test_anneal_rejects_negative_step_and_bad_config():
    cfg = TrainConfig(total_steps=10, anneal_horizon=5)
    with pytest.raises(ValueError):
        kl_anneal_weight(-1, cfg)
    with pytest.raises(ValueError):
        TrainConfig(total_steps=10, anneal_horizon=20)
    with pytest.raises(ValueError):
        TrainConfig(word_drop_p=1.5)
    # zero steps name total_steps, not the horizon that exceeds them
    with pytest.raises(ValueError, match="total_steps must be >= 1"):
        TrainConfig(total_steps=0)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        TrainConfig(seed=-1)


# ---------------------------------------------------------------------------
# word dropout
# ---------------------------------------------------------------------------

def _decoder_inputs():
    rows = np.array([[BOS_ID, 7, 8, 9, PAD_ID],
                     [BOS_ID, 9, 8, PAD_ID, PAD_ID]], dtype=np.intp)
    return rows


def test_word_dropout_identity_at_zero():
    ids = _decoder_inputs()
    out = word_dropout(ids, 0.0, np.random.default_rng(0))
    np.testing.assert_array_equal(out, ids)


def test_word_dropout_all_at_one_protects_bos_and_pad():
    ids = _decoder_inputs()
    out = word_dropout(ids, 1.0, np.random.default_rng(0))
    assert (out[:, 0] == BOS_ID).all()
    assert (out[ids == PAD_ID] == PAD_ID).all()
    content = ids[(ids != BOS_ID) & (ids != PAD_ID)]
    assert (out[(ids != BOS_ID) & (ids != PAD_ID)] == UNK_ID).all()
    assert content.size > 0


def test_word_dropout_rate_matches_probability():
    rng = np.random.default_rng(123)
    ids = np.full((1000, 100), 7, dtype=np.intp)
    out = word_dropout(ids, 0.2, rng)
    rate = float((out == UNK_ID).mean())
    assert abs(rate - 0.2) < 0.01


def test_word_dropout_leaves_input_array_untouched():
    ids = _decoder_inputs()
    original = ids.copy()
    word_dropout(ids, 0.7, np.random.default_rng(1))
    np.testing.assert_array_equal(ids, original)


# ---------------------------------------------------------------------------
# metrics log
# ---------------------------------------------------------------------------

def test_metrics_log_requires_increasing_steps():
    log = MetricsLog()
    log.append(0, 0.0, 0.1, 2.0, 1.0, 3.0, 6.0, True)
    log.append(1, 0.1, 0.1, 2.0, 1.0, 3.0, 4.0, False)
    with pytest.raises(ValueError):
        log.append(1, 0.2, 0.1, 2.0, 1.0, 3.0, 4.0, False)
    text = log.to_csv()
    assert text.splitlines()[0] == MetricsLog.HEADER
    assert len(text.splitlines()) == 3


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def _toy_setup(n_sentences=300, seed=0):
    lines = generate_toy_corpus(default_toy_grammar(), n_sentences, seed=seed)
    tokens = [normalize(line) for line in lines]
    vocab = build_vocab(tokens, top_k=100)
    sentences = encode_sentences(tokens, vocab)
    hp = HyperParams(vocab_size=vocab.size, cell_size=16, embed_size=16,
                     latent_dim=8, bow_width=16, len_embed_size=4,
                     decoder_layers=1, max_len_index=30, softmax_samples=16)
    return sentences, vocab, hp


def _eval_loss(sentences, vocab, hp, params, n=64):
    batch = make_batch(sentences[:n], vocab.size)
    eps = np.zeros((batch.ids.shape[0], hp.latent_dim))
    _, comps = total_loss(batch, params, hp, 1.0, "eval", eps=eps)
    return comps["total"]


def test_train_descends_on_toy_corpus():
    sentences, vocab, hp = _toy_setup()
    cfg = TrainConfig(batch_size=32, total_steps=200, anneal_horizon=100, seed=3)
    import lenvae.model as model_mod
    start_params = model_mod.init_params(hp, np.random.default_rng(cfg.seed))
    before = _eval_loss(sentences, vocab, hp, start_params)
    result = train(sentences, vocab, hp, cfg)
    after = _eval_loss(sentences, vocab, hp, result.params)
    assert after < before


def test_train_is_bit_deterministic():
    sentences, vocab, hp = _toy_setup(120)
    cfg = TrainConfig(batch_size=32, total_steps=25, anneal_horizon=10, seed=11)
    a = train(sentences, vocab, hp, cfg)
    b = train(sentences, vocab, hp, cfg)
    assert a.metrics.to_csv() == b.metrics.to_csv()
    for name, t in a.params.items():
        assert t.data.dtype == np.float32, name   # training's compute type
        assert t.data.tobytes() == b.params[name].data.tobytes(), name


def _textbook_train(sentences, vocab, hp, config):
    """train() as a plain loop over fresh gradient arrays, with the clip norm
    from a dot of each gradient, flattened in memory order, with itself
    (the order ``clip_grad_norm`` walks) and Adam as the textbook
    formula; returns the parameters and each step's pre-clip gradient norm."""
    rng = np.random.default_rng(config.seed)
    params = init_params(hp, rng)
    m = {name: np.zeros_like(t.data) for name, t in params.items()}
    v = {name: np.zeros_like(t.data) for name, t in params.items()}
    b1, b2 = optim.ADAM_BETA1, optim.ADAM_BETA2
    norms, batches = [], []
    for step in range(config.total_steps):
        if not batches:
            batches = encode_batch(sentences, vocab, config.batch_size, rng)
        batch = batches.pop(0)
        loss, _ = total_loss(batch, params, hp, kl_anneal_weight(step, config), "train",
                             rng, dropout_keep=config.dropout_keep,
                             word_drop_p=config.word_drop_p)
        params.zero_grads()
        loss.backward()
        grads = {name: t.grad for name, t in params.items()}
        norm = float(np.sqrt(sum(float(np.dot(g.ravel(), g.ravel())) for g in grads.values())))
        if norm > config.grad_clip:
            grads = {name: g * (config.grad_clip / norm) for name, g in grads.items()}
        norms.append(norm)
        for name, t in params.items():
            g = grads[name]
            m[name] = b1 * m[name] + (1.0 - b1) * g
            v[name] = b2 * v[name] + (1.0 - b2) * (g * g)
            m_hat = m[name] / (1.0 - b1 ** (step + 1))
            v_hat = v[name] / (1.0 - b2 ** (step + 1))
            t.data[...] = t.data - config.learning_rate * m_hat / (np.sqrt(v_hat) + optim.ADAM_EPS)
    return params, norms


def test_train_equals_textbook_clip_and_adam_on_fresh_arrays():
    sentences, vocab, _ = _toy_setup(200, seed=4)
    hp = HyperParams(vocab_size=vocab.size)  # the desk shape
    cfg = TrainConfig(batch_size=32, total_steps=8, anneal_horizon=4, seed=13,
                      grad_clip=1.75)  # clips some steps, not all
    result = train(sentences, vocab, hp, cfg)
    params, norms = _textbook_train(sentences, vocab, hp, cfg)
    for name, t in result.params.items():
        assert t.data.tobytes() == params[name].data.tobytes(), name
        assert t.grad is None and t._zeroed_grad is None, name
    assert [rec[6] for rec in result.metrics.records] == norms
    clipped = [rec[7] for rec in result.metrics.records]
    assert clipped == [norm > cfg.grad_clip for norm in norms]
    assert any(clipped) and not all(clipped)


def test_train_frees_each_step_graph_before_the_next_forward(monkeypatch):
    sentences, vocab, hp = _toy_setup(120)
    cfg = TrainConfig(batch_size=32, total_steps=4, anneal_horizon=2, seed=11)
    losses, alive_at_entry = [], []

    def watched(*args, **kwargs):
        alive_at_entry.append([ref() is not None for ref in losses])
        loss, comps = total_loss(*args, **kwargs)
        losses.append(weakref.ref(loss))
        return loss, comps

    monkeypatch.setattr(training, "total_loss", watched)
    watched_params = train(sentences, vocab, hp, cfg).params
    assert alive_at_entry == [[], [False], [False, False], [False, False, False]]

    monkeypatch.undo()
    plain = train(sentences, vocab, hp, cfg)
    for name, t in plain.params.items():
        assert t.data.tobytes() == watched_params[name].data.tobytes(), name


def test_every_value_gradient_and_moment_is_c_contiguous(tmp_path, monkeypatch):
    sentences, vocab, _ = _toy_setup(120)
    hp = HyperParams(vocab_size=vocab.size)  # the desk shape
    cfg = TrainConfig(batch_size=32, total_steps=1, anneal_horizon=1, seed=11)
    arrays = {"init_params": [t.data for _, t in init_params(hp, np.random.default_rng(0)).items()]}
    adam_step = training.adam_step

    def watched(params, state, grad_scale):
        arrays["gradients"] = [t.grad for _, t in params.items()]
        arrays["moments"] = [*state.m.values(), *state.v.values()]
        adam_step(params, state, grad_scale)

    monkeypatch.setattr(training, "adam_step", watched)
    result = train(sentences, vocab, hp, cfg, out_dir=tmp_path)
    loaded, *_ = checkpoint_load(result.checkpoint_paths[-1])
    arrays["checkpoint_load"] = [t.data for _, t in loaded.items()]
    n_params = len(result.params)
    assert {kind: len(a) for kind, a in arrays.items()} == \
        {"init_params": n_params, "gradients": n_params, "moments": 2 * n_params,
         "checkpoint_load": n_params}
    for kind, found in arrays.items():
        assert all(a.flags.c_contiguous for a in found), kind


def test_train_kl_value_rises_after_annealing_engages():
    # qualitative curve shape: near zero while the weight is tiny, then a
    # clear rise once annealing engages
    sentences, vocab, hp = _toy_setup(400, seed=5)
    cfg = TrainConfig(batch_size=32, total_steps=300, anneal_horizon=150, seed=7)
    result = train(sentences, vocab, hp, cfg)
    kl_values = [rec[2] for rec in result.metrics.records]
    early = float(np.mean(kl_values[:10]))
    peak = float(np.max(kl_values[10:]))
    assert early < 0.01
    assert peak > 10 * early and peak > 0.1


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_train_aborts_on_nonfinite_with_component_name():
    sentences, vocab, hp = _toy_setup(60)
    cfg = TrainConfig(batch_size=16, total_steps=5, anneal_horizon=2, seed=0,
                      learning_rate=1e30)  # guaranteed blow-up
    with pytest.raises(TrainingDivergedError, match="component"):
        train(sentences, vocab, hp, cfg)


@pytest.mark.filterwarnings("ignore:overflow encountered in dot")
def test_train_stops_on_a_nonfinite_gradient_norm_before_the_update(tmp_path, monkeypatch):
    # a float32 gradient entry of 1e20 squares to inf: the norm is inf, the
    # clip factor 0, and Adam would move on momentum alone
    sentences, vocab, hp = _toy_setup(120)
    cfg = TrainConfig(batch_size=32, total_steps=6, anneal_horizon=2, seed=11,
                      checkpoint_interval=1)
    clip_grad_norm = training.clip_grad_norm
    entering = []

    def injecting(params, max_norm):
        entering.append((params, {name: t.data.copy() for name, t in params.items()}))
        if len(entering) == 3:
            params["out.W"].grad[0, 0] = 1e20
        return clip_grad_norm(params, max_norm)

    monkeypatch.setattr(training, "clip_grad_norm", injecting)
    with pytest.raises(TrainingDivergedError, match="gradient norm at step 2: inf"):
        train(sentences, vocab, hp, cfg, out_dir=tmp_path)
    assert len(entering) == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt_000001.lvae", "ckpt_000002.lvae"]
    loaded, *_ = checkpoint_load(tmp_path / "ckpt_000002.lvae")
    params, before = entering[-1]
    for name, t in params.items():
        assert t.data.tobytes() == before[name].tobytes(), name
        assert loaded[name].data.tobytes() == before[name].tobytes(), name


def test_train_validates_vocab_size_and_length_table():
    sentences, vocab, hp = _toy_setup(50)
    bad_hp = HyperParams(vocab_size=vocab.size + 1, cell_size=8, embed_size=8,
                         latent_dim=4, bow_width=8, len_embed_size=4,
                         decoder_layers=1, max_len_index=30, softmax_samples=8)
    with pytest.raises(ValueError, match="vocab"):
        train(sentences, vocab, bad_hp, TrainConfig(total_steps=2, anneal_horizon=1))
    short_table = HyperParams(vocab_size=vocab.size, cell_size=8, embed_size=8,
                              latent_dim=4, bow_width=8, len_embed_size=4,
                              decoder_layers=1, max_len_index=2, softmax_samples=8)
    with pytest.raises(ValueError, match="max_len_index"):
        train(sentences, vocab, short_table, TrainConfig(total_steps=2, anneal_horizon=1))
