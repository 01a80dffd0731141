"""Linear-probe fitting, R-squared and the two-model experiment plumbing."""

import numpy as np
import pytest

from lenvae.model import HyperParams, init_params, posterior_means
from lenvae.probe import fit_linear_regression, probe_experiment, r_squared
from lenvae.textpipe import build_vocab, encode_sentences


def test_fit_recovers_exact_linear_relation():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((40, 3))
    y = 2.5 * x[:, 1] + 0.7
    fit = fit_linear_regression(x, y)
    np.testing.assert_allclose(fit.weights, [0.0, 2.5, 0.0], atol=1e-8)
    assert fit.intercept == pytest.approx(0.7, abs=1e-8)
    assert float(((fit.predict(x) - y) ** 2).sum()) < 1e-8


def test_fit_constant_targets_gives_zero_weights():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((30, 4))
    y = np.full(30, 3.25)
    fit = fit_linear_regression(x, y)
    np.testing.assert_allclose(fit.weights, np.zeros(4), atol=1e-8)
    assert fit.intercept == pytest.approx(3.25, abs=1e-10)


def test_fit_matches_independent_least_squares():
    # oracle: numpy's SVD-based lstsq on the same design matrix
    rng = np.random.default_rng(2)
    x = rng.standard_normal((60, 5))
    y = rng.standard_normal(60)
    fit = fit_linear_regression(x, y)
    design = np.concatenate([x, np.ones((60, 1))], axis=1)
    expected, *_ = np.linalg.lstsq(design, y, rcond=None)
    np.testing.assert_allclose(fit.weights, expected[:-1], rtol=1e-8)
    assert fit.intercept == pytest.approx(expected[-1], rel=1e-8)


def test_fit_rank_deficient_design_predicts_exactly():
    rng = np.random.default_rng(3)
    col = rng.standard_normal(20)
    x = np.stack([col, col], axis=1)  # perfectly collinear
    y = col * 2.0
    fit = fit_linear_regression(x, y)
    assert np.isfinite(fit.weights).all()
    np.testing.assert_allclose(fit.predict(x), y, rtol=1e-10, atol=1e-12)


def test_fit_requires_enough_examples():
    with pytest.raises(ValueError):
        fit_linear_regression(np.zeros((3, 3)), np.zeros(3))


def test_fit_weights_invariant_to_target_shift():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((50, 3))
    y = rng.standard_normal(50)
    base = fit_linear_regression(x, y)
    shifted = fit_linear_regression(x, y + 10.0)
    np.testing.assert_allclose(base.weights, shifted.weights, atol=1e-8)
    assert shifted.intercept == pytest.approx(base.intercept + 10.0, abs=1e-8)


def test_r_squared_perfect_and_mean_predictor():
    y = np.array([1.0, 2.0, 3.0, 4.0])
    assert r_squared(y, y) == pytest.approx(1.0)
    assert r_squared(np.full(4, y.mean()), y) == pytest.approx(0.0)


def test_r_squared_constant_targets_error():
    with pytest.raises(ValueError):
        r_squared(np.array([1.0, 2.0]), np.array([3.0, 3.0]))
    with pytest.raises(ValueError):
        r_squared(np.array([1.0]), np.array([2.0]))


def test_r_squared_length_mismatch_error():
    with pytest.raises(ValueError, match="equal length"):
        r_squared(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0]))


def test_ols_training_r2_nonnegative():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((80, 6))
    y = rng.standard_normal(80)
    fit = fit_linear_regression(x, y)
    assert r_squared(fit.predict(x), y) >= 0.0


def _tiny_pair():
    vocab = build_vocab([["a", "b", "c", "d"]], top_k=10)
    base = dict(vocab_size=vocab.size, cell_size=6, embed_size=5, latent_dim=4,
                bow_width=5, len_embed_size=3, decoder_layers=1,
                max_len_index=12, softmax_samples=4)
    hp_with = HyperParams(**base)
    hp_without = HyperParams(**base, lenemb=False)
    params_with = init_params(hp_with, np.random.default_rng(0))
    params_without = init_params(hp_without, np.random.default_rng(1))
    token_lines = [["a", "b"], ["a", "b", "c"], ["b", "c", "d", "a"],
                   ["d"], ["c", "a"], ["a", "d", "b"], ["b"], ["c", "d", "a", "b"],
                   ["a", "c", "d"], ["d", "b"], ["b", "a", "c", "d"], ["c"]] * 3
    sentences = encode_sentences(token_lines, vocab)
    return params_with, hp_with, params_without, hp_without, sentences


def test_probe_experiment_deterministic_and_in_range():
    params_with, hp_with, params_without, hp_without, sentences = _tiny_pair()
    a = probe_experiment(params_with, hp_with, params_without, hp_without, sentences)
    b = probe_experiment(params_with, hp_with, params_without, hp_without, sentences)
    assert (a.r2_with, a.r2_without) == (b.r2_with, b.r2_without)
    for value in (a.r2_with, a.r2_without):
        assert value <= 1.0 and np.isfinite(value)
    rendered = a.render()
    assert "with length input" in rendered and "without length input" in rendered


def test_posterior_means_shape_consistency():
    params_with, hp_with, *_ , sentences = _tiny_pair()
    latents = posterior_means(sentences, params_with, hp_with, batch_size=7)
    assert latents.shape == (len(sentences), hp_with.latent_dim)


def test_posterior_means_of_no_sentences_is_empty():
    params_with, hp_with, *_ = _tiny_pair()
    assert posterior_means([], params_with, hp_with).shape == (0, hp_with.latent_dim)


def test_posterior_means_independent_of_batch_size():
    params_with, hp_with, *_ , sentences = _tiny_pair()
    one, seven, whole = (posterior_means(sentences, params_with, hp_with, batch_size=b)
                         for b in (1, 7, 256))
    # rows differ only by the padded width and the GEMM row count they share
    atol = 1e-12 * np.abs(whole).max()
    np.testing.assert_allclose(one, whole, rtol=1e-12, atol=atol)
    np.testing.assert_allclose(seven, whole, rtol=1e-12, atol=atol)
