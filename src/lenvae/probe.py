"""Linear probe: how much sentence-length information the latent carries.

Fits ordinary least squares from posterior means to word counts and compares
held-out R-squared between a model trained with the length countdown input
and one trained without it. The model that never saw an explicit length
signal has to store length in its latent to reconstruct, so its R-squared
should come out higher. Both models are scored on one fixed train/test
split (``SPLIT_SEED``, ``TEST_FRACTION``), so a probe run does not depend on
any run's seed.

The R-squared reported for large-corpus runs is 0.41 (DUC-2004) and 0.54
(Gigaword) with the length input, 0.59 and 0.72 without it. The ordering
(without > with) is what reproduces at desk scale, not the values;
claims/run.py gates that ordering and records it in BENCH_claims.json.
"""

from dataclasses import dataclass

import numpy as np

from .model import HyperParams, posterior_means
from .numerics import ParamStore

# share of the sentences held out to score the fit, and the seed of the
# one fixed split that both models are scored on
TEST_FRACTION = 0.2
SPLIT_SEED = 0


@dataclass
class LinearFit:
    weights: np.ndarray
    intercept: float

    def predict(self, x: np.ndarray) -> np.ndarray:
        return x @ self.weights + self.intercept


def fit_linear_regression(x: np.ndarray, y: np.ndarray) -> LinearFit:
    """Least squares with intercept; a rank-deficient design gets the
    minimum-norm solution."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, dim = x.shape
    if n < dim + 1:
        raise ValueError(f"need at least {dim + 1} examples for {dim} dimensions, got {n}")
    design = np.concatenate([x, np.ones((n, 1))], axis=1)
    solution = np.linalg.lstsq(design, y, rcond=None)[0]
    return LinearFit(weights=solution[:-1], intercept=float(solution[-1]))


def r_squared(predictions: np.ndarray, targets: np.ndarray) -> float:
    """1 - SS_residual / SS_total; undefined (error) for constant targets."""
    predictions = np.asarray(predictions, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if predictions.shape != targets.shape:
        raise ValueError("predictions and targets must have equal length")
    if targets.size < 2:
        raise ValueError("need at least 2 examples")
    ss_total = float(((targets - targets.mean()) ** 2).sum())
    if ss_total == 0.0:
        raise ValueError("R-squared is undefined for constant targets")
    ss_residual = float(((targets - predictions) ** 2).sum())
    return 1.0 - ss_residual / ss_total


@dataclass
class ProbeResult:
    r2_with: float
    r2_without: float

    def render(self) -> str:
        lines = ["{:<24} {:>8}".format("R^2 (length probe)", "test"),
                 "{:<24} {:>8.2f}".format("with length input", self.r2_with),
                 "{:<24} {:>8.2f}".format("without length input", self.r2_without)]
        return "\n".join(lines) + "\n"


def probe_experiment(params_with: ParamStore, hp_with: HyperParams,
                     params_without: ParamStore, hp_without: HyperParams,
                     sentences) -> ProbeResult:
    """Fit length regressions on both models' latents over the same split
    of ``sentences`` (id lists) and score each on the held-out part."""
    lengths = np.array([len(s) for s in sentences], dtype=np.float64)
    order = np.random.default_rng(SPLIT_SEED).permutation(len(sentences))
    n_test = max(1, int(round(TEST_FRACTION * len(sentences))))
    test_idx, train_idx = order[:n_test], order[n_test:]

    r2 = []
    for params, hp in ((params_with, hp_with), (params_without, hp_without)):
        latents = posterior_means(sentences, params, hp)
        fit = fit_linear_regression(latents[train_idx], lengths[train_idx])
        r2.append(r_squared(fit.predict(latents[test_idx]), lengths[test_idx]))
    return ProbeResult(r2_with=r2[0], r2_without=r2[1])
