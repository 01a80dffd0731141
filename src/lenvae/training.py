"""Training loop: KL-weight annealing, metrics log, checkpoints."""

import os
from dataclasses import dataclass, field

import numpy as np

from . import checkpoint as ckpt
from .model import HyperParams, init_params, total_loss
from .numerics import AdamState, ParamStore, adam_step, clip_grad_norm
from .textpipe import Vocabulary, encode_batch


class TrainingDivergedError(RuntimeError):
    """Raised when a loss component or the gradient norm stops being finite."""


@dataclass
class TrainConfig:
    """One training run's settings. The KL weight follows one linear schedule
    (``kl_anneal_weight``); Adam's beta1, beta2 and eps are the constants
    ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS`` of ``numerics/optim.py``."""

    batch_size: int = 64
    total_steps: int = 2000
    anneal_horizon: int = 1000
    word_drop_p: float = 0.20
    dropout_keep: float = 0.87
    learning_rate: float = 0.002
    grad_clip: float = 5.0
    seed: int = 0
    checkpoint_interval: int = 1000

    def __post_init__(self):
        for name in ("batch_size", "total_steps", "checkpoint_interval", "anneal_horizon"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("learning_rate", "grad_clip"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0")
        if not 0.0 <= self.word_drop_p <= 1.0:
            raise ValueError("word_drop_p must be in [0, 1]")
        if not 0.0 < self.dropout_keep <= 1.0:  # the kept units are scaled by 1 / keep
            raise ValueError("dropout_keep must be in (0, 1]")
        if self.anneal_horizon > self.total_steps:
            raise ValueError("anneal_horizon must be <= total_steps")
        if self.seed < 0:  # numpy's generators take no negative seed
            raise ValueError("seed must be >= 0")


def kl_anneal_weight(step: int, config: TrainConfig) -> float:
    """The KL weight at ``step``: rises linearly from 0 at step 0 to 1 at
    ``config.anneal_horizon`` and stays 1 from there on."""
    if step < 0:
        raise ValueError("step must be >= 0")
    return min(step / config.anneal_horizon, 1.0)


@dataclass
class MetricsLog:
    """Per-step loss components, the pre-clip gradient norm and whether it
    was clipped; rendered as CSV with a header line."""

    HEADER = "step,kl_weight,kl_value,reconstruction,bow,total,grad_norm,clipped"
    records: list = field(default_factory=list)

    def append(self, step, kl_weight, kl_value, reconstruction, bow, total,
               grad_norm, clipped):
        if self.records and step <= self.records[-1][0]:
            raise ValueError("metrics steps must be strictly increasing")
        self.records.append((step, kl_weight, kl_value, reconstruction, bow, total,
                             grad_norm, clipped))

    def to_csv(self) -> str:
        lines = [self.HEADER]
        for step, kl_w, kl_v, rec, bow, tot, norm, clipped in self.records:
            lines.append(f"{step},{kl_w!r},{kl_v!r},{rec!r},{bow!r},{tot!r},"
                         f"{norm!r},{int(clipped)}")
        return "\n".join(lines) + "\n"

    def save(self, path):
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.to_csv())


@dataclass
class TrainResult:
    params: ParamStore
    metrics: MetricsLog
    checkpoint_paths: list


def train(sentences, vocab: Vocabulary, hp: HyperParams, config: TrainConfig,
          out_dir=None) -> TrainResult:
    """Train on id lists (``encode_sentences``); deterministic given
    (sentences, config, seed).

    With ``hp.lenemb`` the length countdown starts at each example's true
    word count; without it the decoder sees no length input. Writes interval
    checkpoints, a final checkpoint and the metrics CSV into ``out_dir`` when
    given.
    """
    if hp.vocab_size != vocab.size:
        raise ValueError(f"hp.vocab_size {hp.vocab_size} != vocabulary size {vocab.size}")
    if not sentences:
        raise ValueError("no sentences to train on")
    max_words = max(len(s) for s in sentences)
    if hp.lenemb and hp.max_len_index < max_words:
        raise ValueError(
            f"max_len_index {hp.max_len_index} < longest sentence {max_words}")

    rng = np.random.default_rng(config.seed)
    params = init_params(hp, rng)
    adam = AdamState.for_params(params, config.learning_rate)
    metrics = MetricsLog()
    checkpoint_paths = []
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)

    step = 0
    batches = []
    while step < config.total_steps:
        if not batches:
            batches = encode_batch(sentences, vocab, config.batch_size, rng)
        batch = batches.pop(0)

        kl_w = kl_anneal_weight(step, config)
        loss, comps = total_loss(batch, params, hp, kl_w, "train", rng,
                                 dropout_keep=config.dropout_keep,
                                 word_drop_p=config.word_drop_p)
        for name, value in comps.items():
            if not np.isfinite(value):
                raise TrainingDivergedError(
                    f"non-finite {name} component at step {step}: {value}")
        loss.backward()
        del loss  # free this step's graph before the next one is built
        grad_norm, clip_factor = clip_grad_norm(params, config.grad_clip)
        if not np.isfinite(grad_norm):  # a clip factor of 0 would hide it
            raise TrainingDivergedError(f"non-finite gradient norm at step {step}: {grad_norm}")
        adam_step(params, adam, clip_factor)

        metrics.append(step, kl_w, comps["kl"], comps["reconstruction"],
                       comps["bow"], comps["total"], grad_norm,
                       grad_norm > config.grad_clip)
        step += 1
        if out_dir is not None and step % config.checkpoint_interval == 0 \
                and step < config.total_steps:
            path = os.path.join(out_dir, f"ckpt_{step:06d}.lvae")
            ckpt.checkpoint_save(path, params, hp, vocab, step)
            checkpoint_paths.append(path)

    if out_dir is not None:
        path = os.path.join(out_dir, "final.lvae")
        ckpt.checkpoint_save(path, params, hp, vocab, step)
        checkpoint_paths.append(path)
        metrics.save(os.path.join(out_dir, "metrics.csv"))
    return TrainResult(params=params, metrics=metrics, checkpoint_paths=checkpoint_paths)
