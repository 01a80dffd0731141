"""Adam with bias correction, plus global-norm gradient clipping."""

from dataclasses import dataclass, field

import numpy as np

from .params import ParamStore

# values per block of the optimizer's walk: 512 KB of float64, so a block of
# gradient, moments, parameter and scratch stays in a 4 MB L2 cache
BLOCK = 1 << 16


class MissingGradientError(RuntimeError):
    pass


@dataclass
class AdamState:
    """The settings (``TrainConfig`` holds their defaults) and the first and
    second moment accumulators, keyed like the ParamStore."""

    learning_rate: float
    beta1: float
    beta2: float
    eps: float
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: ParamStore, learning_rate: float, beta1: float,
                   beta2: float, eps: float) -> "AdamState":
        state = cls(learning_rate=learning_rate, beta1=beta1, beta2=beta2, eps=eps)
        for name, t in params.items():
            state.m[name] = np.zeros_like(t.data)
            state.v[name] = np.zeros_like(t.data)
        return state


def _block_scratch(params: ParamStore) -> np.ndarray:
    """An uninitialized block of ``BLOCK`` values in the largest parameter's
    dtype, or of that parameter's size when it is smaller."""
    largest = max((t.data for _, t in params.items()), key=np.size, default=np.empty(0))
    return np.empty(min(BLOCK, largest.size), dtype=largest.dtype)


def adam_step(params: ParamStore, state: AdamState) -> None:
    """In-place update of every parameter from its gradient; zeroes gradients after.

    Every gradient is checked first (present, and of its parameter's shape
    and dtype), so a bad one raises before any state changes. Each
    parameter's flat (gradient, m, v, value) is then walked in blocks of
    ``BLOCK`` values through two scratch blocks (``_block_scratch``), so
    memory is read once per step (``ParamStore`` keeps values C-contiguous,
    so the flat views write through). Each block makes the textbook
    expression's operations in the textbook order, so the result is
    bit-identical to evaluating ``m = b1*m + (1-b1)*g``,
    ``v = b2*v + (1-b2)*(g*g)`` and ``p -= lr * m_hat / (sqrt(v_hat) + eps)``
    with fresh arrays.

    The walk zeroes each gradient block while it is in cache, so the
    caller's C-contiguous gradient arrays are all zeros afterwards. Each
    ``t.grad`` is then ``None``, and its zeroed array stays on the leaf:
    the next backward accumulates into it instead of allocating fresh
    zeros (``ParamStore.zero_grads`` drops it).
    """
    for name, t in params.items():
        if t.grad is None:
            raise MissingGradientError(f"parameter {name!r} has no gradient")
        if t.grad.shape != t.data.shape or t.grad.dtype != t.data.dtype:
            raise ValueError(f"gradient of {name!r} is {t.grad.dtype}{t.grad.shape}, "
                             f"parameter is {t.data.dtype}{t.data.shape}")
    state.step += 1
    t_step = state.step
    b1, b2 = state.beta1, state.beta2
    m_corr, v_corr = 1.0 - b1 ** t_step, 1.0 - b2 ** t_step
    scratch1, scratch2 = _block_scratch(params), _block_scratch(params)
    for name, t in params.items():
        g, p = t.grad.reshape(-1), t.data.reshape(-1)
        m, v = state.m[name].reshape(-1), state.v[name].reshape(-1)
        for lo in range(0, g.size, BLOCK):
            gb, pb = g[lo:lo + BLOCK], p[lo:lo + BLOCK]
            mb, vb = m[lo:lo + BLOCK], v[lo:lo + BLOCK]
            s1, s2 = scratch1[:gb.size], scratch2[:gb.size]
            np.multiply(mb, b1, out=mb)
            np.multiply(gb, 1.0 - b1, out=s1)
            np.add(mb, s1, out=mb)
            np.multiply(gb, gb, out=s1)
            np.multiply(s1, 1.0 - b2, out=s1)
            np.multiply(vb, b2, out=vb)
            np.add(vb, s1, out=vb)
            np.divide(mb, m_corr, out=s1)
            np.multiply(s1, state.learning_rate, out=s1)
            np.divide(vb, v_corr, out=s2)
            np.sqrt(s2, out=s2)
            np.add(s2, state.eps, out=s2)
            np.divide(s1, s2, out=s1)
            np.subtract(pb, s1, out=pb)
            gb.fill(0.0)
        t.keep_zeroed_grad()


def clip_grad_norm(params: ParamStore, max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``.

    Each gradient's sum of squares is one BLAS dot of its flat view with
    itself, so no squares are stored. How the BLAS splits the dot, and so
    the norm's last bits, is fixed for a fixed thread count; at the paper's
    gradient sizes the norm agrees with ``sqrt(sum((g * g).sum()))`` to
    about 1e-15 relative. Returns the pre-clip norm.
    """
    total = 0.0
    for _, t in params.items():
        if t.grad is not None:
            flat = t.grad.reshape(-1)
            total += float(np.dot(flat, flat))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        factor = max_norm / norm
        for _, t in params.items():
            if t.grad is not None:
                t.grad *= factor
    return norm
