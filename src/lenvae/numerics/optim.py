"""Adam with bias correction, plus global-norm gradient clipping."""

from dataclasses import dataclass, field

import numpy as np

from .params import ParamStore


class MissingGradientError(RuntimeError):
    pass


@dataclass
class AdamState:
    """First/second moment accumulators keyed like the ParamStore, plus two
    flat scratch buffers as large as the largest parameter."""

    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    scratch: tuple = field(default=(), repr=False)

    @classmethod
    def for_params(cls, params: ParamStore, learning_rate: float = 0.001,
                   beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> "AdamState":
        state = cls(learning_rate=learning_rate, beta1=beta1, beta2=beta2, eps=eps)
        for name, t in params.items():
            state.m[name] = np.zeros_like(t.data)
            state.v[name] = np.zeros_like(t.data)
        largest = max((t.data for _, t in params.items()), key=np.size, default=np.empty(0))
        state.scratch = tuple(np.empty(largest.size, dtype=largest.dtype) for _ in range(2))
        return state


def _view(buffer: np.ndarray, like: np.ndarray) -> np.ndarray:
    return buffer[:like.size].reshape(like.shape)


def adam_step(params: ParamStore, state: AdamState) -> None:
    """In-place update of every parameter from its gradient; zeroes gradients after.

    The moments and parameters are updated in place through the state's
    scratch buffers, with the textbook expression's operations in the
    textbook order, so the result is bit-identical to evaluating
    ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*(g*g)`` and
    ``p -= lr * m_hat / (sqrt(v_hat) + eps)`` with fresh arrays.
    """
    for name, t in params.items():
        if t.grad is None:
            raise MissingGradientError(f"parameter {name!r} has no gradient")
    state.step += 1
    t_step = state.step
    b1, b2 = state.beta1, state.beta2
    m_corr, v_corr = 1.0 - b1 ** t_step, 1.0 - b2 ** t_step
    for name, t in params.items():
        g, m, v = t.grad, state.m[name], state.v[name]
        s1, s2 = _view(state.scratch[0], g), _view(state.scratch[1], g)
        np.multiply(m, b1, out=m)
        np.multiply(g, 1.0 - b1, out=s1)
        np.add(m, s1, out=m)
        np.multiply(g, g, out=s1)
        np.multiply(s1, 1.0 - b2, out=s1)
        np.multiply(v, b2, out=v)
        np.add(v, s1, out=v)
        np.divide(m, m_corr, out=s1)
        np.multiply(s1, state.learning_rate, out=s1)
        np.divide(v, v_corr, out=s2)
        np.sqrt(s2, out=s2)
        np.add(s2, state.eps, out=s2)
        np.divide(s1, s2, out=s1)
        np.subtract(t.data, s1, out=t.data)
    params.zero_grads()


def clip_grad_norm(params: ParamStore, max_norm: float, scratch: np.ndarray) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``.

    Each gradient is squared into ``scratch``, a flat buffer at least as large
    as the largest gradient (``AdamState.scratch[0]``). Returns the pre-clip
    norm.
    """
    total = 0.0
    for _, t in params.items():
        if t.grad is not None:
            sq = _view(scratch, t.grad)
            np.multiply(t.grad, t.grad, out=sq)
            total += float(sq.sum())
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        factor = max_norm / norm
        for _, t in params.items():
            if t.grad is not None:
                t.grad *= factor
    return norm
