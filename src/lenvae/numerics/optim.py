"""Adam with bias correction, plus global-norm gradient clipping."""

from dataclasses import dataclass, field

import numpy as np

from .params import ParamStore
from .tensor import BLOCK, SlicedGrad

# Adam's published constants (Kingma & Ba 2015, arXiv:1412.6980)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class MissingGradientError(RuntimeError):
    pass


@dataclass
class AdamState:
    """The learning rate, the step count and the first and second moment
    accumulators, keyed like the ParamStore. beta1, beta2 and eps are the
    module constants ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS``."""

    learning_rate: float
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: ParamStore, learning_rate: float) -> "AdamState":
        state = cls(learning_rate=learning_rate)
        for name, t in params.items():
            state.m[name] = np.zeros_like(t.data)
            state.v[name] = np.zeros_like(t.data)
        return state


def _adam_walk(g, m, v, p, m_corr: float, v_corr: float,
               learning_rate: float, grad_scale: float) -> None:
    """The Adam update of one parameter's value ``p`` and moments ``m`` and
    ``v``, in place, walked through their flat views in slices of ``BLOCK``
    values with two scratch blocks of ``p``'s dtype; scales each gradient
    block by ``grad_scale`` first (unless it is 1). A None ``g`` is a zero
    gradient: the moments become ``b1*m + 0.0`` and ``b2*v + 0.0``, as a
    gradient of zeros would make them, sign of zero included."""
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    scratch1, scratch2 = np.empty((2, min(p.size, BLOCK)), p.dtype)
    # the slices row_blocks gives a flat view, cut here: a row_blocks call
    # per array took about a sixth of a desk-shaped step's walk (22 small
    # parameters)
    flats = [None if a is None else a.reshape(-1) for a in (g, m, v, p)]
    for lo in range(0, p.size, BLOCK):
        gb, mb, vb, pb = [None if f is None else f[lo:lo + BLOCK] for f in flats]
        s1, s2 = scratch1[:mb.size], scratch2[:mb.size]
        if gb is None:
            np.multiply(mb, b1, out=mb)
            np.add(mb, 0.0, out=mb)
            np.multiply(vb, b2, out=vb)
            np.add(vb, 0.0, out=vb)
        else:
            if grad_scale != 1.0:
                np.multiply(gb, grad_scale, out=gb)
            np.multiply(mb, b1, out=mb)
            np.multiply(gb, 1.0 - b1, out=s1)
            np.add(mb, s1, out=mb)
            np.multiply(gb, gb, out=s1)
            np.multiply(s1, 1.0 - b2, out=s1)
            np.multiply(vb, b2, out=vb)
            np.add(vb, s1, out=vb)
        np.divide(mb, m_corr, out=s1)
        np.multiply(s1, learning_rate, out=s1)
        np.divide(vb, v_corr, out=s2)
        np.sqrt(s2, out=s2)
        np.add(s2, ADAM_EPS, out=s2)
        np.divide(s1, s2, out=s1)
        np.subtract(pb, s1, out=pb)


def adam_step(params: ParamStore, state: AdamState, grad_scale: float = 1.0) -> None:
    """In-place update of every parameter from its gradient times
    ``grad_scale``; drops every gradient after.

    Every gradient is checked first (present, and of its parameter's shape
    and dtype), so a bad one raises before any state changes. Then the
    parameters are walked one at a time. A dense gradient that is not
    C-contiguous (a caller's transposed or strided array) is walked through
    a copy in C order, so that array is left as it was; a C-contiguous one
    is scaled in place. A parameter's (gradient, m, v, value) are walked
    through flat views (``reshape(-1)``; ``ParamStore`` keeps each value
    C-contiguous, so the views write through) in blocks of ``BLOCK``
    values, so memory is read once per step, with scratch in the
    parameter's own dtype. Each block makes the textbook expression's
    operations in the textbook order, so the result is bit-identical to
    evaluating ``g = g * grad_scale``, ``m = b1*m + (1-b1)*g``,
    ``v = b2*v + (1-b2)*(g*g)`` and
    ``p -= lr * m_hat / (sqrt(v_hat) + eps)`` with fresh arrays. The scale
    is how a clip (``clip_grad_norm``'s factor) reaches the gradients: each
    block is multiplied while it is in cache, not in a pass of its own.
    Every constant is a python float, so a float32 parameter is updated in
    float32 (numpy's scalar promotion).

    A ``SlicedGrad`` (a gathered or sampled table's gradient), also one
    whose index is every row or column, is walked in three parts before the
    next parameter. Its touched entries' m, v and value are gathered into
    copies, which take the walk above with the compact block as the
    gradient. The whole table takes the zero-gradient walk
    (``m = b1*m + 0.0``, ``v = b2*v + 0.0``, the same value update), and
    the copies are then written back over the touched entries. So every
    entry is updated bit for bit as a dense gradient, zero outside the
    index, would update it.

    The walk runs on the calling thread. Afterwards every ``t.grad`` is
    ``None``, so a gradient lives for one step and the next backward makes
    new ones.
    """
    for name, t in params.items():
        if t.grad is None:
            raise MissingGradientError(f"parameter {name!r} has no gradient")
        if t.grad.shape != t.data.shape or t.grad.dtype != t.data.dtype:
            raise ValueError(f"gradient of {name!r} is {t.grad.dtype}{t.grad.shape}, "
                             f"parameter is {t.data.dtype}{t.data.shape}")
    state.step += 1
    walk = (1.0 - ADAM_BETA1 ** state.step, 1.0 - ADAM_BETA2 ** state.step,
            state.learning_rate, float(grad_scale))
    for name, t in params.items():
        m, v = state.m[name], state.v[name]
        if isinstance(t.grad, SlicedGrad):
            flat = t.grad.flat_index()
            copies = [a.reshape(-1)[flat] for a in (m, v, t.data)]
            _adam_walk(t.grad.values, *copies, *walk)
            _adam_walk(None, m, v, t.data, *walk)
            for a, c in zip((m, v, t.data), copies):
                a.reshape(-1)[flat] = c
        else:
            _adam_walk(np.ascontiguousarray(t.grad), m, v, t.data, *walk)
    params.zero_grads()


def clip_grad_norm(params: ParamStore, max_norm: float) -> tuple[float, float]:
    """The global L2 norm of the gradients, and the factor that scales it
    to at most ``max_norm``: ``max_norm / norm`` when the norm exceeds it,
    else 1. The gradients are left as they are; ``adam_step(params, state,
    factor)`` applies the factor inside its walk.

    Each gradient's sum of squares is one BLAS dot of its flat view
    (``reshape(-1)``) with itself, in the gradient's dtype, so no squares
    are stored; a ``SlicedGrad``'s dot runs over its compact block, the
    touched rows or columns in index order, and skips the zeros a dense
    gradient would hold. The dot's summation order, and so the norm's last
    bits, depends on how the BLAS splits the dot, which is fixed for a
    fixed thread count; at the paper's gradient sizes a float64 norm agrees
    with ``sqrt(sum((g * g).sum()))`` to about 1e-15 relative. Returns
    ``(pre-clip norm, factor)``.
    """
    total = 0.0
    for _, t in params.items():
        grad = t.grad.values if isinstance(t.grad, SlicedGrad) else t.grad
        if grad is not None:
            flat = grad.reshape(-1)
            total += float(np.dot(flat, flat))
    norm = float(np.sqrt(total))
    return norm, max_norm / norm if norm > max_norm else 1.0
