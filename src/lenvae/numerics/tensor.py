"""Reverse-mode differentiable arrays for the layer set this model needs.

A ``Tensor`` wraps a numpy array and remembers which operation produced it.
``Tensor.backward`` walks the recorded operations in reverse and accumulates
gradients into every leaf that contributed. The op set is deliberately small:
the affine maps, gate nonlinearities, row gathers and cross-entropy reductions
that the encoder, decoder and losses are built from. Every leaf accumulates
its gradient; constants (masks, noise, index arrays) enter through
``mul_const`` or plain numpy arguments and are never leaves. A zero start
(``zeros``) is an ordinary leaf whose gradient is dropped with the graph.

float32 is the compute type of training and decoding; float64 is the
reference that the gradient check and the exactness tests ask for. Every op
computes in the dtype of the tensors it differentiates: a constant array
(mask, noise, step weights, target weights, counts) is cast to it, and a
python scalar does not widen an array (numpy's scalar promotion), so a
float32 store gives float32 values, gradients and loss throughout.
"""

import numpy as np

# values per block of a walk over an array: 512 KB of float64 (256 KB of
# float32), so a block of every array a walk touches stays in a 4 MB L2 cache
BLOCK = 1 << 16

__all__ = [
    "Tensor", "zeros",
    "matmul", "add", "sub", "mul", "neg", "scale", "add_scalar",
    "mul_const", "sigmoid", "tanh_", "exp_",
    "concat_cols", "slice_cols", "gather_rows",
    "sum_all", "sum_cols", "weighted_step_sum", "affine",
    "cross_entropy_rows", "weighted_cross_entropy_rows", "sampled_logits",
    "log_softmax_rows",
]


class Tensor:
    """Value plus gradient slot plus a record of where the value came from."""

    __slots__ = ("data", "grad", "_parents", "_backward", "_zeroed_grad", "__weakref__")

    def __init__(self, data, _parents=(), _backward=None):
        # a 0-d op result comes back as a numpy scalar and keeps its dtype;
        # python numbers and lists become float64
        if not isinstance(data, np.ndarray):
            data = np.asarray(data, getattr(data, "dtype", np.float64))
        self.data = data
        self.grad = None
        self._parents = _parents
        self._backward = _backward
        self._zeroed_grad = None  # all-zero array the next backward accumulates into

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, leaf={self._backward is None})"

    def zero_grad(self):
        self.grad = self._zeroed_grad = None

    def keep_zeroed_grad(self):
        """Set ``grad`` to None, keeping its array for the next backward to
        accumulate into. The caller has zeroed ``grad`` and checked that it
        is C-contiguous, of the value's shape and dtype."""
        self.grad, self._zeroed_grad = None, self.grad

    def backward(self):
        """Accumulate d(self)/d(leaf) into every contributing leaf's ``grad``.

        ``self`` must be a scalar (size-1) tensor. Each interior node's
        ``grad`` is dropped as soon as its ``_backward`` has passed it on, so
        only the leaves hold gradients afterwards.
        """
        if self.data.size != 1:
            raise ValueError(f"backward() needs a scalar loss, got shape {self.data.shape}")
        order = _toposort(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)
                node.grad = None


def _toposort(root):
    # iterative post-order DFS: parents appear before children in the result
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


def _grad_buffer(t):
    """``t.grad``, made on first use from the zeroed array kept on the leaf,
    or from fresh zeros when there is none."""
    if t.grad is None:
        kept, t._zeroed_grad = t._zeroed_grad, None
        t.grad = kept if kept is not None else np.zeros_like(t.data)
    return t.grad


def _accum(t, g):
    grad = _grad_buffer(t)
    grad += g


def _unbroadcast(g, shape):
    """Sum ``g`` down to ``shape`` (reverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def zeros(shape, dtype=np.float32):
    """Zero-valued leaf, such as an LSTM's zero start or the length input of
    a model without the length table, of the compute type unless ``dtype``
    says otherwise. Like every leaf it accumulates a gradient, which nothing
    reads."""
    return Tensor(np.zeros(shape, dtype=dtype))


# ---------------------------------------------------------------------------
# elementwise and linear ops
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data @ b.data

    def bw(g):
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)

    return Tensor(out_data, (a, b), bw)


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def bw(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return Tensor(out_data, (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data - b.data

    def bw(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(-g, b.data.shape))

    return Tensor(out_data, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def bw(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return Tensor(out_data, (a, b), bw)


def neg(a: Tensor) -> Tensor:
    def bw(g):
        _accum(a, -g)

    return Tensor(-a.data, (a,), bw)


def scale(a: Tensor, k: float) -> Tensor:
    """Multiply by a python scalar (no gradient to ``k``)."""
    k = float(k)

    def bw(g):
        _accum(a, g * k)

    return Tensor(a.data * k, (a,), bw)


def add_scalar(a: Tensor, k: float) -> Tensor:
    def bw(g):
        _accum(a, g)

    return Tensor(a.data + float(k), (a,), bw)


def mul_const(a: Tensor, c: np.ndarray) -> Tensor:
    """Elementwise multiply by a constant array (masks, noise), cast to
    ``a``'s dtype; no grad to ``c``."""
    c = np.asarray(c, dtype=a.data.dtype)

    def bw(g):
        _accum(a, _unbroadcast(g * c, a.data.shape))

    return Tensor(a.data * c, (a,), bw)


def sigmoid(a: Tensor) -> Tensor:
    # overflow-free: sigmoid(x) = (1 + tanh(x/2)) / 2
    out_data = 0.5 * (1.0 + np.tanh(0.5 * a.data))

    def bw(g):
        _accum(a, g * out_data * (1.0 - out_data))

    return Tensor(out_data, (a,), bw)


def tanh_(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)

    def bw(g):
        _accum(a, g * (1.0 - out_data * out_data))

    return Tensor(out_data, (a,), bw)


def exp_(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)

    def bw(g):
        _accum(a, g * out_data)

    return Tensor(out_data, (a,), bw)


# ---------------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------------

def concat_cols(parts) -> Tensor:
    """Concatenate rank-2 tensors along axis 1."""
    parts = list(parts)
    widths = [p.data.shape[1] for p in parts]
    out_data = np.concatenate([p.data for p in parts], axis=1)

    def bw(g):
        off = 0
        for p, w in zip(parts, widths):
            _accum(p, g[:, off:off + w])
            off += w

    return Tensor(out_data, tuple(parts), bw)


def slice_cols(a: Tensor, lo: int, hi: int) -> Tensor:
    out_data = a.data[:, lo:hi]

    def bw(g):
        full = np.zeros_like(a.data)
        full[:, lo:hi] = g
        _accum(a, full)

    return Tensor(out_data, (a,), bw)


def gather_rows(table: Tensor, idx: np.ndarray) -> Tensor:
    """Row lookup ``table[idx]``; scatter-adds gradients back into the table."""
    idx = np.asarray(idx, dtype=np.intp)
    out_data = table.data[idx]

    def bw(g):
        np.add.at(_grad_buffer(table), idx, g)

    return Tensor(out_data, (table,), bw)


# ---------------------------------------------------------------------------
# reductions and losses
# ---------------------------------------------------------------------------

def sum_all(a: Tensor) -> Tensor:
    out_data = np.asarray(a.data.sum())

    def bw(g):
        _accum(a, np.full_like(a.data, float(g)))

    return Tensor(out_data, (a,), bw)


def sum_cols(a: Tensor) -> Tensor:
    """(B, N) -> (B,) row sums."""
    out_data = a.data.sum(axis=1)

    def bw(g):
        _accum(a, np.repeat(g[:, None], a.data.shape[1], axis=1))

    return Tensor(out_data, (a,), bw)


def weighted_step_sum(a: Tensor, weights: np.ndarray) -> Tensor:
    """(B, N) sum over steps of time-major rows: out[r] = sum_t weights[t, r] * a[t*B + r].

    ``a`` (T*B, N), ``weights`` (T, B) constants.
    """
    weights = np.asarray(weights, dtype=a.data.dtype)[:, :, None]
    steps, rows, _ = weights.shape
    out_data = (a.data.reshape(steps, rows, -1) * weights).sum(axis=0)

    def bw(g):
        _accum(a, (weights * g).reshape(steps * rows, -1))

    return Tensor(out_data, (a,), bw)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return add(matmul(x, w), b)


def cross_entropy_rows(logits: Tensor, targets: np.ndarray, weights: np.ndarray) -> Tensor:
    """-sum_b weights[b] * log_softmax(logits[b])[targets[b]].

    ``targets`` int (B,), ``weights`` float (B,) constants. The node keeps
    the log-probabilities; its backward exponentiates them as the softmax.
    """
    targets = np.asarray(targets, dtype=np.intp)
    weights = np.asarray(weights, dtype=logits.data.dtype)
    rows = np.arange(logits.data.shape[0])
    log_probs = log_softmax_rows(logits.data)
    out_data = np.asarray(-(weights * log_probs[rows, targets]).sum())

    def bw(g):
        gl = np.exp(log_probs) * weights[:, None]
        gl[rows, targets] -= weights
        gl *= float(g)
        _accum(logits, gl)

    return Tensor(out_data, (logits,), bw)


def weighted_cross_entropy_rows(logits: Tensor, counts: np.ndarray) -> Tensor:
    """-sum_b sum_w counts[b, w] * log_softmax(logits[b])[w]; the
    bag-of-words loss kernel. Its backward, like ``cross_entropy_rows``',
    exponentiates the kept log-probabilities.
    """
    counts = np.asarray(counts, dtype=logits.data.dtype)
    n = counts.sum(axis=1)
    log_probs = log_softmax_rows(logits.data)
    out_data = np.asarray(-(counts * log_probs).sum())

    def bw(g):
        gl = np.exp(log_probs) * n[:, None] - counts
        gl *= float(g)
        _accum(logits, gl)

    return Tensor(out_data, (logits,), bw)


def sampled_logits(h: Tensor, w: Tensor, b: Tensor, ids: np.ndarray) -> Tensor:
    """Output logits over a shared candidate set: out[r, k] = h[r] . w[:, ids[k]] + b[ids[k]].

    ``h`` (B, H), ``w`` (H, V), ``b`` (V,), ``ids`` distinct ints (C,). One
    (B, H) @ (H, C) GEMM scores every row against the same C columns, and
    ``ids = arange(V)`` is the full output layer. Backward adds one (H, B) @
    (B, C) GEMM into the candidate columns of ``w.grad``; the ids must be
    distinct, since a repeated id would receive only one of its contributions.
    """
    ids = np.asarray(ids, dtype=np.intp)
    if ids.ndim != 1:
        raise ValueError(f"sampled_logits needs 1-D candidate ids, got shape {ids.shape}")
    wc = w.data[:, ids]                       # (H, C)
    out_data = h.data @ wc + b.data[ids]

    def bw(g):
        _accum(h, g @ wc.T)
        _grad_buffer(w)[:, ids] += h.data.T @ g
        _grad_buffer(b)[ids] += g.sum(axis=0)

    return Tensor(out_data, (h, w, b), bw)


# ---------------------------------------------------------------------------
# plain-array helpers (no gradients)
# ---------------------------------------------------------------------------

def log_softmax_rows(logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise log softmax of a rank-2 array, written to ``out`` (a new
    array when None; ``out=logits`` works in place).

    Equal bit for bit to ``shifted - log(exp(shifted).sum(axis=1))`` with
    ``shifted = logits - max``: every element goes through the same
    operations in the same order and each row sum runs over the same
    contiguous row. The work goes in blocks of whole rows, as many as fit
    in BLOCK values (at least one): row maxima, the shift into ``out``, the
    exponentials into a block-sized scratch, the row sums and the
    subtraction of their logs, so each block is finished while it is still
    in cache and ``out`` is the only (rows, V) array. Both cross-entropy ops
    read it, so it is the one softmax of training and decoding.
    """
    rows, cols = logits.shape
    if out is None:
        out = np.empty(logits.shape, dtype=logits.dtype)
    block = max(1, BLOCK // max(cols, 1))
    scratch = np.empty((min(block, rows), cols), dtype=out.dtype)
    for lo in range(0, rows, block):
        x, y = logits[lo:lo + block], out[lo:lo + block]
        np.subtract(x, x.max(axis=1, keepdims=True), out=y)
        exps = np.exp(y, out=scratch[:y.shape[0]])
        y -= np.log(exps.sum(axis=1, keepdims=True))
    return out
