"""Reverse-mode differentiable arrays for the layer set this model needs.

A ``Tensor`` wraps a numpy array and remembers which operation produced it.
``Tensor.backward`` walks the recorded operations in reverse and accumulates
gradients into every leaf that contributed. The op set is deliberately small:
the affine maps, gate nonlinearities, row gathers and cross-entropy reductions
that the encoder, decoder and losses are built from. Every leaf accumulates
its gradient; constants (masks, noise, index arrays) enter through
``mul_const`` or plain numpy arguments and are never leaves. A zero start
(``zeros``) is an ordinary leaf whose gradient is dropped with the graph.

A backward hands each gradient array to one slot: ``_accum`` is the one way
a dense contribution reaches a slot, the first becoming ``t.grad`` itself
and later ones being added into it in place. So no op hands one array to two
parents (``add`` copies ``g`` for its second parent when neither side
reduces it; ``concat_cols`` hands out disjoint column views).

The vocabulary tables hold their gradients as ``SlicedGrad``s: the sorted
indices a backward touched and a compact block of their values, never an
array with a vocabulary-sized axis. A table takes one kind of gradient, and
mixing kinds raises ``ValueError`` in either backward order. A gathered leaf
(the embedding and length tables) takes a row ``SlicedGrad``, accumulated in
a dense gradient's order and so bit-identical to one. ``sampled_logits``
stores its product and column sums as the values of its weight's column and
its bias's entry ``SlicedGrad``s, and raises unless both are leaves with no
gradient yet. Interior nodes (such as the latent rows the decoder gathers)
keep dense gradients. ``Tensor.dense_grad`` gives any gradient as one array
of the value's shape; training never calls it.

float32 is the compute type of training and decoding; float64 is the
reference that the gradient check and the exactness tests ask for. Every op
computes in the dtype of the tensors it differentiates: a constant array
(mask, noise, step weights, counts) is cast to it, and a python scalar
does not widen an array (numpy's scalar promotion), so a float32 store
gives float32 values, gradients and loss throughout.
"""

import numpy as np

# values per block of a walk over an array: 512 KB of float64 (256 KB of
# float32), so a block of every array a walk touches stays in a 4 MB L2 cache
BLOCK = 1 << 16

__all__ = [
    "Tensor", "SlicedGrad", "zeros",
    "matmul", "add", "sub", "mul", "neg", "scale", "add_scalar",
    "mul_const", "sigmoid", "tanh_", "exp_",
    "concat_cols", "slice_cols", "gather_rows",
    "sum_all", "sum_cols", "weighted_step_sum", "affine",
    "cross_entropy_rows", "weighted_cross_entropy_rows", "sampled_logits",
    "log_softmax_rows",
]


class Tensor:
    """Value plus gradient slot plus a record of where the value came from."""

    __slots__ = ("data", "grad", "_parents", "_backward", "__weakref__")

    def __init__(self, data, _parents=(), _backward=None):
        # a 0-d op result comes back as a numpy scalar and keeps its dtype;
        # python numbers and lists become float64
        if not isinstance(data, np.ndarray):
            data = np.asarray(data, getattr(data, "dtype", np.float64))
        self.data = data
        self.grad = None
        self._parents = _parents
        self._backward = _backward

    def dense_grad(self) -> np.ndarray:
        """The gradient as one array of the value's shape: zeros when there
        is none, a dense ``grad`` itself, a ``SlicedGrad`` scattered into
        zeros. For checks and tests; training reads ``grad``."""
        if self.grad is None:
            return np.zeros_like(self.data)
        if isinstance(self.grad, SlicedGrad):
            return self.grad.dense()
        return self.grad

    def backward(self):
        """Accumulate d(self)/d(leaf) into every contributing leaf's ``grad``.

        ``self`` must be a scalar (size-1) tensor. Each interior node's
        ``grad`` is dropped as soon as its ``_backward`` has passed it on, so
        only the leaves hold gradients afterwards. Every gradient array goes
        to one slot (``_accum``), and a table takes one kind of gradient. It
        adds to the gradients leaves already hold, except that
        ``sampled_logits`` raises on a weight or bias that holds one: drop
        them (``adam_step`` or ``ParamStore.zero_grads``) before a second
        backward.
        """
        if self.data.size != 1:
            raise ValueError(f"backward() needs a scalar loss, got shape {self.data.shape}")
        order = _toposort(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)
                node.grad = None


class SlicedGrad:
    """The gradient of a leaf table that is zero outside some indices along
    one axis: the sorted distinct ``index`` and the C-contiguous ``values``
    there, equal to the full gradient's ``take(index, axis)``."""

    __slots__ = ("shape", "axis", "index", "values")

    def __init__(self, shape, axis: int, index: np.ndarray, values: np.ndarray):
        self.shape, self.axis, self.index, self.values = tuple(shape), axis, index, values

    @property
    def dtype(self):
        return self.values.dtype

    def flat_index(self) -> np.ndarray:
        """Where each entry of ``values``, in C order, sits in the flat view
        of an array of the full gradient's shape. One scatter through it is
        several times faster than numpy's column assignment ``a[:, index]``."""
        grid = np.ix_(*(self.index if k == self.axis else np.arange(n)
                        for k, n in enumerate(self.shape)))
        return np.ravel_multi_index(grid, self.shape).reshape(-1)

    def dense(self) -> np.ndarray:
        full = np.zeros(self.shape, self.dtype)
        np.put(full, self.flat_index(), self.values)
        return full


def _sorted_distinct(ids: np.ndarray) -> np.ndarray:
    """The distinct values of ``ids``, ascending, as ``np.unique`` gives
    them, from one sort; ``np.unique`` takes several times as long for the
    few hundred ids of a batch."""
    ids = np.sort(ids, axis=None)
    keep = np.empty(ids.size, bool)
    keep[:1] = True
    np.not_equal(ids[1:], ids[:-1], out=keep[1:])
    return ids[keep]


def _sliced_rows(t, ids: np.ndarray) -> SlicedGrad:
    """``t.grad`` as a row ``SlicedGrad`` whose index covers the sorted
    distinct ``ids``: made with zero values on first use; widened by copying
    its values into a new block that is zero at the rows it lacked."""
    grad, width = t.grad, t.data.shape[1:]
    if grad is None:
        t.grad = SlicedGrad(t.data.shape, 0, ids, np.zeros((ids.size, *width), t.data.dtype))
        return t.grad
    if not isinstance(grad, SlicedGrad) or grad.axis != 0:
        raise ValueError("a table with a dense gradient or sampled by columns cannot also "
                         "be gathered by rows: a table takes one kind of gradient")
    index = _sorted_distinct(np.concatenate([grad.index, ids]))
    if index.size != grad.index.size:
        values = np.zeros((index.size, *width), grad.dtype)
        values[np.searchsorted(index, grad.index)] = grad.values
        grad.index, grad.values = index, values
    return grad


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


def _accum(t, g):
    """Hand ``g`` to ``t``: the first contribution becomes ``t.grad``,
    later ones are added in place, so the caller must not hand ``g`` on."""
    if g.shape != t.data.shape or isinstance(t.grad, SlicedGrad):
        raise ValueError(f"a dense gradient (shape {g.shape}) must have its value's shape "
                         f"{t.data.shape} and reach no table gathered by rows or sampled "
                         f"by columns: a table takes one kind of gradient")
    if t.grad is None:
        t.grad = g
    else:
        t.grad += g


def _unbroadcast(g, shape):
    """Sum ``g`` over its leading axes down to the rank of ``shape``: the
    reverse of numpy broadcasting a bias over rows. A size-1 axis is not
    summed (no op broadcasts one), so adding such a ``g`` raises."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
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
        ga, gb = _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)
        _accum(a, ga)
        _accum(b, gb.copy() if gb is ga else gb)

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
    """Row lookup ``table[idx]``; scatter-adds gradients back into the table.

    Each id must lie in ``[0, rows)``: numpy would wrap a negative one to
    another row. A leaf table's gradient is a ``SlicedGrad`` over its rows:
    the backward adds ``g`` into the block rows of ``idx`` with one
    ``np.add.at``, in ``idx`` order, as it would into a dense gradient; a
    leaf holding a dense or column gradient raises (one kind per table). An
    interior table keeps a dense gradient, zeros on first use.
    """
    idx = np.asarray(idx, dtype=np.intp)
    rows = table.data.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= rows):
        raise ValueError(f"gather_rows ids must lie in [0, {rows}), "
                         f"got {idx.min()} to {idx.max()}")
    out_data = table.data[idx]

    def bw(g):
        if table._backward is None:
            grad = _sliced_rows(table, _sorted_distinct(idx))
            np.add.at(grad.values, np.searchsorted(grad.index, idx), g)
        else:
            # added in place, not handed to ``_accum`` as a scatter of its
            # own: the decoder's gather of z runs after z's other consumers
            # have given it a gradient, and summing the rows into that
            # gradient one by one is the order the trained parameters keep
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            np.add.at(table.grad, idx, g)

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
    width = a.data.shape[1]
    out_data = (a.data.reshape(steps, rows, width) * weights).sum(axis=0)

    def bw(g):
        _accum(a, (weights * g).reshape(steps * rows, width))

    return Tensor(out_data, (a,), bw)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return add(matmul(x, w), b)


def cross_entropy_rows(logits: Tensor, targets: np.ndarray) -> Tensor:
    """-sum_b log_softmax(logits[b])[targets[b]].

    ``targets`` int (B,) constants; every row is scored, so a caller passes
    only the rows it means to score. The node keeps the log-probabilities;
    its backward exponentiates them as the softmax.
    """
    targets = np.asarray(targets, dtype=np.intp)
    rows = np.arange(logits.data.shape[0])
    log_probs = log_softmax_rows(logits.data)
    out_data = np.asarray(-log_probs[rows, targets].sum())

    def bw(g):
        gl = np.exp(log_probs)
        gl[rows, targets] -= 1.0
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
        gl = np.exp(log_probs)
        gl *= n[:, None]
        gl -= counts
        gl *= float(g)
        _accum(logits, gl)

    return Tensor(out_data, (logits,), bw)


def sampled_logits(h: Tensor, w: Tensor, b: Tensor, ids: np.ndarray) -> Tensor:
    """Output logits over a shared candidate set: out[r, k] = h[r] . w[:, ids[k]] + b[ids[k]].

    ``h`` (B, H), ``w`` (H, V), ``b`` (V,), ``ids`` (C,) ascending distinct
    ints in ``[0, V)``. One (B, H) @ (H, C) GEMM scores every row against
    the same C columns, and ``ids = arange(V)`` is the full output layer.
    The gathered (H, C) columns are a temporary of the forward and are
    gathered again in backward, so the node does not hold a copy of ``w``
    (for the full layer, all of it) while the loss is formed.

    Backward makes the whole gradients of ``w`` and ``b``: ``SlicedGrad``s
    over the columns (entries) of ``ids`` whose values are the
    (H, B) @ (B, C) GEMM (the column sums of ``g``), equal to the dense
    gradient there up to the sign of a zero. So ``w`` and ``b`` must be
    leaves that hold no gradient yet: it raises ``ValueError`` on an
    interior node, on a second use in one graph, and on a second backward
    with no ``adam_step`` or ``zero_grads`` between.
    """
    ids = np.asarray(ids, dtype=np.intp)
    if ids.ndim != 1:
        raise ValueError(f"sampled_logits needs 1-D candidate ids, got shape {ids.shape}")
    if ids.size and (ids[0] < 0 or ids[-1] >= w.data.shape[1] or np.any(ids[1:] <= ids[:-1])):
        raise ValueError(f"sampled_logits needs ascending distinct ids in [0, {w.data.shape[1]})")
    out_data = h.data @ w.data[:, ids]
    out_data += b.data[ids]

    def bw(g):
        if any(p._backward is not None or p.grad is not None for p in (w, b)):
            raise ValueError("sampled_logits makes the whole gradient of its weight "
                             "and bias: each must be a leaf that holds no gradient")
        _accum(h, g @ w.data[:, ids].T)
        w.grad = SlicedGrad(w.data.shape, 1, ids, h.data.T @ g)
        b.grad = SlicedGrad(b.data.shape, 0, ids, g.sum(axis=0))

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
