"""LSTM layers: a whole sequence as one autograd node, and a graph-free cell step.

Gates are packed into a single (in_dim + hidden, 4*hidden) weight matrix ``w``
in the order input, forget, candidate, output; rows ``w[:I]`` read the input,
rows ``w[I:]`` the previous hidden state. Sigmoid is computed overflow-free
as (1 + tanh(x/2)) / 2.

``lstm_sequence`` runs T steps for a batch of B rows. Its input is a list of
column blocks read against consecutive row ranges of ``w[:I]``, each either
time-major (T*B, I_k), row ``t*B + r`` holding step t of batch row r as in
the output, or (B, I_k), one row per sentence that every step reads. All of
it is known before the loop, so the input half of every step's gates is the
bias plus one GEMM per block (Appleyard et al. 2016); only ``h @ w[I:]`` is
in the loop. h_{-1} = 0, as in both of the paper's LSTMs, and c_{-1} = ``c0``;
the forward caches every step's gates (i, f, g, o), cell state c and tanh(c).

The backward is hand-written backpropagation through time. With dh_t the
gradient reaching h_t (from the output and from step t+1) and dc_t the one
reaching c_t:

    dh_t   = dH_t + dG_{t+1} @ w[I:].T
    dc_t   = dc_{t+1} * f_{t+1} + dh_t * o_t * (1 - tanh(c_t)^2)
    dG_t   = [dc_t * g_t * i_t (1 - i_t),   dc_t * c_{t-1} * f_t (1 - f_t),
              dc_t * i_t * (1 - g_t^2),     dh_t * tanh(c_t) * o_t (1 - o_t)]

with dG_T = 0 and dc_T = 0 past the last step, h_{-1} = 0 and c_{-1} = ``c0``.
One reverse loop fills dG (T, B, 4H); after it, one GEMM each gives block k's
dX_k = dG @ w[rows_k].T and dw[rows_k] = X_k.T @ dG (dG summed over the steps
for a (B, I_k) block) and dw[I:] = [h_{-1}, ..., h_{T-2}].T @ dG; the bias
gradient is dG summed over rows, and c0's is dc_0 * f_0.

``lstm_cell`` is one step on plain arrays for inference. Its column blocks
are (B, I_k) or (1, I_k), one row that every batch row reads; the gates are
b + h @ w[I:] plus one GEMM per block, then the nonlinearity ``lstm_gates``.
"""

from itertools import accumulate

import numpy as np

from .tensor import Tensor, _accum


def _gate_scale(hidden: int, dtype) -> np.ndarray:
    """(4H,) 0.5 on the sigmoid gates (i, f, o) and 1 on the candidate g."""
    scale = np.full(4 * hidden, 0.5, dtype=dtype)
    scale[2 * hidden:3 * hidden] = 1.0
    return scale


def lstm_gates(scaled: np.ndarray, c_prev: np.ndarray, scale: np.ndarray,
               c: np.ndarray, tanh_c: np.ndarray, h: np.ndarray) -> None:
    """The cell's nonlinearity, in place.

    ``scaled`` (B, 4H) holds the pre-activations times ``scale`` (see
    ``_gate_scale``) and becomes the activations sigmoid(i), sigmoid(f),
    tanh(g), sigmoid(o): tanh(x * scale) * scale + (1 - scale) is exactly
    0.5 * (1 + tanh(x / 2)) on the sigmoid columns and tanh(x) on g. The new
    cell state f * c_prev + i * g, its tanh and h = o * tanh(c) are written
    into the (B, H) arrays ``c``, ``tanh_c`` and ``h``.
    """
    hidden = c_prev.shape[1]
    np.tanh(scaled, out=scaled)
    scaled *= scale
    scaled += 1.0 - scale
    np.multiply(scaled[:, hidden:2 * hidden], c_prev, out=c)
    c += scaled[:, :hidden] * scaled[:, 2 * hidden:3 * hidden]
    np.tanh(c, out=tanh_c)
    np.multiply(scaled[:, 3 * hidden:], tanh_c, out=h)


def lstm_cell(inputs: list, h_prev: np.ndarray, c_prev: np.ndarray,
              w: np.ndarray, b: np.ndarray):
    """One step on arrays, no graph: returns (h, c), both (B, H). h's GEMM
    reads ``w[I:]``, so ``inputs`` that do not cover ``w[:I]`` raise ValueError."""
    bounds = [0, *accumulate(x.shape[1] for x in inputs)]
    gates = h_prev @ w[bounds[-1]:] + b
    for x, lo, hi in zip(inputs, bounds, bounds[1:]):
        gates += x @ w[lo:hi]
    scale = _gate_scale(c_prev.shape[1], w.dtype)
    gates *= scale
    c, tanh_c, h = (np.empty_like(c_prev) for _ in range(3))
    lstm_gates(gates, c_prev, scale, c, tanh_c, h)
    return h, c


def _check_shapes(inputs, c0, w, b, steps):
    if c0.ndim != 2 or any(x.ndim != 2 for x in inputs):
        raise ValueError("lstm_sequence expects rank-2 input blocks and c0")
    rows, hidden = c0.shape
    for k, x in enumerate(inputs):
        if x.shape[0] not in (steps * rows, rows):
            raise ValueError(f"lstm input block {k}: expected {steps} * {rows} or {rows} rows")
    expected_rows = sum(x.shape[1] for x in inputs) + hidden
    if w.shape != (expected_rows, 4 * hidden):
        raise ValueError(
            f"lstm weight w: expected shape {(expected_rows, 4 * hidden)}, got {w.shape}")
    if b.shape != (4 * hidden,):
        raise ValueError(f"lstm bias b: expected shape {(4 * hidden,)}, got {b.shape}")


def lstm_sequence(inputs: list, c0: Tensor, w: Tensor, b: Tensor, steps: int) -> Tensor:
    """Every step's hidden state, (T*B, H) time-major, as one autograd node.

    ``inputs`` are column blocks, each (T*B, I_k) time-major or (B, I_k) per
    sentence; c0 (B, H) the initial cell state; w (I+H, 4H); b (4H,); T =
    ``steps``. h starts at 0, and ``c0`` receives the gradient dc_0 * f_0.
    """
    _check_shapes([x.data for x in inputs], c0.data, w.data, b.data, steps)
    rows, hidden = c0.data.shape
    bounds = [0, *accumulate(x.data.shape[1] for x in inputs)]
    blocks, in_dim = list(zip(inputs, bounds, bounds[1:])), bounds[-1]
    scale = _gate_scale(hidden, w.data.dtype)
    # pre-activations, then activations; scaling by 0.5 is exact, so scaling
    # both halves of the gates up front equals scaling their sum
    acts = np.full((steps, rows, 4 * hidden), b.data)
    for x, lo, hi in blocks:  # a per-sentence block's term broadcasts over the steps
        acts += (x.data @ w.data[lo:hi]).reshape(-1, rows, 4 * hidden)
    acts *= scale
    w_h_scaled = w.data[in_dim:] * scale
    hs = np.empty((steps + 1, rows, hidden), dtype=acts.dtype)     # h_{-1} = 0, h_0, ...
    cells = np.empty((steps + 1, rows, hidden), dtype=acts.dtype)  # c_{-1} = c0, c_0, ...
    tanh_cells = np.empty((steps, rows, hidden), dtype=acts.dtype)
    hs[0], cells[0] = 0.0, c0.data
    for t in range(steps):
        acts[t] += hs[t] @ w_h_scaled
        lstm_gates(acts[t], cells[t], scale, cells[t + 1], tanh_cells[t], hs[t + 1])

    def bw(g):
        # dgates starts as each gate's local factor, [g i(1-i), c_prev f(1-f),
        # i (1-g^2), tanh(c) o(1-o)], and the loop scales it by dc or dh
        a4 = acts.reshape(steps, rows, 4, hidden)
        i, f, cand, o = (a4[:, :, k] for k in range(4))
        dgates = acts * (1.0 - acts)
        d4 = dgates.reshape(steps, rows, 4, hidden)
        np.multiply(cand, cand, out=d4[:, :, 2])
        np.subtract(1.0, d4[:, :, 2], out=d4[:, :, 2])
        d4[:, :, 0] *= cand
        d4[:, :, 1] *= cells[:-1]
        d4[:, :, 2] *= i
        d4[:, :, 3] *= tanh_cells
        dc_from_h = o * (1.0 - tanh_cells * tanh_cells)
        g = g.reshape(steps, rows, hidden)
        w_h_t = np.ascontiguousarray(w.data[in_dim:].T)
        dh_next = np.zeros_like(c0.data)
        dc_next = np.zeros_like(c0.data)
        for t in reversed(range(steps)):
            dh = g[t] + dh_next
            dc = dh * dc_from_h[t]
            dc += dc_next
            d4[t, :, :3] *= dc[:, None, :]
            d4[t, :, 3] *= dh
            dc_next = dc * f[t]
            dh_next = dgates[t] @ w_h_t
        flat = dgates.reshape(steps * rows, 4 * hidden)
        gw = np.empty_like(w.data)
        for x, lo, hi in blocks:  # a per-sentence block reads dG summed over the steps
            dg = flat if x.data.shape[0] == flat.shape[0] else dgates.sum(axis=0)
            _accum(x, dg @ w.data[lo:hi].T)
            np.matmul(x.data.T, dg, out=gw[lo:hi])
        _accum(c0, dc_next)
        np.matmul(hs[:-1].reshape(steps * rows, hidden).T, flat, out=gw[in_dim:])
        _accum(w, gw)
        _accum(b, flat.sum(axis=0))

    return Tensor(hs[1:].reshape(steps * rows, hidden), (*inputs, c0, w, b), bw)
