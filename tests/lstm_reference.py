"""Test-side references for the LSTM layers: one cell step composed of
autograd ops, and the Tensor decoder step built from it.

``lenvae`` runs a layer over a whole sequence as one node
(``lstm_sequence``) and decodes on plain arrays (``decode_step``); the tests
check both against these step-by-step compositions.
"""

import numpy as np

from lenvae.numerics import (
    Tensor, add, affine, concat_cols, matmul, mul, sigmoid, slice_cols, tanh_, zeros,
)


def lstm_cell_forward(x: Tensor, h_prev: Tensor, c_prev: Tensor, w: Tensor, b: Tensor):
    """One step: returns (h, c), both (B, H).

    x (B, I); h_prev, c_prev (B, H); w (I+H, 4H); b (4H,); gate order i, f, g, o.
    """
    hidden = h_prev.data.shape[1]
    gates = add(matmul(concat_cols([x, h_prev]), w), b)
    i = sigmoid(slice_cols(gates, 0, hidden))
    f = sigmoid(slice_cols(gates, hidden, 2 * hidden))
    g = tanh_(slice_cols(gates, 2 * hidden, 3 * hidden))
    o = sigmoid(slice_cols(gates, 3 * hidden, 4 * hidden))
    c = add(mul(f, c_prev), mul(i, g))
    h = mul(o, tanh_(c))
    return h, c


def unrolled_sequence(x_steps, h0: Tensor, c0: Tensor, w: Tensor, b: Tensor):
    """``lstm_sequence`` as chained cell steps over the per-step inputs
    ``x_steps``: the list of every step's h. The kernel's own start is
    ``h0 = 0``."""
    h, c, hs = h0, c0, []
    for x in x_steps:
        h, c = lstm_cell_forward(x, h, c, w, b)
        hs.append(h)
    return hs


def init_decoder_state(z: Tensor, params, hp) -> list:
    """Per-layer (h, c) Tensors; layer 0's cell state is an affine map of z,
    everything else zeros of the parameters' dtype."""
    n = z.data.shape[0]
    c0 = affine(z, params["dec_init.W"], params["dec_init.b"])
    state = [(zeros((n, hp.cell_size), c0.data.dtype), c0)]
    for _ in range(1, hp.decoder_layers):
        state.append((zeros((n, hp.cell_size), c0.data.dtype),
                      zeros((n, hp.cell_size), c0.data.dtype)))
    return state


def decode_step(z: Tensor, prev_emb: Tensor, len_emb: Tensor, state: list, params, hp):
    """One decoder step through every layer on Tensors: (logits, new state)."""
    step_input = concat_cols([prev_emb, z, len_emb])
    new_state = []
    below = None
    for layer in range(hp.decoder_layers):
        layer_in = step_input if layer == 0 else concat_cols([below, step_input])
        h_prev, c_prev = state[layer]
        h, c = lstm_cell_forward(layer_in, h_prev, c_prev,
                                 params[f"dec_l{layer}.W"], params[f"dec_l{layer}.b"])
        new_state.append((h, c))
        below = h
    return affine(below, params["out.W"], params["out.b"]), new_state


def as_tensors(state):
    return [(Tensor(np.asarray(h)), Tensor(np.asarray(c))) for h, c in state]
