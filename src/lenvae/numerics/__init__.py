"""Minimal differentiable-computation core: tensors, layers, Adam, grad checking."""

from .gradcheck import NonFiniteLossError, grad_check
from .lstm import init_lstm_weights, lstm_cell, lstm_sequence
from .optim import AdamState, MissingGradientError, adam_step, clip_grad_norm
from .params import ParamStore
from .tensor import (
    Tensor, add, add_scalar, affine, concat_cols, cross_entropy_rows, exp_,
    gather_rows, leaf, log_softmax_rows, matmul, mul, mul_const, neg,
    sampled_logits, scale, sigmoid, slice_cols, slice_rows, sub,
    sum_all, sum_cols, tanh_, weighted_cross_entropy_rows, weighted_step_sum,
    zeros,
)

__all__ = [
    "Tensor", "ParamStore", "AdamState",
    "adam_step", "clip_grad_norm", "grad_check",
    "lstm_sequence", "lstm_cell", "init_lstm_weights",
    "MissingGradientError", "NonFiniteLossError",
    "leaf", "zeros", "matmul", "add", "sub", "mul", "neg", "scale",
    "add_scalar", "mul_const", "sigmoid", "tanh_", "exp_",
    "concat_cols", "slice_cols", "slice_rows", "gather_rows", "sum_all",
    "sum_cols", "weighted_step_sum",
    "affine", "cross_entropy_rows", "weighted_cross_entropy_rows",
    "sampled_logits", "log_softmax_rows",
]
