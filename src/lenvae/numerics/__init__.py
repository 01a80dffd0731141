"""Minimal differentiable-computation core: tensors, layers, Adam, grad checking."""

from .gradcheck import NonFiniteLossError, grad_check
from .lstm import lstm_cell, lstm_sequence
from .optim import AdamState, MissingGradientError, adam_step, clip_grad_norm
from .params import ParamStore, row_blocks
from .tensor import (
    Tensor, add, add_scalar, affine, concat_cols, cross_entropy_rows, exp_,
    gather_rows, log_softmax_rows, matmul, mul, mul_const, neg,
    sampled_logits, scale, sigmoid, slice_cols, sub,
    sum_all, sum_cols, tanh_, weighted_cross_entropy_rows, weighted_step_sum,
    zeros,
)

__all__ = [
    "Tensor", "ParamStore", "AdamState", "row_blocks",
    "adam_step", "clip_grad_norm", "grad_check",
    "lstm_sequence", "lstm_cell",
    "MissingGradientError", "NonFiniteLossError",
    "zeros", "matmul", "add", "sub", "mul", "neg", "scale",
    "add_scalar", "mul_const", "sigmoid", "tanh_", "exp_",
    "concat_cols", "slice_cols", "gather_rows", "sum_all",
    "sum_cols", "weighted_step_sum",
    "affine", "cross_entropy_rows", "weighted_cross_entropy_rows",
    "sampled_logits", "log_softmax_rows",
]
