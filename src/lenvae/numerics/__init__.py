"""Minimal differentiable-computation core: tensors, layers, Adam, grad checking.

The differentiable ops are re-exported from ``tensor.__all__``, their one list.
"""

from . import tensor
from .gradcheck import NonFiniteLossError, grad_check
from .lstm import lstm_cell, lstm_sequence
from .optim import AdamState, MissingGradientError, adam_step, clip_grad_norm
from .params import ParamStore, row_blocks
from .tensor import *  # noqa: F403

__all__ = [
    "ParamStore", "AdamState", "row_blocks",
    "adam_step", "clip_grad_norm", "grad_check",
    "lstm_sequence", "lstm_cell",
    "MissingGradientError", "NonFiniteLossError",
    *tensor.__all__,
]
