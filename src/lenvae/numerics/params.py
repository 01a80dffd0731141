"""Named parameter storage with per-tensor gradient slots."""

import math

import numpy as np

from .tensor import BLOCK, Tensor


class ParamStore:
    """Ordered map from unique name to a leaf Tensor (value + gradient slot).

    Iteration order is insertion order and is preserved by checkpoint
    round trips. ``add`` keeps the array it is handed when it is
    C-contiguous and copies any other value into C order, so every value,
    and with it every gradient and Adam moment, is C-contiguous.
    """

    def __init__(self):
        self._entries: dict[str, Tensor] = {}

    def add(self, name: str, value: np.ndarray) -> Tensor:
        if name in self._entries:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = Tensor(np.asarray(value, order="C"))
        self._entries[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._entries[name]

    def __len__(self) -> int:
        return len(self._entries)

    def items(self):
        return self._entries.items()

    def zero_grads(self):
        """Drop every gradient, dense or ``SlicedGrad``."""
        for t in self._entries.values():
            t.grad = None


def row_blocks(a: np.ndarray):
    """Views of ``a`` in consecutive slices along its first axis, each of
    as many whole rows as fit in ``BLOCK`` values, but at least one."""
    rows = max(1, BLOCK // max(1, math.prod(a.shape[1:])))
    return [a[lo:lo + rows] for lo in range(0, a.shape[0], rows)]
