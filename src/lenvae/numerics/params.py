"""Named parameter storage with per-tensor gradient slots."""

import numpy as np

from .tensor import Tensor


class ParamStore:
    """Ordered map from unique name to a leaf Tensor (value + gradient slot).

    Iteration order is insertion order and is preserved by checkpoint
    round trips. Values are stored as C-contiguous copies.
    """

    def __init__(self):
        self._entries: dict[str, Tensor] = {}

    def add(self, name: str, value: np.ndarray) -> Tensor:
        if name in self._entries:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = Tensor(np.array(value, order="C"))
        self._entries[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._entries[name]

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def names(self):
        return list(self._entries)

    def items(self):
        return self._entries.items()

    def zero_grads(self):
        """Drop every gradient, and the zeroed arrays ``adam_step`` kept."""
        for t in self._entries.values():
            t.zero_grad()

    def num_values(self) -> int:
        return sum(t.data.size for t in self._entries.values())

    def copy(self) -> "ParamStore":
        out = ParamStore()
        for name, t in self._entries.items():
            out.add(name, t.data)
        return out
