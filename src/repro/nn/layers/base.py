"""Layer protocol.

Layers hold their parameters and gradients in ``params`` / ``grads``
dictionaries keyed by short names ("W", "b", ...). The model namespaces
these to globally unique *variable names* — the unit of gradient exchange
throughout the distributed layer, matching the paper's "granularity of
data transmission is ... individual weight variables" (§4.2).
"""

from __future__ import annotations

import numpy as np

__all__ = ["Layer"]


class Layer:
    """Base class for all layers.

    Subclasses implement :meth:`forward` and :meth:`backward`; stateful
    layers populate ``self.params`` at construction and write matching
    entries into ``self.grads`` during :meth:`backward`.
    """

    def __init__(self) -> None:
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.name: str = type(self).__name__

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        """Compute the layer output; caches for backward when training."""
        raise NotImplementedError

    def backward(self, dout: np.ndarray) -> np.ndarray:
        """Given dL/d(output), set ``self.grads`` and return dL/d(input)."""
        raise NotImplementedError

    def num_params(self) -> int:
        """Total trainable scalars in this layer."""
        return int(sum(p.size for p in self.params.values()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(params={self.num_params()})"
