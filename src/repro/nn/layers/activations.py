"""Elementwise activations."""

from __future__ import annotations

import numpy as np

from repro.nn.layers.base import Layer

__all__ = ["ReLU", "ReLU6", "LeakyReLU"]


class ReLU(Layer):
    """max(x, 0)."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        self._mask = x > 0 if training else None
        return np.maximum(x, 0.0)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called without a training forward pass")
        return dout * self._mask


class LeakyReLU(Layer):
    """max(x, alpha * x) with 0 < alpha < 1."""

    def __init__(self, alpha: float = 0.01):
        super().__init__()
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        self.alpha = alpha
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        mask = x > 0
        self._mask = mask if training else None
        return np.where(mask, x, x * self.alpha)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called without a training forward pass")
        return np.where(self._mask, dout, dout * self.alpha)


class ReLU6(Layer):
    """min(max(x, 0), 6) — MobileNet's activation."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        self._mask = (x < 6.0) & (x > 0) if training else None
        return np.clip(x, 0.0, 6.0)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called without a training forward pass")
        return dout * self._mask
