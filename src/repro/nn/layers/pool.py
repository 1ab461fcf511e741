"""Pooling layers: max-pool (Cipher CNN) and global average pool (MobileNet)."""

from __future__ import annotations

import numpy as np

from repro.nn.layers.base import Layer

__all__ = ["MaxPool2D", "AvgPool2D", "GlobalAvgPool2D"]


class MaxPool2D(Layer):
    """Non-overlapping max pooling with window = stride = ``size``.

    Input spatial dims must be divisible by ``size`` (the models in this
    repo are constructed so that they are), which lets the forward pass
    be a pure reshape + reduce — no im2col needed.
    """

    def __init__(self, size: int = 2):
        super().__init__()
        if size <= 1:
            raise ValueError("pool size must be >= 2")
        self.size = size
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        n, c, h, w = x.shape
        s = self.size
        if h % s or w % s:
            raise ValueError(f"input {h}x{w} not divisible by pool size {s}")
        xr = x.reshape(n, c, h // s, s, w // s, s)
        out = xr.max(axis=(3, 5))
        if training:
            # Route each window's gradient to the (first) argmax. The
            # window axes (3, 5) are brought together before flattening
            # so ties break toward a single element and gradients are
            # never double-counted.
            flat = xr.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h // s, w // s, s * s)
            first = flat.argmax(axis=-1)
            mask = np.zeros(flat.shape, dtype=bool)
            np.put_along_axis(mask, first[..., None], True, axis=-1)
            self._cache = (x.shape, mask)
        else:
            self._cache = None
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called without a training forward pass")
        x_shape, mask = self._cache
        n, c, h, w = x_shape
        s = self.size
        routed = mask * dout[:, :, :, :, None]
        return (
            routed.reshape(n, c, h // s, w // s, s, s)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(x_shape)
        )


class AvgPool2D(Layer):
    """Non-overlapping average pooling with window = stride = ``size``."""

    def __init__(self, size: int = 2):
        super().__init__()
        if size <= 1:
            raise ValueError("pool size must be >= 2")
        self.size = size
        self._shape: tuple[int, int, int, int] | None = None

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        n, c, h, w = x.shape
        s = self.size
        if h % s or w % s:
            raise ValueError(f"input {h}x{w} not divisible by pool size {s}")
        self._shape = x.shape if training else None
        return x.reshape(n, c, h // s, s, w // s, s).mean(axis=(3, 5))

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called without a training forward pass")
        n, c, h, w = self._shape
        s = self.size
        scaled = np.broadcast_to(
            (dout / (s * s))[:, :, :, None, :, None], (n, c, h // s, s, w // s, s)
        )
        return np.ascontiguousarray(scaled).reshape(n, c, h, w)


class GlobalAvgPool2D(Layer):
    """Average over spatial dims: (N, C, H, W) -> (N, C)."""

    def __init__(self) -> None:
        super().__init__()
        self._shape: tuple[int, int, int, int] | None = None

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        if x.ndim != 4:
            raise ValueError(f"GlobalAvgPool2D expected 4-D input, got {x.shape}")
        self._shape = x.shape if training else None
        return x.mean(axis=(2, 3))

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called without a training forward pass")
        h, w = self._shape[2:]
        return np.broadcast_to(dout[:, :, None, None] / (h * w), self._shape).copy()
