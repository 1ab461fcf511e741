"""Pooling layers: max-pool (Cipher CNN) and global average pool (MobileNet)."""

from __future__ import annotations

import numpy as np

from repro.nn.layers.base import Layer

__all__ = ["MaxPool2D", "AvgPool2D", "GlobalAvgPool2D"]


class MaxPool2D(Layer):
    """Non-overlapping max pooling with window = stride = ``size``.

    Input spatial dims must be divisible by ``size`` (the models in this
    repo are constructed so that they are). The window's ``size * size``
    elements are the strided taps ``x[:, :, i::s, j::s]``; the forward
    pass folds them with ``np.maximum`` in row-major tap order, which
    reproduces ``reshape(...).max(axis=(3, 5))`` byte for byte at
    ``size=2``. Each window's gradient goes to its first maximum in
    row-major order, or to its first NaN, exactly as ``argmax`` would
    route it.
    """

    def __init__(self, size: int = 2):
        super().__init__()
        if size <= 1:
            raise ValueError("pool size must be >= 2")
        self.size = size
        self._cache: tuple | None = None

    def _taps(self, a: np.ndarray) -> list[np.ndarray]:
        s = self.size
        return [a[:, :, i::s, j::s] for i in range(s) for j in range(s)]

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        _, _, h, w = x.shape
        s = self.size
        if h % s or w % s:
            raise ValueError(f"input {h}x{w} not divisible by pool size {s}")
        taps = self._taps(x)
        out = np.maximum(taps[0], taps[1])
        for tap in taps[2:]:
            np.maximum(out, tap, out=out)
        if training:
            # One mask per tap: a tap takes the windows where it equals
            # the max and no earlier tap did (``free`` holds the windows
            # not yet taken), so ties break toward a single element and
            # gradients are never double-counted.
            masks = [taps[0] == out]
            free = ~masks[0]
            for tap in taps[1:]:
                m = tap == out
                m &= free
                free ^= m
                masks.append(m)
            if free.any():
                # Only a NaN window is left (NaN != NaN): route it to its
                # first NaN tap.
                for m, tap in zip(masks, taps):
                    nan = tap != tap
                    nan &= free
                    m |= nan
                    free ^= nan
            self._cache = (x.shape, masks)
        else:
            self._cache = None
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called without a training forward pass")
        x_shape, masks = self._cache
        dx = np.empty(x_shape, dtype=dout.dtype)
        for m, dst in zip(masks, self._taps(dx)):
            np.multiply(m, dout, out=dst)
        return dx


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
