"""The frozen reshape + reduce max-pool: the reference :class:`MaxPool2D` matches.

The production layer (:mod:`repro.nn.layers.pool`) folds strided taps
with ``np.maximum`` and routes gradients with compare masks. Its output
and gradients must match this implementation: forward bytes at size 2,
forward values at every size, and gradient bytes and dtype at every
size (``tests/nn/test_maxpool_parity.py``).
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers.base import Layer

__all__ = ["MaxPool2DRef"]


class MaxPool2DRef(Layer):
    """The original reshape/``max``/``argmax``/``put_along_axis`` max-pool.

    Non-overlapping, window = stride = ``size``. Each window's gradient
    goes to its first maximum in row-major order (``argmax``), and to
    its first NaN when the window holds one. Do not optimise this class.
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
