"""2-D convolution via im2col.

The im2col transform turns convolution into one large GEMM, the standard
way to get vectorized-NumPy performance (see the hpc-parallel guide's
"vectorize for loops" rule). Data layout is NCHW throughout.
"""

from __future__ import annotations

import numpy as np

from repro.nn.initializers import he_normal, zeros
from repro.nn.layers.base import Layer

__all__ = ["Conv2D", "im2col", "col2im"]


def _out_size(size: int, k: int, stride: int, pad: int) -> int:
    return (size + 2 * pad - k) // stride + 1


def _window_view(x: np.ndarray, kh: int, kw: int, stride: int, oh: int, ow: int):
    """Read-only sliding-window view (N, C, kh, kw, OH, OW) — no copy."""
    n, c = x.shape[:2]
    sn, sc, sh, sw = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, kh, kw, oh, ow),
        strides=(sn, sc, sh, sw, sh * stride, sw * stride),
        writeable=False,
    )


def im2col(
    x: np.ndarray, kh: int, kw: int, stride: int, pad: int
) -> tuple[np.ndarray, tuple[int, int]]:
    """Unfold ``x`` (N, C, H, W) into columns (N*OH*OW, C*kh*kw).

    Returns the column matrix and the output spatial size ``(OH, OW)``.
    """
    n, c, h, w = x.shape
    oh = _out_size(h, kh, stride, pad)
    ow = _out_size(w, kw, stride, pad)
    if oh <= 0 or ow <= 0:
        raise ValueError(f"kernel {kh}x{kw} too large for input {h}x{w} (pad={pad})")
    if pad > 0:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="constant")
    view = _window_view(x, kh, kw, stride, oh, ow)
    cols = view.transpose(0, 4, 5, 1, 2, 3).reshape(n * oh * ow, c * kh * kw)
    return np.ascontiguousarray(cols), (oh, ow)


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Fold columns back into an image, accumulating overlaps (im2col adjoint).

    When padded, the result is a view into the padded accumulator.
    """
    n, c, h, w = x_shape
    oh = _out_size(h, kh, stride, pad)
    ow = _out_size(w, kw, stride, pad)
    out = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    cols6 = cols.reshape(n, oh, ow, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    for i in range(kh):
        i_max = i + stride * oh
        for j in range(kw):
            j_max = j + stride * ow
            out[:, :, i:i_max:stride, j:j_max:stride] += cols6[:, :, i, j, :, :]
    if pad > 0:
        return out[:, :, pad:-pad, pad:-pad]
    return out


class Conv2D(Layer):
    """Standard convolution, weights ``(out_c, in_c, kh, kw)``."""

    def __init__(
        self,
        in_c: int,
        out_c: int,
        kernel: int,
        rng: np.random.Generator,
        *,
        stride: int = 1,
        pad: int | None = None,
    ):
        super().__init__()
        if in_c <= 0 or out_c <= 0 or kernel <= 0 or stride <= 0:
            raise ValueError("conv dimensions must be positive")
        self.in_c, self.out_c, self.k, self.stride = in_c, out_c, kernel, stride
        self.pad = (kernel // 2) if pad is None else pad
        fan_in = in_c * kernel * kernel
        self.params = {
            "W": he_normal(rng, (out_c, in_c, kernel, kernel), fan_in=fan_in),
            "b": zeros((out_c,)),
        }
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_c:
            raise ValueError(f"Conv2D expected (N,{self.in_c},H,W), got {x.shape}")
        n = x.shape[0]
        k = self.k
        cols, (oh, ow) = im2col(x, k, k, self.stride, self.pad)
        wmat = self.params["W"].reshape(self.out_c, -1)  # (out_c, in_c*k*k)
        outf = cols @ wmat.T
        outf += self.params["b"]
        self._cache = (x.shape, cols) if training else None
        return np.ascontiguousarray(
            outf.reshape(n, oh, ow, self.out_c).transpose(0, 3, 1, 2)
        )

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called without a training forward pass")
        x_shape, cols = self._cache
        n, _, oh, ow = dout.shape
        k = self.k
        dflat = np.ascontiguousarray(dout.transpose(0, 2, 3, 1)).reshape(
            n * oh * ow, self.out_c
        )
        w = self.params["W"]
        wmat = w.reshape(self.out_c, -1)
        self.grads["W"] = (dflat.T @ cols).reshape(w.shape)
        self.grads["b"] = dflat.sum(axis=0)
        dx = col2im(dflat @ wmat, x_shape, k, k, self.stride, self.pad)
        return np.ascontiguousarray(dx)
