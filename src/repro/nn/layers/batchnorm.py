"""Batch normalization (per-channel for 4-D inputs, per-feature for 2-D)."""

from __future__ import annotations

import numpy as np

from repro.nn.initializers import ones, zeros
from repro.nn.layers.base import Layer

__all__ = ["BatchNorm"]


class BatchNorm(Layer):
    """Batch norm with running statistics for inference.

    ``gamma``/``beta`` are trainable weight variables (and therefore take
    part in gradient exchange); running mean/var are local-only state,
    like TensorFlow's non-trainable variables.

    The running statistics are updated **in place** during training
    forward passes, so the arrays keep their identity (checkpoint
    restore copies into them).
    """

    def __init__(self, dim: int, *, momentum: float = 0.9, eps: float = 1e-5):
        super().__init__()
        if dim <= 0:
            raise ValueError("dim must be positive")
        if not 0.0 < momentum < 1.0:
            raise ValueError("momentum must be in (0,1)")
        self.dim = dim
        self.momentum = momentum
        self.eps = eps
        self.params = {"gamma": ones((dim,)), "beta": zeros((dim,))}
        self.running_mean = np.zeros(dim, dtype=np.float32)
        self.running_var = np.ones(dim, dtype=np.float32)
        self._cache: tuple | None = None

    @staticmethod
    def _axes(x: np.ndarray) -> tuple[int, ...]:
        if x.ndim == 2:
            return (0,)
        if x.ndim == 4:
            return (0, 2, 3)
        raise ValueError(f"BatchNorm supports 2-D or 4-D inputs, got {x.ndim}-D")

    def _bshape(self, x: np.ndarray) -> tuple[int, ...]:
        return (1, self.dim) if x.ndim == 2 else (1, self.dim, 1, 1)

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        axes = self._axes(x)
        bs = self._bshape(x)
        gamma = self.params["gamma"].reshape(bs)
        beta = self.params["beta"].reshape(bs)
        if training:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            m = self.momentum
            self.running_mean *= m
            self.running_mean += (1 - m) * mean.astype(np.float32)
            self.running_var *= m
            self.running_var += (1 - m) * var.astype(np.float32)
            inv_std = 1.0 / np.sqrt(var + self.eps)
            xhat = x - mean.reshape(bs)
            xhat *= inv_std.reshape(bs)
            self._cache = (xhat, inv_std, axes, bs)
            out = gamma * xhat
            out += beta
            return out
        inv_std = 1.0 / np.sqrt(self.running_var + self.eps)
        out = x - self.running_mean.reshape(bs)
        out *= inv_std.reshape(bs)
        out *= gamma
        out += beta
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called without a training forward pass")
        xhat, inv_std, axes, bs = self._cache
        self.grads["gamma"] = (dout * xhat).sum(axis=axes)
        self.grads["beta"] = dout.sum(axis=axes)
        dxhat = dout * self.params["gamma"].reshape(bs)
        # Standard batch-norm backward.
        return (
            dxhat
            - dxhat.mean(axis=axes).reshape(bs)
            - xhat * (dxhat * xhat).mean(axis=axes).reshape(bs)
        ) * inv_std.reshape(bs)
