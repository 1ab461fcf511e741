"""Fully-connected layer."""

from __future__ import annotations

import numpy as np

from repro.nn.initializers import glorot_uniform, he_normal, zeros
from repro.nn.layers.base import Layer

__all__ = ["Dense"]


class Dense(Layer):
    """Affine layer ``y = x @ W + b`` for 2-D inputs ``(batch, in_dim)``."""

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        rng: np.random.Generator,
        *,
        init: str = "he",
    ):
        super().__init__()
        if in_dim <= 0 or out_dim <= 0:
            raise ValueError("dense dims must be positive")
        if init == "he":
            w = he_normal(rng, (in_dim, out_dim), fan_in=in_dim)
        elif init == "glorot":
            w = glorot_uniform(rng, (in_dim, out_dim), fan_in=in_dim, fan_out=out_dim)
        else:
            raise ValueError(f"unknown init {init!r}")
        self.params = {"W": w, "b": zeros((out_dim,))}
        self.in_dim = in_dim
        self.out_dim = out_dim
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ValueError(f"Dense expected (batch,{self.in_dim}), got {x.shape}")
        self._x = x if training else None
        out = x @ self.params["W"]
        out += self.params["b"]
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called without a training forward pass")
        self.grads["W"] = self._x.T @ dout
        self.grads["b"] = dout.sum(axis=0)
        return dout @ self.params["W"].T
