"""The model container: a sequential net with *named weight variables*.

Named variables are the unit everything in DLion operates on — Max N is
applied per variable, messages carry (variable name, indices, values),
and weight exchange ships the full variable dict. This mirrors the
paper's §4.2: "The granularity of data transmission is not the whole
weight variables, but individual weight variables."
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from repro.nn.layers.base import Layer
from repro.nn.losses import softmax_cross_entropy
from repro.obs import profile as _profile

__all__ = ["Model"]

GradDict = dict[str, np.ndarray]


class Model:
    """A feed-forward stack of layers with a softmax classification head.

    Parameters are exposed as an ordered ``{variable_name: array}``
    mapping where names are ``"<idx>_<LayerType>/<param>"``; gradient
    dicts produced by :meth:`loss_and_grads` use the same keys.
    """

    def __init__(self, layers: Iterable[Layer]):
        self.layers: list[Layer] = list(layers)
        if not self.layers:
            raise ValueError("model needs at least one layer")
        self._var_index: dict[str, tuple[Layer, str]] = {}
        for i, layer in enumerate(self.layers):
            for pname in layer.params:
                self._var_index[f"{i:02d}_{layer.name}/{pname}"] = (layer, pname)
        # Update-step scratch (one buffer per variable shape/dtype) so
        # apply_grads never allocates the ``lr * coeff * g`` temporary.
        self._scratch: dict[tuple, np.ndarray] = {}

    def _scr(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        key = (shape, np.dtype(dtype))
        buf = self._scratch.get(key)
        if buf is None:
            buf = np.empty(shape, dtype=dtype)
            self._scratch[key] = buf
        return buf

    # ------------------------------------------------------------------
    # Variable access
    # ------------------------------------------------------------------
    @property
    def variable_names(self) -> list[str]:
        return list(self._var_index.keys())

    def get_variable(self, name: str) -> np.ndarray:
        """The live array behind one named weight variable."""
        layer, pname = self._var_index[name]
        return layer.params[pname]

    def variables(self) -> dict[str, np.ndarray]:
        """Live views of the parameters (not copies)."""
        return {name: layer.params[p] for name, (layer, p) in self._var_index.items()}

    def copy_weights(self) -> dict[str, np.ndarray]:
        """A deep copy of all parameters, e.g. for direct knowledge transfer."""
        return {n: v.copy() for n, v in self.variables().items()}

    def set_weights(self, weights: Mapping[str, np.ndarray]) -> None:
        """Overwrite parameters in place from a full weight dict."""
        if set(weights.keys()) != set(self._var_index.keys()):
            missing = set(self._var_index) ^ set(weights)
            raise KeyError(f"weight dict does not match model variables: {missing}")
        for name, value in weights.items():
            layer, pname = self._var_index[name]
            if layer.params[pname].shape != value.shape:
                raise ValueError(f"shape mismatch for {name}")
            layer.params[pname][...] = value

    def num_params(self) -> int:
        """Total trainable scalars across all variables."""
        return int(sum(v.size for v in self.variables().values()))

    def nbytes(self) -> int:
        """Total parameter payload in bytes (float32 wire format)."""
        return int(sum(v.size * 4 for v in self.variables().values()))

    # ------------------------------------------------------------------
    # Forward / backward
    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray, *, training: bool = False) -> np.ndarray:
        """Run the stack; returns the classification logits."""
        out = x
        for layer in self.layers:
            out = layer.forward(out, training)
        return out

    def loss_and_grads(
        self, x: np.ndarray, labels: np.ndarray
    ) -> tuple[float, GradDict]:
        """One training step's loss and per-variable gradients (Eq. 6)."""
        with _profile.scope("nn/loss_and_grads"):
            with _profile.scope("nn/forward"):
                logits = self.forward(x, training=True)
            loss, dlogits = softmax_cross_entropy(logits, labels)
            with _profile.scope("nn/backward"):
                dout = dlogits
                for layer in reversed(self.layers):
                    dout = layer.backward(dout)
            grads: GradDict = {}
            for name, (layer, pname) in self._var_index.items():
                grads[name] = layer.grads[pname]
            return loss, grads

    def apply_grads(
        self,
        grads: Mapping[str, np.ndarray],
        *,
        lr: float,
        coeff: float = 1.0,
    ) -> None:
        """In-place SGD step ``w -= lr * coeff * g`` for the given variables.

        ``grads`` may cover a subset of the variables (partial-gradient
        application). ``coeff`` carries the dynamic-batching weight and
        the ``1/n`` averaging factor of Eq. 7.
        """
        scale = lr * coeff
        for name, g in grads.items():
            layer, pname = self._var_index[name]
            w = layer.params[pname]
            if g.shape != w.shape:
                raise ValueError(f"gradient shape mismatch for {name}")
            # Allocation-free form of ``w -= scale * g``: the scaled
            # temporary keeps g's dtype (matching the historical
            # expression bit for bit) and lives in a cached scratch.
            dtype = g.dtype if g.dtype.kind == "f" else np.result_type(g.dtype, np.float64)
            s = self._scr(g.shape, dtype)
            np.multiply(g, scale, out=s)
            np.subtract(w, s, out=w)

    def apply_sparse_grads(
        self,
        sparse: Mapping[str, tuple[np.ndarray, np.ndarray]],
        *,
        lr: float,
        coeff: float = 1.0,
    ) -> None:
        """Apply (flat indices, values) sparse gradients per variable."""
        for name, (idx, vals) in sparse.items():
            layer, pname = self._var_index[name]
            w = layer.params[pname]
            flat = w.reshape(-1)
            np.subtract.at(flat, idx, (lr * coeff) * vals)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(
        self, x: np.ndarray, labels: np.ndarray, *, batch: int = 256
    ) -> tuple[float, float]:
        """Return (mean loss, accuracy) over a dataset, batched."""
        n = x.shape[0]
        if n == 0:
            raise ValueError("empty evaluation set")
        with _profile.scope("nn/evaluate"):
            total_loss = 0.0
            correct = 0
            for start in range(0, n, batch):
                xb = x[start:start + batch]
                yb = labels[start:start + batch]
                logits = self.forward(xb, training=False)
                loss, _ = softmax_cross_entropy(logits, yb)
                total_loss += loss * xb.shape[0]
                correct += int((logits.argmax(axis=1) == yb).sum())
            return total_loss / n, correct / n

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def save_weights(self, path: str) -> None:
        """Write all weight variables to an ``.npz`` checkpoint."""
        np.savez(path, **self.variables())

    def load_weights(self, path: str) -> None:
        """Load a checkpoint written by :meth:`save_weights`.

        The checkpoint must cover exactly this model's variables.
        """
        with np.load(path) as data:
            self.set_weights({name: data[name] for name in data.files})

    def summary(self) -> str:
        """A human-readable listing of every variable and its shape."""
        lines = [f"Model: {len(self.layers)} layers, {self.num_params()} params "
                 f"({self.nbytes() / 1e6:.2f} MB)"]
        for name in self.variable_names:
            v = self.get_variable(name)
            lines.append(f"  {name:40s} {str(v.shape):18s} {v.size}")
        return "\n".join(lines)
