"""Synthetic image-classification datasets and worker sharding.

The paper trains on CIFAR-10 and an ImageNet-100 subset; neither is
available offline, so we substitute seeded synthetic datasets with the
properties the experiments exercise (see DESIGN.md §2):

* **learnable class structure** — samples are class-conditional Gaussian
  latents pushed through a fixed random two-layer nonlinear map into
  pixel space, so a linear model underfits but a small CNN/MLP separates
  classes well;
* **diminishing returns with batch size** — gradient noise scales as
  1/sqrt(batch), so very large global batches remove the SGD noise that
  aids generalization-style behaviour within a fixed epoch budget
  (driving Fig. 5's early-doubling penalty);
* **shardable** — data is partitioned across workers like the paper's
  "train a model over partitioned training data".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SyntheticImageDataset", "Shard", "MinibatchSampler"]


@dataclass(frozen=True)
class Shard:
    """One worker's partition of the training set."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        if self.x.shape[0] != self.y.shape[0]:
            raise ValueError("x/y row counts differ")
        if self.x.shape[0] == 0:
            raise ValueError("empty shard")

    @property
    def size(self) -> int:
        return int(self.x.shape[0])


class SyntheticImageDataset:
    """Seeded synthetic dataset rendered as image tensors.

    Parameters
    ----------
    num_classes, train_size, test_size:
        Dataset shape. The "cifar-like" preset is 10 classes at
        ``(1, 24, 24)``; the "imagenet-like" preset is 100 classes at
        ``(3, 32, 32)``.
    image_shape:
        ``(channels, height, width)`` of the rendered tensors.
    latent_dim:
        Dimensionality of the class-prototype latent space.
    noise:
        Std-dev of the within-class latent noise; larger is harder.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        *,
        num_classes: int = 10,
        train_size: int = 6000,
        test_size: int = 1000,
        image_shape: tuple[int, int, int] = (1, 24, 24),
        latent_dim: int = 32,
        noise: float = 0.9,
    ):
        if num_classes < 2:
            raise ValueError("need at least two classes")
        if train_size < num_classes or test_size < num_classes:
            raise ValueError("dataset too small for the class count")
        self.num_classes = num_classes
        self.image_shape = image_shape
        self.latent_dim = latent_dim
        pixels = int(np.prod(image_shape))

        # Fixed random rendering map: latent -> hidden (tanh) -> pixels.
        hidden = max(latent_dim * 2, 48)
        self._proto = rng.normal(0.0, 1.0, size=(num_classes, latent_dim))
        self._w1 = rng.normal(0.0, 1.0 / np.sqrt(latent_dim), size=(latent_dim, hidden))
        self._w2 = rng.normal(0.0, 1.0 / np.sqrt(hidden), size=(hidden, pixels))
        self._noise = noise

        self.train_x, self.train_y = self._sample(rng, train_size)
        self.test_x, self.test_y = self._sample(rng, test_size)

    def _sample(
        self, rng: np.random.Generator, n: int
    ) -> tuple[np.ndarray, np.ndarray]:
        labels = rng.integers(0, self.num_classes, size=n)
        latents = self._proto[labels] + rng.normal(
            0.0, self._noise, size=(n, self.latent_dim)
        )
        h = np.tanh(latents @ self._w1)
        pixels = np.tanh(h @ self._w2)
        x = pixels.reshape((n, *self.image_shape)).astype(np.float32)
        return x, labels.astype(np.int64)

    @property
    def train_size(self) -> int:
        return int(self.train_x.shape[0])

    # ------------------------------------------------------------------
    # Sharding (paper §2.1: workers train over partitioned data)
    # ------------------------------------------------------------------
    def shards(self, n_workers: int, *, mode: str = "iid") -> list[Shard]:
        """Partition the training set across ``n_workers``.

        ``iid`` deals samples round-robin (every worker sees every
        class); ``contiguous`` slices the array in order, a mild non-IID
        split.
        """
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if n_workers > self.train_size:
            raise ValueError("more workers than training samples")
        if mode == "iid":
            return [
                Shard(self.train_x[w::n_workers], self.train_y[w::n_workers])
                for w in range(n_workers)
            ]
        if mode == "contiguous":
            bounds = np.linspace(0, self.train_size, n_workers + 1, dtype=int)
            return [
                Shard(self.train_x[a:b], self.train_y[a:b])
                for a, b in zip(bounds[:-1], bounds[1:])
            ]
        raise ValueError(f"unknown shard mode {mode!r}")

    # ------------------------------------------------------------------
    # Presets
    # ------------------------------------------------------------------
    @classmethod
    def cifar_like(
        cls,
        rng: np.random.Generator,
        *,
        train_size: int = 6000,
        test_size: int = 1000,
        noise: float = 0.9,
        num_classes: int = 10,
    ) -> "SyntheticImageDataset":
        """The CIFAR-10 stand-in: 10 classes, single-channel 24×24."""
        return cls(
            rng,
            num_classes=num_classes,
            train_size=train_size,
            test_size=test_size,
            image_shape=(1, 24, 24),
            noise=noise,
        )

    @classmethod
    def imagenet_like(
        cls,
        rng: np.random.Generator,
        *,
        train_size: int = 8000,
        test_size: int = 1500,
        noise: float = 0.7,
        num_classes: int = 100,
    ) -> "SyntheticImageDataset":
        """The ImageNet-100 stand-in: 100 classes, RGB 32×32."""
        return cls(
            rng,
            num_classes=num_classes,
            train_size=train_size,
            test_size=test_size,
            image_shape=(3, 32, 32),
            latent_dim=64,
            noise=noise,
        )


class MinibatchSampler:
    """Draws minibatches of a *variable* size from one worker's shard.

    DLion changes the local batch size at runtime, so the sampler takes
    the batch size per call rather than at construction. Sampling is
    with-replacement uniform — the behaviour of an infinite shuffled
    stream, which keeps epoch accounting simple under varying LBS.
    """

    def __init__(self, shard: Shard, rng: np.random.Generator):
        self.shard = shard
        self.rng = rng
        self.samples_drawn = 0

    def draw(self, batch_size: int) -> tuple[np.ndarray, np.ndarray]:
        """Sample a minibatch of the requested size from the shard."""
        if batch_size < 1:
            raise ValueError("batch size must be >= 1")
        idx = self.rng.integers(0, self.shard.size, size=batch_size)
        self.samples_drawn += batch_size
        return self.shard.x[idx], self.shard.y[idx]
