"""A training step leaves no shape-keyed buffers behind.

Dynamic batching hands each worker a new local batch size whenever the
measured compute power shifts, so the NN path sees a stream of batch
shapes. Any per-shape cache would keep one full set of im2col/GEMM
buffers alive for every size ever seen; this pins that memory retained
across steps does not grow with the number of distinct shapes.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np

from repro.nn.layers.conv import Conv2D
from repro.nn.models import build_model

BATCHES = (31, 32, 33)


def test_varying_batch_sizes_retain_no_buffers():
    rng = np.random.default_rng(0)
    model = build_model(
        "cipher", rng, image_size=8, kernels=(3, 4, 5), hidden=16
    )
    x_eval = rng.standard_normal(size=(40, 1, 8, 8)).astype(np.float32)
    y_eval = rng.integers(0, 10, size=40)
    batches = {
        b: (
            rng.standard_normal(size=(b, 1, 8, 8)).astype(np.float32),
            rng.integers(0, 10, size=b),
        )
        for b in BATCHES
    }

    def cycle():
        for xb, yb in batches.values():
            _, grads = model.loss_and_grads(xb, yb)
            model.apply_grads(grads, lr=0.01)
        model.evaluate(x_eval, y_eval)

    # One im2col column matrix of the first conv at the smallest batch:
    # (N * H * W, C_in * k * k) float32.
    conv = next(layer for layer in model.layers if isinstance(layer, Conv2D))
    im2col_bytes = min(BATCHES) * 8 * 8 * conv.in_c * conv.k * conv.k * 4

    # Warm up on another shape so weight-shaped state (gradients, the
    # update scratch) exists before the baseline is taken.
    model.loss_and_grads(x_eval[:7], y_eval[:7])
    model.evaluate(x_eval[:7], y_eval[:7])
    gc.collect()
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        for _ in range(2):
            cycle()
            gc.collect()
            current, _ = tracemalloc.get_traced_memory()
            assert current - base < im2col_bytes, (
                f"retained {current - base} bytes after a cycle of batch "
                f"sizes {BATCHES}; one im2col buffer is {im2col_bytes}"
            )
    finally:
        tracemalloc.stop()
