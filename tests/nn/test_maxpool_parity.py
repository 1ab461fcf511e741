"""``MaxPool2D`` against the frozen reshape + reduce reference.

The production layer folds the window's strided taps with ``np.maximum``
and routes gradients with compare masks; the reference
(``tests/oracles/maxpool_ref.py``) reduces a reshaped view and routes
with ``argmax``. Inputs are integer-valued so windows are full of ties,
carry both signed zeros, and (after a ReLU) whole windows of zeros.

- Forward output is byte-identical at size 2, and equal under ``==`` at
  size 3 (there the sign of a zero max may differ).
- Gradients are byte- and dtype-identical at every size, NaN windows
  included: ``argmax`` sends those to the window's first NaN.
- A whole Cipher CNN gives the same loss and gradient bytes with either
  pool, so the pool/ReLU/conv backward interplay is pinned too.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn.layers import MaxPool2D, ReLU
from repro.nn.models import build_model
from tests.oracles.maxpool_ref import MaxPool2DRef

VALUES = [-2.0, -1.0, -0.0, 0.0, 1.0, 2.0]
DTYPES = [np.float32, np.float64]


@st.composite
def pool_case(draw, sizes=(2, 3), nan=False):
    """(size, x, dout): a pooling input and an upstream gradient."""
    s = draw(st.sampled_from(sizes))
    shape = (
        draw(st.integers(1, 3)),
        draw(st.integers(1, 3)),
        s * draw(st.integers(1, 4)),
        s * draw(st.integers(1, 4)),
    )
    values = VALUES + [np.nan] if nan else VALUES
    x = draw(hnp.arrays(draw(st.sampled_from(DTYPES)), shape,
                        elements=st.sampled_from(values)))
    if draw(st.booleans()):
        x = ReLU().forward(x, training=False)
    out_shape = shape[:2] + (shape[2] // s, shape[3] // s)
    # Negative upstream values make unrouted elements -0.0 (0 * -g);
    # the routing must reproduce those bytes too.
    dout = draw(hnp.arrays(draw(st.sampled_from(DTYPES)), out_shape,
                           elements=st.sampled_from([-1.5, -0.0, 0.0, 0.25, 3.0])))
    return s, x, dout


def run_both(s, x, dout):
    """Forward (training) and backward through both layers."""
    new, ref = MaxPool2D(s), MaxPool2DRef(s)
    out_new = new.forward(x, training=True)
    out_ref = ref.forward(x, training=True)
    return out_new, out_ref, new.backward(dout), ref.backward(dout)


def assert_same_bytes(a, b):
    assert a.dtype == b.dtype
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@given(case=pool_case(sizes=(2,)))
@settings(max_examples=300, deadline=None)
def test_forward_bytes_match_at_size_2(case):
    s, x, _ = case
    assert_same_bytes(MaxPool2D(s).forward(x, training=False),
                      MaxPool2DRef(s).forward(x, training=False))


@given(case=pool_case(sizes=(3,)))
@settings(max_examples=300, deadline=None)
def test_forward_values_match_at_size_3(case):
    s, x, _ = case
    out_new = MaxPool2D(s).forward(x, training=False)
    out_ref = MaxPool2DRef(s).forward(x, training=False)
    assert out_new.dtype == out_ref.dtype
    np.testing.assert_array_equal(out_new, out_ref)


@given(case=pool_case())
@settings(max_examples=300, deadline=None)
def test_gradient_bytes_match(case):
    out_new, out_ref, dx_new, dx_ref = run_both(*case)
    np.testing.assert_array_equal(out_new, out_ref)
    assert_same_bytes(dx_new, dx_ref)


@given(case=pool_case(nan=True))
@settings(max_examples=300, deadline=None)
def test_nan_windows_route_like_argmax(case):
    out_new, out_ref, dx_new, dx_ref = run_both(*case)
    np.testing.assert_array_equal(out_new, out_ref)  # NaN == NaN here
    assert_same_bytes(dx_new, dx_ref)


@pytest.mark.parametrize("size", [2, 3])
def test_nan_window_gradient_goes_to_first_nan(size):
    x = np.zeros((1, 1, size, size))
    x[0, 0, 0, 0] = 5.0
    x[0, 0, 0, 1] = np.nan
    x[0, 0, 1, 0] = np.nan
    layer = MaxPool2D(size)
    assert np.isnan(layer.forward(x, training=True)).all()
    dx = layer.backward(np.full((1, 1, 1, 1), 7.0))
    expected = np.zeros_like(x)
    expected[0, 0, 0, 1] = 7.0
    assert_same_bytes(dx, expected)


@pytest.mark.parametrize("batch", [31, 32, 33])
def test_cipher_cnn_matches_with_reference_pool(batch):
    def model_with(pool_cls):
        model = build_model("cipher", np.random.default_rng(3), image_size=8,
                            kernels=(3, 4, 5), hidden=16)
        model.layers = [
            pool_cls(layer.size) if isinstance(layer, MaxPool2D) else layer
            for layer in model.layers
        ]
        return model

    new, ref = model_with(MaxPool2D), model_with(MaxPool2DRef)
    assert sum(isinstance(layer, MaxPool2DRef) for layer in ref.layers) == 2
    rng = np.random.default_rng(batch)
    # Flat 4x4 blocks make neighbouring conv outputs equal, so the pools
    # see ties above zero that survive the ReLU backward.
    blocks = rng.integers(0, 4, size=(batch, 1, 2, 2)) / 4
    x = blocks.repeat(4, axis=2).repeat(4, axis=3).astype(np.float32)
    y = rng.integers(0, 10, size=batch)
    for _ in range(3):
        loss_new, grads_new = new.loss_and_grads(x, y)
        loss_ref, grads_ref = ref.loss_and_grads(x, y)
        assert np.float64(loss_new).tobytes() == np.float64(loss_ref).tobytes()
        assert grads_new.keys() == grads_ref.keys()
        for name in grads_new:
            assert_same_bytes(grads_new[name], grads_ref[name])
        new.apply_grads(grads_new, lr=0.05)
        ref.apply_grads(grads_ref, lr=0.05)
    assert new.evaluate(x, y) == ref.evaluate(x, y)
