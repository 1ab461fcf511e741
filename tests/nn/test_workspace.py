"""Update-step buffers and dtype discipline of the NN path.

The optimizer writes its update through cached weight-shaped scratch
arrays; these tests check it against the textbook allocating formulas,
bit for bit, and pin that the paper's workloads train in float32
end to end.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.models import build_model
from repro.nn.optim import SGD


class TestSgdInPlaceParity:
    """The buffered optimizer vs the textbook allocating update rules."""

    @pytest.mark.parametrize(
        "momentum,weight_decay,clip_norm",
        [
            (0.0, 0.0, None),
            (0.9, 0.0, None),
            (0.9, 1e-3, None),
            (0.9, 0.0, 0.01),
            (0.5, 1e-2, 0.05),
        ],
    )
    def test_matches_allocating_formula(self, momentum, weight_decay, clip_norm):
        def fresh_model():
            return build_model(
                "mlp", np.random.default_rng(3), in_dim=20, hidden=(9,)
            )

        rng = np.random.default_rng(4)
        xb = rng.standard_normal(size=(8, 20)).astype(np.float32)
        yb = rng.integers(0, 10, size=8)
        lr = 0.1

        model = fresh_model()
        opt = SGD(
            model,
            lr=lr,
            momentum=momentum,
            weight_decay=weight_decay,
            clip_norm=clip_norm,
        )
        ref = fresh_model()
        ref_vel = {n: np.zeros_like(v) for n, v in ref.variables().items()}

        for _ in range(4):
            _, grads = model.loss_and_grads(xb, yb)
            opt.step(grads)

            _, ref_grads = ref.loss_and_grads(xb, yb)
            ref_grads = {n: g.copy() for n, g in ref_grads.items()}
            if clip_norm is not None:
                norm = SGD.global_norm(ref_grads)
                if norm > clip_norm and norm != 0.0:
                    scale = clip_norm / norm
                    ref_grads = {n: g * scale for n, g in ref_grads.items()}
            variables = ref.variables()
            if weight_decay > 0.0:
                for v in variables.values():
                    v *= 1.0 - lr * weight_decay
            for name, g in ref_grads.items():
                if momentum > 0.0:
                    v = ref_vel[name] * momentum + g
                    ref_vel[name] = v
                else:
                    v = g
                np.subtract(variables[name], v * lr, out=variables[name])

        for name in ref.variable_names:
            np.testing.assert_array_equal(
                model.get_variable(name), ref.get_variable(name)
            )


class TestFloat32Discipline:
    """The paper's workloads train end-to-end in float32: no silent
    float64 upcasts in parameters, activations, or gradients."""

    @pytest.mark.parametrize(
        "name,kwargs,x_shape",
        [
            ("mlp", {"in_dim": 48, "hidden": (16,)}, (4, 48)),
            ("cipher", {"image_size": 8, "kernels": (3, 4, 5), "hidden": 16}, (4, 1, 8, 8)),
            ("mobilenet", {"num_classes": 5, "blocks": ((8, 1), (16, 2))}, (4, 3, 16, 16)),
        ],
    )
    def test_zoo_models_stay_float32(self, name, kwargs, x_shape):
        rng = np.random.default_rng(2)
        model = build_model(name, rng, **kwargs)
        for vname, v in model.variables().items():
            assert v.dtype == np.float32, f"{vname} is {v.dtype}"
        x = rng.standard_normal(size=x_shape).astype(np.float32)
        y = rng.integers(0, 5, size=x_shape[0])
        logits = model.forward(x, training=False)
        assert logits.dtype == np.float32
        loss, grads = model.loss_and_grads(x, y)
        assert isinstance(loss, float)
        for gname, g in grads.items():
            assert g.dtype == np.float32, f"grad {gname} is {g.dtype}"
        model.apply_grads(grads, lr=0.1)
        for vname, v in model.variables().items():
            assert v.dtype == np.float32, f"{vname} upcast to {v.dtype} by update"
