"""The float32 numerics budget: the training and inference paths against a
float64 shadow at real shapes.

One desk train step per head at init, and `predict_masses` on one
full-scale 32^3 window, run in float32 and again with the same parameters
and batch cast to float64. Errors are relative, ||x32 - x64|| / ||x64||.
Float32 error grows with the number of terms summed, and a bias gradient
sums over every voxel, so the bounds come from measurement, not from a
formula: each is about 10x the value measured when it was set, which is
given beside it. A change that moves float32 numerics reports its own
values against these bounds.
"""

import numpy as np
import pytest

from evidseg import objectives as obj
from evidseg.backbone_unet import FULL_CHANNELS, BackboneConfig
from evidseg.seeding import derive_seed
from evidseg.trainer import Model, TrainConfig, prepare_case
from evidseg.volume_io import generate_phantom

# head -> (loss bound, bound on every tensor's gradient error)
STEP_BOUNDS = {
    "evidential": (1e-7, 5e-5),  # measured 9.4e-9; 4.5e-6 (es.membership_logits)
    "softmax": (2e-7, 5e-6),     # measured 2.0e-8; 5.3e-7 (head.w)
}
PREDICT_BOUND = 3e-6  # measured 3.0e-7


def rel_error(got, ref):
    return float(np.linalg.norm(got.astype(np.float64) - ref)
                 / np.linalg.norm(ref))


def in_float64(model):
    return Model(model.backbone_config, model.head,
                 {k: v.astype(np.float64) for k, v in model.params.items()})


@pytest.fixture(scope="module")
def batch():
    """Two 32^3 phantoms as `evidseg phantom` makes its first two cases."""
    cases = [prepare_case(generate_phantom(derive_seed(0, f"case:{i}"),
                                           (32, 32, 32), (1, 3)))
             for i in range(2)]
    return np.stack([x for x, _ in cases]), np.stack([g for _, g in cases])


def train_step(model, x, g):
    """(loss, gradient per parameter) of one step at `model`'s dtype."""
    out, leaves = model.forward(x, trainable=True)
    total, _ = obj.total_loss(out, g, leaves.get("es.alpha_logits"),
                              lam=TrainConfig().lam)
    total.backward()
    return float(total.data), {k: t.grad for k, t in leaves.items()}


@pytest.mark.parametrize("head", sorted(STEP_BOUNDS))
def test_train_step_float32_within_budget(batch, head):
    x, g = batch
    model = Model.create(BackboneConfig(), head, TrainConfig(), 0)
    loss32, grads32 = train_step(model, x, g)
    loss64, grads64 = train_step(in_float64(model), x.astype(np.float64),
                                 g.astype(np.float64))
    loss_bound, grad_bound = STEP_BOUNDS[head]
    assert abs(loss32 - loss64) / abs(loss64) <= loss_bound
    assert set(grads32) == set(grads64) == set(model.params)
    errors = {k: rel_error(grads32[k], grads64[k]) for k in grads64}
    worst = max(errors, key=errors.get)
    assert errors[worst] <= grad_bound, (worst, errors[worst])


def test_predict_masses_float32_within_budget(batch):
    x = batch[0][:1]
    model = Model.create(BackboneConfig(channels=FULL_CHANNELS),
                         "evidential", TrainConfig(), 0)
    masses32 = model.predict_masses(x)
    masses64 = in_float64(model).predict_masses(x.astype(np.float64))
    assert masses32.dtype == np.float32
    assert rel_error(masses32, masses64) <= PREDICT_BOUND
