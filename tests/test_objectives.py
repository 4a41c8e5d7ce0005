"""Training losses: soft Dice, uncertainty, regularization, decomposition."""

import numpy as np
import pytest

from evidseg.evidential_head import IGNORANCE, es_forward
from evidseg.objectives import (DICE_EPS, dice_loss, lesion_map, total_loss,
                                uncertainty_loss)
from evidseg.tensor_core import Tensor
from helpers import random_es_params


class TestDiceLoss:
    def test_perfect_overlap_near_zero(self):
        g = np.array([[1.0, 0.0, 1.0, 0.0]])
        assert float(dice_loss(g, g).data) < 1e-6

    def test_hand_value_one_third(self):
        s = np.array([[1.0, 0.0]])
        g = np.array([[1.0, 1.0]])
        np.testing.assert_allclose(float(dice_loss(s, g).data), 1.0 / 3.0,
                                   atol=1e-6)

    def test_empty_empty_is_zero(self):
        z = np.zeros((1, 8))
        assert float(dice_loss(z, z).data) == 0.0

    def test_total_miss_near_one(self):
        s = np.array([[1.0, 1.0, 0.0, 0.0]])
        g = np.array([[0.0, 0.0, 1.0, 1.0]])
        assert float(dice_loss(s, g).data) > 1.0 - 1e-5

    def test_symmetry_on_binary_maps(self):
        rng = np.random.default_rng(0)
        s = (rng.random((2, 16)) < 0.5).astype(float)
        g = (rng.random((2, 16)) < 0.5).astype(float)
        assert float(dice_loss(s, g).data) == pytest.approx(
            float(dice_loss(g, s).data), abs=1e-12)

    def test_correcting_a_voxel_strictly_improves(self):
        g = np.array([[1.0, 1.0, 0.0, 0.0]])
        wrong = np.array([[1.0, 0.0, 0.0, 0.0]])
        fixed = np.array([[1.0, 1.0, 0.0, 0.0]])
        assert float(dice_loss(fixed, g).data) < float(dice_loss(wrong, g).data)

    def test_batch_items_averaged(self):
        s = np.array([[1.0, 0.0], [1.0, 1.0]])
        g = np.array([[1.0, 1.0], [1.0, 1.0]])
        per_item = [1.0 / 3.0, 0.0]
        np.testing.assert_allclose(float(dice_loss(s, g).data),
                                   np.mean(per_item), atol=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            dice_loss(np.zeros((1, 4)), np.zeros((1, 5)))

    def test_bounded_unit_interval(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            s = rng.uniform(0, 1, size=(2, 12))
            g = (rng.random((2, 12)) < 0.4).astype(float)
            v = float(dice_loss(s, g).data)
            assert 0.0 <= v <= 1.0


class TestUncertaintyLoss:
    def test_fully_committed_zero(self):
        assert float(uncertainty_loss(np.zeros(10)).data) == 0.0

    def test_fully_vacuous_one(self):
        assert float(uncertainty_loss(np.ones(10)).data) == 1.0

    def test_hand_value(self):
        v = float(uncertainty_loss(np.array([0.5, 0.3])).data)
        np.testing.assert_allclose(v, 0.17, atol=1e-12)

    def test_empty_map_rejected(self):
        with pytest.raises(ValueError):
            uncertainty_loss(np.zeros(0))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        m = rng.uniform(0, 1, 30)
        a = float(uncertainty_loss(m).data)
        b = float(uncertainty_loss(rng.permutation(m)).data)
        assert a == pytest.approx(b, abs=1e-12)

    def test_strictly_increasing_per_voxel(self):
        m = np.full(10, 0.4)
        base = float(uncertainty_loss(m).data)
        m2 = m.copy()
        m2[3] += 0.1
        assert float(uncertainty_loss(m2).data) > base


class TestTotalLoss:
    def random_mass_map(self, seed, n=1, d=2):
        rng = np.random.default_rng(seed)
        es = random_es_params(rng, prototypes=4, feature_dim=3)
        f = Tensor(rng.standard_normal((n, 3, d, d, d)))
        g = (rng.random((n, d, d, d)) < 0.4).astype(np.float64)
        return es_forward(f, es), g, es

    def test_decomposition_identity(self):
        masses, g, es = self.random_mass_map(0)
        total, br = total_loss(masses, g, es["es.alpha_logits"], lam=1e-3)
        assert list(br) == ["loss_d", "loss_u", "loss_reg", "total"]
        assert br["total"] == pytest.approx(
            br["loss_d"] + br["loss_u"] + br["loss_reg"], abs=1e-12)
        assert float(total.data) == pytest.approx(br["total"], abs=1e-12)

    def test_regularizer_hand_value(self):
        # 20 prototypes at alpha 0.5 with coefficient 1e-5: 20*0.5*1e-5
        masses, g, _ = self.random_mass_map(1)
        total, br = total_loss(masses, g, np.zeros(20), lam=1e-5)
        assert br["loss_reg"] == pytest.approx(1e-4, abs=1e-12)

    def test_zero_lambda_drops_regularizer(self):
        masses, g, es = self.random_mass_map(2)
        _, br = total_loss(masses, g, es["es.alpha_logits"], lam=0.0)
        assert br["loss_reg"] == 0.0

    def test_negative_lambda_rejected(self):
        masses, g, es = self.random_mass_map(3)
        with pytest.raises(ValueError):
            total_loss(masses, g, es["es.alpha_logits"], lam=-1.0)

    def test_breakdown_bounds(self):
        masses, g, es = self.random_mass_map(4)
        _, br = total_loss(masses, g, es["es.alpha_logits"], lam=1e-5)
        assert 0.0 <= br["loss_d"] <= 1.0
        assert 0.0 <= br["loss_u"] <= 1.0
        assert br["loss_reg"] >= 0.0


class TestSegmentationMaps:
    def test_channel_selection(self):
        rng = np.random.default_rng(6)
        masses = Tensor(rng.uniform(0, 1, size=(2, 3, 2, 2, 2)),
                        requires_grad=True)
        picked = masses[:, IGNORANCE]
        np.testing.assert_array_equal(picked.data, masses.data[:, IGNORANCE])
        (picked * 2.0).sum().backward()
        expected = np.zeros_like(masses.data)
        expected[:, IGNORANCE] = 2.0
        np.testing.assert_array_equal(masses.grad, expected)

    def test_pignistic_mode_uses_half_ignorance(self):
        rng = np.random.default_rng(7)
        masses = Tensor(rng.uniform(0, 1, size=(1, 3, 2, 2, 2)))
        expected = masses.data[:, 0] + 0.5 * masses.data[:, 2]
        np.testing.assert_allclose(lesion_map(masses).data,
                                   expected, atol=1e-12)

    def test_eps_constant(self):
        assert DICE_EPS == 1e-6
