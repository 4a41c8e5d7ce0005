"""Feature extractor: initialization, shape contract, skip connections."""

import numpy as np
import pytest

from evidseg.backbone_unet import (BackboneConfig, FULL_CHANNELS,
                                   forward_features, init_backbone)
from evidseg.tensor_core import Graph, Tensor


class TestConfig:
    def test_channels_must_increase(self):
        with pytest.raises(ValueError):
            BackboneConfig(channels=(8, 8))

    @pytest.mark.parametrize("channels", [(2.5, 4), (True, 4), (2, "4")])
    def test_non_integer_channels_rejected(self, channels):
        with pytest.raises(ValueError, match="channels"):
            BackboneConfig(channels=channels)

    def test_numpy_integer_channels_accepted(self):
        config = BackboneConfig(channels=np.array([2, 4]))
        assert config.channels == (2, 4)
        assert all(type(c) is int for c in config.channels)

    def test_needs_two_levels(self):
        with pytest.raises(ValueError):
            BackboneConfig(channels=(8,))

    def test_check_dims_reports_required_padding(self):
        config = BackboneConfig(channels=(4, 8, 16))  # needs multiples of 4
        with pytest.raises(ValueError, match=r"\+2"):
            config.check_dims((16, 16, 18))


class TestInit:
    def test_determinism(self):
        config = BackboneConfig(channels=(4, 8))
        a = init_backbone(config, 42)
        b = init_backbone(config, 42)
        assert a.keys() == b.keys()
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])

    def test_level0_weight_count(self):
        params = init_backbone(BackboneConfig(channels=(4, 8)), 0)
        assert params["enc0.conv0.w"].shape == (4, 2, 3, 3, 3)
        assert params["enc0.conv0.w"].size == 216

    def test_biases_are_zero(self):
        params = init_backbone(BackboneConfig(channels=(4, 8)), 0)
        for name, v in params.items():
            if name.endswith(".b"):
                assert not v.any()


class TestForward:
    def test_output_shape_two_levels(self):
        config = BackboneConfig(channels=(4, 8))
        params = init_backbone(config, 0)
        x = Tensor(np.random.default_rng(0).standard_normal((1, 2, 16, 16, 16)))
        out = forward_features(params, x, config)
        assert out.shape == (1, 4, 16, 16, 16)

    def test_zero_input_zero_biases_zero_features(self):
        config = BackboneConfig(channels=(4, 8))
        params = init_backbone(config, 1)
        out = forward_features(params, Tensor(np.zeros((1, 2, 8, 8, 8))),
                               config)
        assert not out.data.any()

    def test_full_scale_channel_plan(self):
        config = BackboneConfig(channels=FULL_CHANNELS)
        params = init_backbone(config, 0, dtype=np.float32)
        x = Tensor(np.random.default_rng(0)
                   .standard_normal((1, 2, 32, 32, 32)).astype(np.float32))
        out = forward_features(params, x, config)
        assert out.shape == (1, 8, 32, 32, 32)

    @pytest.mark.parametrize("dims", [(8, 8, 8), (8, 16, 8), (16, 8, 24)])
    def test_spatial_dims_preserved(self, dims):
        config = BackboneConfig(channels=(2, 4))
        params = init_backbone(config, 0)
        x = Tensor(np.random.default_rng(0).standard_normal((1, 2) + dims))
        assert forward_features(params, x, config).shape == (1, 2) + dims

    def test_indivisible_dims_rejected(self):
        config = BackboneConfig(channels=(2, 4))
        params = init_backbone(config, 0)
        with pytest.raises(ValueError, match="divisible"):
            forward_features(params, Tensor(np.zeros((1, 2, 7, 8, 8))),
                             config)

    def test_skip_connections_load_bearing(self):
        # with the decoder up-path zeroed, the output must still depend on
        # the level-0 encoder via the concatenated skip
        config = BackboneConfig(channels=(2, 4))
        params = init_backbone(config, 3)
        for name in params:
            if name.startswith("dec0.up"):
                params[name] = np.zeros_like(params[name])
        x = Tensor(np.random.default_rng(3).standard_normal((1, 2, 8, 8, 8)))

        def build(lv):
            return forward_features(lv, x, config).sum()

        g = Graph(build, params)
        g.forward_eval()
        grad = g.backward_gradients()["enc0.conv0.w"]
        assert np.abs(grad).max() > 0.0

