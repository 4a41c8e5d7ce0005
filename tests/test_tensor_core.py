"""Autodiff engine: forward values, backward gradients, FD harness."""

import numpy as np
import pytest

from evidseg.gradcheck import finite_difference_check
from evidseg.tensor_core import (Graph, Tensor, TensorError, concat, conv3d,
                                 maxpool3d, upsample_nearest3d)


def scalar_graph(build, leaves, inputs=None):
    g = Graph(build, leaves)
    value = g.forward_eval(inputs or {})
    return g, value


class TestForwardEval:
    def test_sum_of_zeros(self):
        _, value = scalar_graph(lambda lv, iv: lv["x"].sum(),
                                {"x": np.zeros((2, 2))})
        assert value == 0.0

    def test_sum_of_squares(self):
        _, value = scalar_graph(lambda lv, iv: (lv["x"] * lv["x"]).sum(),
                                {"x": np.array([1.0, 2.0, 3.0])})
        assert value == 14.0

    def test_identity_scalar(self):
        _, value = scalar_graph(lambda lv, iv: lv["x"].reshape(),
                                {"x": np.array(7.5)})
        assert value == 7.5

    def test_shape_mismatch_raises(self):
        with pytest.raises((TensorError, ValueError)):
            scalar_graph(lambda lv, iv: (lv["a"] @ lv["b"]).sum(),
                         {"a": np.ones((2, 3)), "b": np.ones((2, 3))})

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_intermediate_reported(self):
        g = Graph(lambda lv, iv: lv["x"].log().sum(),
                  {"x": np.array([1.0, -1.0])})
        with pytest.raises(ArithmeticError, match="log"):
            g.forward_eval({})


class TestBackwardGradients:
    def test_sum_of_squares_gradient(self):
        g, _ = scalar_graph(lambda lv, iv: (lv["x"] * lv["x"]).sum(),
                            {"x": np.array([1.0, 2.0, 3.0])})
        grads = g.backward_gradients()
        np.testing.assert_allclose(grads["x"], [2.0, 4.0, 6.0])

    def test_linear_map_gradient_is_ones(self):
        g, _ = scalar_graph(lambda lv, iv: lv["x"].sum(),
                            {"x": np.ones((3, 4, 2))})
        np.testing.assert_array_equal(g.backward_gradients()["x"],
                                      np.ones((3, 4, 2)))

    def test_unreached_leaf_gets_zero_gradient(self):
        g, _ = scalar_graph(lambda lv, iv: lv["x"].sum(),
                            {"x": np.ones(3), "y": np.ones(5)})
        grads = g.backward_gradients()
        np.testing.assert_array_equal(grads["y"], np.zeros(5))

    def test_gradient_shapes_match_leaves(self):
        rng = np.random.default_rng(0)
        leaves = {"w": rng.standard_normal((4, 3)),
                  "b": rng.standard_normal(3)}
        g, _ = scalar_graph(
            lambda lv, iv: ((iv["x"] @ lv["w"] + lv["b"]).sigmoid()).sum(),
            leaves, {"x": rng.standard_normal((5, 4))})
        grads = g.backward_gradients()
        for name, leaf in leaves.items():
            assert grads[name].shape == leaf.shape

    def test_linearity_of_backward(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(6)
        a, b = 2.5, -1.25

        def grad_of(build):
            g, _ = scalar_graph(build, {"x": x.copy()})
            return g.backward_gradients()["x"]

        gf = grad_of(lambda lv, iv: (lv["x"] ** 2).sum())
        gg = grad_of(lambda lv, iv: lv["x"].sigmoid().sum())
        gc = grad_of(lambda lv, iv: a * (lv["x"] ** 2).sum()
                     + b * lv["x"].sigmoid().sum())
        np.testing.assert_allclose(gc, a * gf + b * gg, atol=1e-12)

    def test_replay_is_bit_reproducible(self):
        rng = np.random.default_rng(2)
        g = Graph(lambda lv, iv: (lv["x"].sigmoid() * lv["x"]).sum(),
                  {"x": rng.standard_normal((3, 3))})
        v1 = g.forward_eval({})
        g1 = g.backward_gradients()["x"].copy()
        v2 = g.forward_eval({})
        g2 = g.backward_gradients()["x"]
        assert v1 == v2
        np.testing.assert_array_equal(g1, g2)


class TestStructuredOps:
    def test_conv3d_matches_direct_convolution(self):
        # independent recomputation of one output voxel by explicit summation
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 2, 4, 4, 4))
        w = rng.standard_normal((3, 2, 3, 3, 3))
        b = rng.standard_normal(3)
        out = conv3d(Tensor(x), Tensor(w), Tensor(b)).data
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1), (1, 1)))
        expected = (xp[0, :, 1:4, 1:4, 1:4] * w[1]).sum() + b[1]
        np.testing.assert_allclose(out[0, 1, 1, 1, 1], expected, rtol=1e-10)

    def test_maxpool_halves_dims_and_takes_maxima(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((1, 2, 4, 6, 8))
        out = maxpool3d(Tensor(x)).data
        assert out.shape == (1, 2, 2, 3, 4)
        blocks = x.reshape(1, 2, 2, 2, 3, 2, 4, 2)
        np.testing.assert_array_equal(out, blocks.max(axis=(3, 5, 7)))

    def test_upsample_repeats_blocks(self):
        x = np.arange(8.0).reshape(1, 1, 2, 2, 2)
        out = upsample_nearest3d(Tensor(x)).data
        assert out.shape == (1, 1, 4, 4, 4)
        np.testing.assert_array_equal(out[0, 0, :2, :2, :2], x[0, 0, 0, 0, 0])

    @pytest.mark.parametrize("index", [
        (slice(None), 2), 1, (Ellipsis, 0), (0, slice(1, None), Ellipsis),
        (slice(None), slice(None, None, -1), 1)])
    def test_getitem_matches_numpy(self, index):
        x = np.arange(2.0 * 3 * 4).reshape(2, 3, 4)
        np.testing.assert_array_equal(Tensor(x)[index].data, x[index])

    @pytest.mark.parametrize("index", [[0, 0], np.array([1]), None])
    def test_getitem_rejects_other_indices(self, index):
        with pytest.raises(TensorError, match="index"):
            Tensor(np.zeros((2, 3)))[index]

    def test_concat_stacks_channels(self):
        a = np.ones((1, 2, 2, 2, 2))
        b = np.zeros((1, 3, 2, 2, 2))
        out = concat([Tensor(a), Tensor(b)], axis=1).data
        assert out.shape == (1, 5, 2, 2, 2)
        np.testing.assert_array_equal(out[:, :2], a)
        np.testing.assert_array_equal(out[:, 2:], b)


class TestFiniteDifferenceCheck:
    def test_sum_of_squares_passes(self):
        g = Graph(lambda lv, iv: (lv["x"] * lv["x"]).sum(),
                  {"x": np.array([1.0, 2.0, 3.0])})
        report = finite_difference_check(g, "x", step=1e-3, tol=1e-4)
        assert report.passed
        assert report.max_error <= 1e-4

    @pytest.mark.parametrize("index", [(slice(None), 2), (Ellipsis, 1),
                                       (0, slice(0, 3, 2))])
    def test_getitem_gradient_passes(self, index):
        rng = np.random.default_rng(5)

        def build(lv, iv):
            # x[0] overlaps every index, so gradients from two slices add up
            x = lv["x"]
            return (x[index].sigmoid() * x[index]).sum() + x[0].exp().sum()

        g = Graph(build, {"x": rng.standard_normal((2, 3, 4))})
        report = finite_difference_check(g, "x")
        assert report.passed and report.checked == 24

    def test_constant_loss_passes(self):
        g = Graph(lambda lv, iv: (lv["x"] * 0.0).sum(), {"x": np.ones(4)})
        report = finite_difference_check(g, "x")
        assert report.passed

    def test_corrupted_gradient_fails(self):
        class Corrupted(Graph):
            def backward_gradients(self):
                grads = super().backward_gradients()
                grads["x"] = grads["x"].copy()
                grads["x"][0] += 1.0
                return grads

        g = Corrupted(lambda lv, iv: (lv["x"] * lv["x"]).sum(),
                      {"x": np.array([1.0, 2.0, 3.0])})
        report = finite_difference_check(g, "x")
        assert not report.passed

    def test_requires_float64(self):
        g = Graph(lambda lv, iv: lv["x"].sum(), {"x": np.ones(2)},
                  dtype=np.float32)
        with pytest.raises(TensorError):
            finite_difference_check(g, "x")

    def test_rejects_nonpositive_step(self):
        g = Graph(lambda lv, iv: lv["x"].sum(), {"x": np.ones(2)})
        with pytest.raises(ValueError):
            finite_difference_check(g, "x", step=0.0)
