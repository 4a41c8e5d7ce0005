"""Autodiff engine: forward values, backward gradients, FD harness."""

import numpy as np
import pytest

from evidseg.gradcheck import STEP, finite_difference_check
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

    @pytest.mark.parametrize("op, expected", [
        (lambda x: x + x, lambda v: np.full_like(v, 2.0)),
        (lambda x: x * x, lambda v: 2.0 * v)])
    def test_leaf_feeding_both_operands(self, op, expected):
        # add hands one g to both parents; the first must be copied, or the
        # second accumulation would double the upstream gradient in place
        v = np.array([[1.0, -2.0, 3.0], [0.5, 4.0, -1.0]])
        x = Tensor(v.copy(), requires_grad=True)
        y = op(x)
        y.sum().backward()
        np.testing.assert_array_equal(x.grad, expected(v))
        np.testing.assert_array_equal(y.grad, np.ones_like(v))
        assert x.grad.flags.writeable and x.grad.dtype == v.dtype
        assert not np.shares_memory(x.grad, y.grad)
        assert not np.shares_memory(x.grad, x.data)

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
    @pytest.mark.parametrize("k", [1, 3])
    def test_conv3d_matches_direct_convolution(self, k):
        # independent recomputation of every output voxel by explicit
        # summation; the non-cubic batch catches mixed-up spatial axes and
        # samples bleeding into each other in the GEMM's N*X*Y*Z columns
        rng = np.random.default_rng(3)
        for shape in [(2, 2, 4, 4, 4), (2, 2, 3, 4, 5)]:
            x = rng.standard_normal(shape)
            w = rng.standard_normal((3, 2, k, k, k))
            b = rng.standard_normal(3)
            out = conv3d(Tensor(x), Tensor(w), Tensor(b)).data
            p = k // 2
            xp = np.pad(x, ((0, 0), (0, 0)) + ((p, p),) * 3)
            expected = np.empty((2, 3) + shape[2:])
            for n, o, i, j, l in np.ndindex(expected.shape):
                expected[n, o, i, j, l] = (
                    xp[n, :, i:i + k, j:j + k, l:l + k] * w[o]).sum() + b[o]
            np.testing.assert_allclose(out, expected, rtol=1e-10)

    @pytest.mark.parametrize("k", [1, 3])
    def test_conv3d_float32_keeps_dtype_and_layout(self, k):
        rng = np.random.default_rng(7)
        arrays = {"x": rng.standard_normal((2, 3, 3, 4, 5)),
                  "w": rng.standard_normal((4, 3, k, k, k)),
                  "b": rng.standard_normal(4)}
        g = rng.standard_normal((2, 4, 3, 4, 5))
        results = {}
        for dtype in (np.float64, np.float32):
            t = {name: Tensor(a.astype(dtype), requires_grad=True)
                 for name, a in arrays.items()}
            out = conv3d(t["x"], t["w"], t["b"])
            (out * Tensor(g.astype(dtype))).sum().backward()
            results[dtype] = (out.data, t["x"].grad, t["w"].grad)
        for r64, r32 in zip(results[np.float64], results[np.float32]):
            assert r32.dtype == np.float32 and r32.flags.c_contiguous
            np.testing.assert_allclose(r32, r64, rtol=1e-5,
                                       atol=1e-5 * np.abs(r64).max())

    def test_conv3d_rejects_channel_mismatch(self):
        x = Tensor(np.zeros((1, 2, 4, 4, 4)))
        w = Tensor(np.zeros((3, 4, 3, 3, 3)))
        with pytest.raises(TensorError, match="channel mismatch"):
            conv3d(x, w, Tensor(np.zeros(3)))

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

    @pytest.mark.parametrize("k", [1, 3])
    def test_conv3d_gradient_passes(self, k):
        rng = np.random.default_rng(6)
        for shape in [(2, 2, 4, 4, 4), (2, 2, 3, 4, 5)]:
            leaves = {"x": rng.standard_normal(shape),
                      "w": 0.3 * rng.standard_normal((3, 2, k, k, k)),
                      "b": rng.standard_normal(3)}
            build = lambda lv, iv: conv3d(lv["x"], lv["w"],
                                          lv["b"]).sigmoid().sum()
            g = Graph(build, leaves)
            for leaf, value in leaves.items():
                report = finite_difference_check(g, leaf)
                assert report.passed and report.checked == value.size

    def test_relu_kink_element_skipped(self):
        # x[2] lies within STEP of 0, so x[2] - STEP turns its relu off: the
        # central difference there would read 1.5 against the gradient 3
        x = np.array([0.5, -0.7, 0.5 * STEP, 1.2, -0.3])
        g = Graph(lambda lv, iv: (lv["x"].relu() * 3.0).sum(), {"x": x})
        report = finite_difference_check(g, "x")
        assert report.skipped_at_kink == 1 and report.checked == 4
        assert report.passed

    def test_maxpool_near_tie_skips_both_entries(self):
        # the window's two largest entries lie within STEP of each other,
        # so moving either by STEP swaps the argmax; the other six do not
        x = np.linspace(-0.5, 0.5, 8).reshape(1, 1, 2, 2, 2)
        x[0, 0, 0, 0, 0], x[0, 0, 1, 1, 1] = 0.9, 0.9 + 0.5 * STEP
        g = Graph(lambda lv, iv: (maxpool3d(lv["x"]) * 2.0).sum(), {"x": x})
        report = finite_difference_check(g, "x")
        assert report.skipped_at_kink == 2 and report.checked == 6
        assert report.passed

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
