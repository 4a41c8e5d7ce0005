"""Autodiff engine: forward values, backward gradients, FD harness."""

import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from evidseg import objectives as obj
from evidseg import tensor_core as tc
from evidseg.backbone_unet import FULL_CHANNELS, BackboneConfig
from evidseg.gradcheck import (CASES, STEP, finite_difference_check,
                               run_case, run_suite)
from evidseg.seeding import derive_seed
from evidseg.tensor_core import (Graph, Tensor, TensorError, concat, conv3d,
                                 maxpool3d, upsample_nearest3d)
from evidseg.trainer import HEADS, Model, TrainConfig, train
from evidseg.volume_io import generate_phantom
from perfbench import tracing


def scalar_graph(build, leaves):
    g = Graph(build, leaves)
    return g, g.forward_eval()


def window_argmax(x):
    """First-wins argmax over each 2x2x2 window of x (N, C, X, Y, Z), as
    (N, C, X/2, Y/2, Z/2) indices in (dx, dy, dz) order; NaN counts as
    the largest value, as in `np.argmax`."""
    n, c, sx, sy, sz = x.shape
    v = x.reshape(n, c, sx // 2, 2, sy // 2, 2, sz // 2, 2)
    v = np.ascontiguousarray(v.transpose(0, 1, 2, 4, 6, 3, 5, 7))
    return v.reshape(n, c, sx // 2, sy // 2, sz // 2, 8).argmax(axis=-1)


def direct_conv3d(x, w, b):
    """Same-padded correlation by explicit summation over each output
    voxel's window, independent of the GEMM path."""
    k = w.shape[2]
    p = k // 2
    xp = np.pad(x, ((0, 0), (0, 0)) + ((p, p),) * 3)
    out = np.empty((x.shape[0], w.shape[0]) + x.shape[2:])
    for n, o, i, j, l in np.ndindex(out.shape):
        out[n, o, i, j, l] = (
            xp[n, :, i:i + k, j:j + k, l:l + k] * w[o]).sum() + b[o]
    return out


def direct_conv3d_grads(x, w, g):
    """Gradients of sum(direct_conv3d(x, w, b) * g) for x, w and b, from one
    kernel tap at a time: tap (a, c, d) reads the input shifted by it."""
    k = w.shape[2]
    p = k // 2
    sx, sy, sz = x.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0)) + ((p, p),) * 3)
    gxp = np.zeros_like(xp)
    gw = np.empty_like(w)
    for a, c, d in np.ndindex(k, k, k):
        shifted = (slice(None), slice(None), slice(a, a + sx),
                   slice(c, c + sy), slice(d, d + sz))
        gw[:, :, a, c, d] = np.einsum("noxyz,ncxyz->oc", g, xp[shifted])
        gxp[shifted] += np.einsum("noxyz,oc->ncxyz", g, w[:, :, a, c, d])
    gx = gxp[:, :, p:p + sx, p:p + sy, p:p + sz]
    return gx, gw, g.sum(axis=(0, 2, 3, 4))


class TestForwardEval:
    def test_sum_of_zeros(self):
        _, value = scalar_graph(lambda lv: lv["x"].sum(),
                                {"x": np.zeros((2, 2))})
        assert value == 0.0

    def test_sum_of_squares(self):
        _, value = scalar_graph(lambda lv: (lv["x"] * lv["x"]).sum(),
                                {"x": np.array([1.0, 2.0, 3.0])})
        assert value == 14.0

    def test_identity_scalar(self):
        _, value = scalar_graph(lambda lv: lv["x"].reshape(),
                                {"x": np.array(7.5)})
        assert value == 7.5

    def test_shape_mismatch_raises(self):
        with pytest.raises((TensorError, ValueError)):
            scalar_graph(lambda lv: (lv["a"] * lv["b"]).sum(),
                         {"a": np.ones((2, 3)), "b": np.ones((2, 4))})

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_intermediate_reported(self):
        # exp(1000) overflows float64 to inf
        g = Graph(lambda lv: lv["x"].exp().sum(),
                  {"x": np.array([1.0, 1000.0])})
        with pytest.raises(ArithmeticError, match="exp"):
            g.forward_eval()

    @pytest.mark.parametrize("trainable, op", [(True, "leaf"),
                                               (False, "reshape")])
    def test_nonfinite_input_names_first_op_on_the_tape(self, trainable, op):
        # a trainable leaf is on the tape and is named; a constant input is
        # not, and ops on constants keep no parents, so the report names
        # the first op that read it
        x = np.array([1.0, np.nan])
        leaves = {"x": x} if trainable else {}

        def build(lv):
            w = Tensor(np.ones(2), requires_grad=True)
            return (lv.get("x", Tensor(x)).reshape(2, 1) * w).sum()

        with pytest.raises(tc.NonFiniteError) as err:
            Graph(build, leaves).forward_eval()
        assert err.value.op == op


class TestBackwardGradients:
    def test_sum_of_squares_gradient(self):
        g, _ = scalar_graph(lambda lv: (lv["x"] * lv["x"]).sum(),
                            {"x": np.array([1.0, 2.0, 3.0])})
        grads = g.backward_gradients()
        np.testing.assert_allclose(grads["x"], [2.0, 4.0, 6.0])

    def test_linear_map_gradient_is_ones(self):
        g, _ = scalar_graph(lambda lv: lv["x"].sum(),
                            {"x": np.ones((3, 4, 2))})
        np.testing.assert_array_equal(g.backward_gradients()["x"],
                                      np.ones((3, 4, 2)))

    def test_unreached_leaf_gets_zero_gradient(self):
        g, _ = scalar_graph(lambda lv: lv["x"].sum(),
                            {"x": np.ones(3), "y": np.ones(5)})
        grads = g.backward_gradients()
        np.testing.assert_array_equal(grads["y"], np.zeros(5))

    def test_gradient_shapes_match_leaves(self):
        rng = np.random.default_rng(0)
        leaves = {"w": rng.standard_normal((4, 3)),
                  "b": rng.standard_normal(3)}
        x = Tensor(rng.standard_normal((5, 4)))
        g, _ = scalar_graph(
            lambda lv: ((x.reshape(5, 4, 1) * lv["w"]).sum(axis=1)
                        + lv["b"]).sigmoid().sum(), leaves)
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

        gf = grad_of(lambda lv: (lv["x"] * lv["x"]).sum())
        gg = grad_of(lambda lv: lv["x"].sigmoid().sum())
        gc = grad_of(lambda lv: a * (lv["x"] * lv["x"]).sum()
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

    @pytest.mark.parametrize("build", [
        lambda x: (x.reshape(6) * Tensor(np.arange(6.0))).sum(),
        lambda x: x.sum(axis=0).exp().sum(),
        lambda x: (x + x).sum(),
        lambda x: (x * x).exp().sum()],
        ids=["reshape-view", "sum", "add-self", "mul-self"])
    def test_every_grad_is_an_array_of_its_own(self, build):
        # a fresh gradient is adopted rather than copied, but never a view,
        # a read-only broadcast or a g handed to two parents: with every
        # node held, no two grads share memory and each is writeable
        x = Tensor(np.array([[1.0, -2.0, 3.0], [0.5, 4.0, -1.0]]),
                   requires_grad=True)
        out = build(x)
        nodes, stack = [], [out]
        while stack:
            node = stack.pop()
            if all(node is not n for n in nodes):
                nodes.append(node)
                stack.extend(p for p in node._prev if p.requires_grad)
        data = [n.data.copy() for n in nodes]
        out.backward()
        for node, before in zip(nodes, data):
            np.testing.assert_array_equal(node.data, before)
            assert node.grad.flags.writeable
            assert node.grad.shape == node.shape
        for i, a in enumerate(nodes):
            for b in nodes[i + 1:]:
                assert not np.shares_memory(a.grad, b.grad)
            assert not any(np.shares_memory(a.grad, n.data) for n in nodes)

    def test_replay_is_bit_reproducible(self):
        rng = np.random.default_rng(2)
        g = Graph(lambda lv: (lv["x"].sigmoid() * lv["x"]).sum(),
                  {"x": rng.standard_normal((3, 3))})
        v1 = g.forward_eval()
        g1 = g.backward_gradients()["x"].copy()
        v2 = g.forward_eval()
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
            np.testing.assert_allclose(out, direct_conv3d(x, w, b),
                                       rtol=1e-10)

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

    @pytest.mark.parametrize("x_shape, w_shape, b_shape", [
        ((1, 2, 4, 4, 4), (3, 2, 2, 2, 2), (3,)),  # even kernel
        ((1, 2, 4, 4, 4), (3, 2, 3, 3, 1), (3,)),  # kernel not cubic
        ((2, 4, 4, 4), (3, 2, 3, 3, 3), (3,)),  # input not 5-D
        ((1, 2, 4, 4, 4), (3, 2, 3, 3, 3), (4,)),  # bias not (O,)
    ])
    def test_conv3d_rejects_malformed_operands(self, x_shape, w_shape,
                                               b_shape):
        operands = [Tensor(np.zeros(s)) for s in (x_shape, w_shape, b_shape)]
        with pytest.raises(TensorError) as info:
            conv3d(*operands)
        for shape in (x_shape, w_shape, b_shape):
            assert str(shape) in str(info.value)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_maxpool_pairwise_maxima_match_first_wins_gather(self, dtype):
        # relu outputs with many exact ties (zeros and a repeated value),
        # plus +inf and NaN placed into some windows
        rng = np.random.default_rng(14)
        x = Tensor(np.round(rng.standard_normal((2, 3, 6, 4, 8)), 1)
                   .astype(dtype)).relu().data
        assert not np.any(np.signbit(x))  # relu outputs hold no -0.0
        x.flat[rng.choice(x.size, 20, replace=False)] = np.inf
        x.flat[rng.choice(x.size, 20, replace=False)] = np.nan
        blocks = x.reshape(2, 3, 3, 2, 2, 2, 4, 2).transpose(
            0, 1, 2, 4, 6, 3, 5, 7).reshape(2, 3, 3, 2, 4, 8)
        first = blocks.argmax(axis=-1)  # NaN wins, then the first maximum
        want = np.take_along_axis(blocks, first[..., None], axis=-1)[..., 0]
        assert np.isnan(want).any() and np.isinf(want).any()
        xt = Tensor(x, requires_grad=True)
        out = maxpool3d(xt)
        assert out.dtype == dtype
        np.testing.assert_array_equal(out.data, want)
        # the backward routes each window's gradient to its first maximum
        g = rng.standard_normal(want.shape).astype(dtype)
        (out * Tensor(g)).sum().backward()
        gv = np.zeros(blocks.shape, dtype)
        np.put_along_axis(gv, first[..., None], g[..., None], axis=-1)
        np.testing.assert_array_equal(
            xt.grad, gv.reshape(2, 3, 3, 2, 4, 2, 2, 2).transpose(
                0, 1, 2, 5, 3, 6, 4, 7).reshape(x.shape))

    @pytest.mark.parametrize("dtype, bits", [(np.float32, np.uint32),
                                             (np.float64, np.uint64)])
    def test_maxpool_backward_is_the_argmax_gather_bit_for_bit(self, dtype,
                                                               bits):
        # windows of few distinct values, so most hold ties: signed zeros,
        # +-1, +-inf and NaN; the gradient holds specials of its own, and
        # each must land at the window's first maximum, NaN the largest
        rng = np.random.default_rng(16)
        values = np.array([-0.0, 0.0, 1.0, -1.0, np.inf, -np.inf, np.nan],
                          dtype)
        x = rng.choice(values, size=(2, 3, 4, 6, 8),
                       p=[0.2, 0.2, 0.2, 0.2, 0.07, 0.06, 0.07])
        out = maxpool3d(Tensor(x, requires_grad=True))
        g = rng.standard_normal(out.shape).astype(dtype)
        g.flat[rng.choice(g.size, 12, replace=False)] = np.tile(
            values[[0, 1, 4, 6]], 3)
        got = out._backward(g)[0]
        idx = window_argmax(x)
        gv = np.zeros(idx.shape + (8,), dtype)
        np.put_along_axis(gv, idx[..., None], g[..., None], axis=-1)
        want = gv.reshape(2, 3, 2, 3, 4, 2, 2, 2).transpose(
            0, 1, 2, 5, 3, 6, 4, 7).reshape(x.shape)
        assert got.dtype == dtype
        np.testing.assert_array_equal(got.view(bits), want.view(bits))
        # the draw holds windows of every kind
        assert 0 < np.isnan(out.data).sum() < out.data.size
        assert (out.data == 0).any() and np.isinf(out.data).any()

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

    @pytest.mark.parametrize("dtype, bits", [(np.float32, np.uint32),
                                             (np.float64, np.uint64)])
    def test_upsample_is_three_repeats_bit_for_bit(self, dtype, bits):
        # a non-contiguous input: every other x-plane, z reversed
        rng = np.random.default_rng(19)
        x = rng.standard_normal((2, 3, 6, 3, 4)).astype(dtype)[:, :, ::2,
                                                                :, ::-1]
        out = upsample_nearest3d(Tensor(x)).data
        want = x.repeat(2, axis=2).repeat(2, axis=3).repeat(2, axis=4)
        assert out.dtype == dtype and out.flags.c_contiguous
        np.testing.assert_array_equal(out.view(bits), want.view(bits))

    def test_upsample_backward_sums_each_block(self):
        # the pairwise strided adds against one reshape-sum per 2x2x2 block
        rng = np.random.default_rng(12)
        x = Tensor(rng.standard_normal((2, 3, 2, 3, 4)), requires_grad=True)
        g = rng.standard_normal((2, 3, 4, 6, 8))
        (upsample_nearest3d(x) * Tensor(g)).sum().backward()
        want = g.reshape(2, 3, 2, 2, 3, 2, 4, 2).sum(axis=(3, 5, 7))
        np.testing.assert_allclose(x.grad, want, rtol=1e-12, atol=1e-14)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf * g summed
    @pytest.mark.parametrize("dtype, bits", [(np.float32, np.uint32),
                                             (np.float64, np.uint64)])
    def test_relu_matches_where_bit_for_bit(self, dtype, bits):
        # signed zeros, NaNs of both signs, infinities and subnormals, read
        # contiguously and through strides, short and long (numpy's vector
        # and scalar loops treat -0.0 differently)
        info = np.finfo(dtype)
        special = np.array([-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf,
                            info.smallest_subnormal, -info.smallest_subnormal,
                            1.5, -1.5, info.max, -info.max], dtype=dtype)
        long = np.tile(special, 11)
        rng = np.random.default_rng(13)
        for x in (special, long, special[::2], long[1::3],
                  long.reshape(11, -1)[:, ::-1]):
            for requires_grad in (False, True):
                xt = Tensor(x, requires_grad=requires_grad)
                out = xt.relu()
                want = np.where(x > 0, x, 0.0)
                assert out.dtype == want.dtype == dtype
                np.testing.assert_array_equal(out.data.view(bits),
                                              want.view(bits))
            # the trainable pass's backward, g * (out > 0), is g * (x > 0)
            # bit for bit, signed zeros too
            g = rng.standard_normal(x.shape).astype(dtype)
            (out * Tensor(g)).sum().backward()
            np.testing.assert_array_equal(xt.grad.view(bits),
                                          (g * (x > 0)).view(bits))

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


class TestConv3dSlabs:
    """conv3d copies the k z-shifts of each channel one slab of output
    x-planes at a time; these force several slabs per batch item, including
    a short last one."""

    SHAPE = (2, 2, 7, 3, 4)  # batch 2, 2 channels, X = 7
    OUT = 3

    @staticmethod
    def force_planes(monkeypatch, planes, k, shape=SHAPE, out=OUT):
        # the slab budget of `planes` x-planes of the float64 z-shift rows
        # (k * C of them), tap products (k^2 * O rows) and their sum
        # (O rows), each x-plane spanning the shared-padding grid's
        # (Y + k // 2) * (Z + k // 2) columns
        n, c, sx, sy, sz = shape
        p = k // 2
        monkeypatch.setattr(tc, "_SLAB_BYTES", planes * (
            k * c + (k * k + 1) * out) * (sy + p) * (sz + p) * 8)

    @staticmethod
    def arrays(seed, k):
        rng = np.random.default_rng(seed)
        shape, o = TestConv3dSlabs.SHAPE, TestConv3dSlabs.OUT
        return (rng.standard_normal(shape),
                0.3 * rng.standard_normal((o, shape[1], k, k, k)),
                rng.standard_normal(o),
                rng.standard_normal((shape[0], o) + shape[2:]))

    @staticmethod
    def check_against_direct(x, w, b, g):
        t = {"x": Tensor(x, requires_grad=True),
             "w": Tensor(w, requires_grad=True),
             "b": Tensor(b, requires_grad=True)}
        out = conv3d(t["x"], t["w"], t["b"])
        (out * Tensor(g)).sum().backward()
        expected = (direct_conv3d(x, w, b),) + direct_conv3d_grads(x, w, g)
        for got, want in zip((out.data, t["x"].grad, t["w"].grad,
                              t["b"].grad), expected):
            np.testing.assert_allclose(got, want, rtol=1e-10,
                                       atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("planes, widths", [
        (1, [1] * 7), (2, [2, 2, 2, 1])])
    def test_matches_direct_summation(self, monkeypatch, k, planes, widths):
        self.force_planes(monkeypatch, planes, k)
        x, w, b, g = self.arrays(8, k)
        c, sy, sz = x.shape[1], x.shape[3], x.shape[4]
        # k * C rows; columns on the shared-padding grid, up to the slab's
        # last valid voxel, the halo of the taps' reach excluded
        p = k // 2
        py, pz = sy + p, sz + p
        slabs = [(i, x1 - x0, taps.shape)
                 for i, x0, x1, taps in tc._slabs(x, k, self.OUT)]
        assert slabs == [
            (i, s, (k, k, k * c, s * py * pz - p * (pz + 1)))
            for i in range(2) for s in widths]
        self.check_against_direct(x, w, b, g)

    def test_random_shapes_and_budgets_match_direct_summation(
            self, monkeypatch):
        # every kernel size on extents 1-6, where taps reach past both
        # sides of the grid at once, with slab budgets down to one plane
        rng = np.random.default_rng(18)
        for trial in range(60):
            k = (1, 3, 5)[trial % 3]
            shape = (int(rng.integers(1, 3)), int(rng.integers(1, 4))) + tuple(
                int(e) for e in rng.integers(1, 7, size=3))
            out = int(rng.integers(1, 4))
            self.force_planes(monkeypatch, int(rng.integers(1, shape[2] + 1)),
                              k, shape, out)
            x = rng.standard_normal(shape)
            w = 0.3 * rng.standard_normal((out, shape[1], k, k, k))
            b = rng.standard_normal(out)
            g = rng.standard_normal((shape[0], out) + shape[2:])
            self.check_against_direct(x, w, b, g)

    @pytest.mark.parametrize("extent, cols", [(2, 14), (4, 94),
                                              (32, 34_814)])
    def test_whole_grid_columns(self, monkeypatch, extent, cols):
        # k = 3: one shared zero column after each z-row and one zero row
        # after each x-plane, so extent^3 voxels span
        # extent * (extent + 1)^2 - (extent + 2) columns
        monkeypatch.setattr(tc, "_SLAB_BYTES", 1 << 40)
        x = np.zeros((1, 1) + (extent,) * 3)
        assert tc._slab_planes(x, 3, 1) == (extent, cols)

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("shape, out_channels", [
        ((1, 16, 2, 2, 2), 8), ((1, 72, 4, 4, 4), 4), ((1, 6, 4, 3, 5), 3)])
    def test_small_grids_match_direct_summation(self, k, shape,
                                                out_channels):
        # 2^3 and 4^3 grids with more channels than voxels, where the
        # padded grid is 2-4x the valid one, and a non-cubic grid
        rng = np.random.default_rng(11)
        x = rng.standard_normal(shape)
        w = 0.3 * rng.standard_normal((out_channels, shape[1], k, k, k))
        b = rng.standard_normal(out_channels)
        g = rng.standard_normal((shape[0], out_channels) + shape[2:])
        self.check_against_direct(x, w, b, g)

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("planes", [1, 2])
    def test_gradients_pass_finite_differences(self, monkeypatch, k, planes):
        self.force_planes(monkeypatch, planes, k)
        x, w, b, _ = self.arrays(9, k)
        leaves = {"x": x, "w": w, "b": b}
        g = Graph(lambda lv: conv3d(lv["x"], lv["w"],
                                        lv["b"]).sigmoid().sum(), leaves)
        for leaf, value in leaves.items():
            report = finite_difference_check(g, leaf)
            assert report.passed and report.checked == value.size

    def test_desk_dec0_peak_memory_is_a_slab_not_the_patch_matrix(self):
        # dec0.conv0 at desk shapes, float32: (2, 8, 32^3) -> 4 channels.
        # The whole im2col patch matrix would be 8*27 x 2*32^3 floats,
        # 56.6 MB. A forward and backward holds at most, at the same time:
        # - the output and its gradient (2 * out);
        # - the input gradient, which becomes x.grad uncopied (x);
        # - one zero-padded copy of x or of g on the shared-padding grid,
        #   35 x-planes of 33 * 33 per channel;
        # - one slab of about _SLAB_BYTES: the z-shift rows (3 * 8 of them
        #   over the 33^2 grid, with two x-planes of reach), the tap
        #   products (9 rows per output channel: 4 channels in the forward,
        #   8 in the input gradient) and their gemv sum (one row per output
        #   channel), or g on the padded grid; the bound allows the larger
        #   of _SLAB_BYTES and one x-plane of the 8*27 x 32^2 patch matrix;
        # - 64 KiB for w, its gradient and small temporaries.
        rng = np.random.default_rng(10)
        x = Tensor(rng.standard_normal((2, 8, 32, 32, 32), dtype=np.float32),
                   requires_grad=True)
        w = Tensor(0.1 * rng.standard_normal((4, 8, 3, 3, 3),
                                             dtype=np.float32),
                   requires_grad=True)
        b = Tensor(np.zeros(4, np.float32), requires_grad=True)
        x_bytes, out_bytes = x.data.nbytes, x.data.nbytes // 2
        slab = max(tc._SLAB_BYTES, 8 * 27 * 32 * 32 * 4)
        bound = (2 * out_bytes + x_bytes
                 + 35 * 33 * 33 / 32 ** 3 * x_bytes
                 + slab + (64 << 10))
        tracemalloc.start()
        try:
            conv3d(x, w, b).sum().backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x.grad.shape == x.shape and w.grad.shape == w.shape
        assert peak <= bound, f"peak {peak:,} B over the bound {bound:,.0f} B"


class TestSlabViews:
    """`_slabs` and `_valid` build their strided views with `np.ndarray`
    over an explicit buffer, which numpy checks against its size."""

    def test_src_and_taps_are_read_only(self):
        x = np.random.default_rng(0).standard_normal((1, 2, 4, 3, 5))
        slabs = tc._slabs(x, 3, 4)
        _, _, _, taps = next(slabs)
        src = slabs.gi_frame.f_locals["src"]
        assert not src.flags.writeable and not taps.flags.writeable
        with pytest.raises(ValueError):
            taps[0, 0, 0, 0] = 1.0

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_valid_is_the_crop_of_the_padded_grid(self, k):
        planes, sy, sz = 2, 3, 4
        p = k // 2
        py, pz = sy + p, sz + p
        cols = planes * py * pz - p * (pz + 1)
        a = np.arange(3 * cols, dtype=np.float64).reshape(3, cols)
        grid = np.zeros((3, planes * py * pz))
        grid[:, :cols] = a
        view = tc._valid(a, planes, sy, sz, k)
        np.testing.assert_array_equal(
            view, grid.reshape(3, planes, py, pz)[:, :, :sy, :sz])
        view[...] = -1.0
        assert (a < 0).sum() == 3 * planes * sy * sz

    def test_valid_over_too_short_an_array_raises(self):
        # one column short of 2 planes of the (3 + 1, 4 + 1) grid at k = 3
        cols = 2 * 4 * 5 - 1 * 6
        with pytest.raises(ValueError):
            tc._valid(np.zeros((3, cols - 1)), 2, 3, 4, 3)


class TestBackwardConsumesTape:
    @pytest.mark.parametrize("head", HEADS)
    def test_desk_step_leaves_only_what_the_caller_holds(self, head):
        # a tape kept whole after the backward held every activation and
        # intermediate gradient until the next step: 84.2 MiB for the
        # evidential head at desk shapes; consumed, 1.6 MiB remains
        rng = np.random.default_rng(17)
        x = rng.standard_normal((2, 2, 32, 32, 32)).astype(np.float32)
        g = (rng.random((2, 32, 32, 32)) < 0.1).astype(np.float32)
        model = Model.create(BackboneConfig(), head, TrainConfig(), 0)
        tracemalloc.start()
        try:
            out, leaves = model.forward(x, trainable=True)
            total, _ = obj.total_loss(out, g, leaves.get("es.alpha_logits"),
                                      lam=TrainConfig().lam)
            total.backward()
            current = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        held = out.data.nbytes + out.grad.nbytes + sum(
            t.grad.nbytes for t in leaves.values())
        assert current <= held + (2 << 20), (current, held)
        assert tracing.tape_size(total) == 0
        assert out.grad.shape == out.shape and total.grad == 1.0

    def test_desk_evidential_epoch_peak_memory(self):
        # one epoch of 4 steps and 1 validation case, as perfbench's train
        # unit: a backward that kept its tape peaked at 136.0 MiB, because
        # each step's tape lived until the next forward had built its own;
        # consumed, the peak is one step's: 74.9 MiB measured while `bba`
        # wrote (N, 3, I, V) mass planes and `dempster_fuse`'s backward their
        # gradient, 49.9 MiB measured with the masses formed per prototype,
        # 45.1 MiB with `distance_activation` recomputing d2 in its backward
        cases = [generate_phantom(derive_seed(0, f"desk:{i}"), (32, 32, 32),
                                  (1, 3)) for i in range(9)]
        config = TrainConfig(epochs=1, patch_dims=(32, 32, 32))
        model = Model.create(BackboneConfig(), "evidential", config, 0)
        tracemalloc.start()
        try:
            train(model, cases[:8], cases[8:], config, gradcheck_gate=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 20, f"peak {peak / 2**20:.1f} MiB"


class TestInferenceKeepsNoTape:
    def test_no_grad_forward_holds_no_parents(self):
        model = Model.create(BackboneConfig(channels=(2, 4)), "evidential",
                             TrainConfig(prototypes=3), 0)
        x = np.zeros((1, 2, 8, 8, 8), np.float32)
        out, _ = model.forward(x, trainable=False)
        assert out._prev == () and not out.requires_grad
        out, _ = model.forward(x, trainable=True)
        assert out._prev and out.requires_grad

    def test_full_scale_window_peak_memory(self):
        # one full-scale 32^3 window: with the tape kept, every activation
        # lived until the window ended (37.7 MiB measured); without it, the
        # peak is the largest few activations at once (12.3 MiB measured
        # with (N, 3, I, V) mass planes, 8.0 MiB with the masses formed per
        # prototype)
        model = Model.create(BackboneConfig(channels=FULL_CHANNELS),
                             "evidential", TrainConfig(), 0)
        x = np.random.default_rng(15).standard_normal(
            (1, 2, 32, 32, 32)).astype(np.float32)
        tracemalloc.start()
        try:
            model.predict_masses(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 << 20, f"peak {peak / 2**20:.1f} MiB"


class TestFiniteDifferenceCheck:
    def test_sum_of_squares_passes(self):
        g = Graph(lambda lv: (lv["x"] * lv["x"]).sum(),
                  {"x": np.array([1.0, 2.0, 3.0])})
        report = finite_difference_check(g, "x")
        assert report.passed
        assert report.max_error <= 1e-4

    @pytest.mark.parametrize("index", [(slice(None), 2), (Ellipsis, 1),
                                       (0, slice(0, 3, 2))])
    def test_getitem_gradient_passes(self, index):
        rng = np.random.default_rng(5)

        def build(lv):
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
            build = lambda lv: conv3d(lv["x"], lv["w"],
                                          lv["b"]).sigmoid().sum()
            g = Graph(build, leaves)
            for leaf, value in leaves.items():
                report = finite_difference_check(g, leaf)
                assert report.passed and report.checked == value.size

    def test_relu_kink_element_skipped(self):
        # x[2] lies within STEP of 0, so x[2] - STEP turns its relu off: the
        # central difference there would read 1.5 against the gradient 3
        x = np.array([0.5, -0.7, 0.5 * STEP, 1.2, -0.3])
        g = Graph(lambda lv: (lv["x"].relu() * 3.0).sum(), {"x": x})
        report = finite_difference_check(g, "x")
        assert report.skipped_at_kink == 1 and report.checked == 4
        assert report.passed

    def test_maxpool_near_tie_skips_both_entries(self):
        # the window's two largest entries lie within STEP of each other,
        # so moving either by STEP swaps the argmax; the other six do not
        x = np.linspace(-0.5, 0.5, 8).reshape(1, 1, 2, 2, 2)
        x[0, 0, 0, 0, 0], x[0, 0, 1, 1, 1] = 0.9, 0.9 + 0.5 * STEP
        g = Graph(lambda lv: (maxpool3d(lv["x"]) * 2.0).sum(), {"x": x})
        report = finite_difference_check(g, "x")
        assert report.skipped_at_kink == 2 and report.checked == 6
        assert report.passed

    def test_constant_loss_passes(self):
        g = Graph(lambda lv: (lv["x"] * 0.0).sum(), {"x": np.ones(4)})
        report = finite_difference_check(g, "x")
        assert report.passed

    def test_corrupted_gradient_fails(self):
        class Corrupted(Graph):
            def backward_gradients(self):
                grads = super().backward_gradients()
                grads["x"] = grads["x"].copy()
                grads["x"][0] += 1.0
                return grads

        g = Corrupted(lambda lv: (lv["x"] * lv["x"]).sum(),
                      {"x": np.array([1.0, 2.0, 3.0])})
        report = finite_difference_check(g, "x")
        assert not report.passed

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_gradient_fails_leaf_and_case(self, monkeypatch, bad):
        # a non-finite gradient is an infinite error, not a NaN one that
        # would compare false with TOL
        class NonFinite(Graph):
            def backward_gradients(self):
                grads = super().backward_gradients()
                grads["x"] = grads["x"].copy()
                grads["x"][1] = bad
                return grads

        def factory(rng):
            return NonFinite(lambda lv: lv["x"].exp().sum(),
                             {"x": rng.uniform(-1.0, 1.0, 3)})

        g = factory(np.random.default_rng(0))
        report = finite_difference_check(g, "x")
        assert not report.passed and report.max_error == np.inf
        monkeypatch.setitem(CASES, "nonfinite", factory)
        result = run_case("nonfinite", instances=2)
        assert not result.passed and result.max_error == np.inf


class TestKinkPatterns:
    def test_each_relu_and_maxpool_leaves_one_entry(self):
        def build(lv):
            h = maxpool3d(lv["x"].relu())
            return (h.relu() * h).sum()

        g, _ = scalar_graph(build, {"x": np.linspace(-1, 1, 8).reshape(
            1, 1, 2, 2, 2)})
        assert len(g.patterns) == 3
        assert tc._PATTERNS is None

    def test_maxpool_pattern_changes_where_a_tie_appears(self):
        # the window's first maximum stays put while its last entry rises
        # to tie it: the mask of entries equal to the pooled value changes
        x = np.linspace(-0.5, 0.5, 8).reshape(1, 1, 2, 2, 2)
        x[0, 0, 0, 0, 0] = 0.9
        patterns = []
        for last in (0.5, 0.9):
            x[0, 0, 1, 1, 1] = last
            g, _ = scalar_graph(lambda lv: maxpool3d(lv["x"]).sum(),
                                {"x": x})
            patterns.append(g.patterns)
            assert window_argmax(x) == 0
        assert patterns[0] != patterns[1]

    def test_raising_build_stops_recording(self):
        def build(lv):
            lv["x"].relu()
            raise RuntimeError("build failed")

        g = Graph(build, {"x": np.ones(3)})
        with pytest.raises(RuntimeError, match="build failed"):
            g.forward_eval()
        assert tc._PATTERNS is None
        assert len(g.patterns) == 1


# (checked, skipped_at_kink) of each case at seed 0, one instance per case
SUITE_COUNTS = {
    "affine": (15, 0), "elementwise_exp_log_square": (12, 0),
    "squashing": (21, 0), "products": (29, 0), "sums_reductions": (60, 0),
    "rectifier": (24, 0), "conv3d": (293, 0), "maxpool": (128, 0),
    "upsample": (54, 0), "concat": (40, 0),
    "distance_activation": (58, 0), "bba": (52, 0), "dempster_fuse": (52, 0),
    "es_forward": (220, 0), "dice_loss_pignistic": (220, 0),
    "dice_loss_singleton": (220, 0), "uncertainty_loss": (220, 0),
    "total_loss": (220, 0), "backbone_tiny": (126, 178),
    "total_loss_through_backbone": (234, 88),
}


def test_suite_counts_pinned_case_by_case():
    # a case whose random draws or kink skips moved shows here by name
    results = run_suite(instances=1, seed=0)
    assert [r.name for r in results] == list(SUITE_COUNTS)
    for r in results:
        assert r.passed, r.name
        counts = (sum(x.checked for x in r.reports),
                  sum(x.skipped_at_kink for x in r.reports))
        assert counts == SUITE_COUNTS[r.name], r.name


@pytest.mark.parametrize("kwargs, named", [
    ({"names": ["nosuch"]}, "'nosuch'"),
    ({"names": ["affine"], "inject_fault": "conv3d"}, "'conv3d'")])
def test_suite_rejects_a_case_it_would_not_run(kwargs, named):
    # the CLI's --instances and --inject-fault checks are in test_cli.py
    with pytest.raises(ValueError, match=named):
        run_suite(**kwargs)


@pytest.mark.parametrize("kwargs, named", [
    ({"name": "affine", "instances": 0}, "got 0"),
    ({"name": "nosuch"}, "'nosuch'.*conv3d")])
def test_case_rejects_a_run_that_checks_nothing(kwargs, named):
    # a case run of no instances, or of no case, must not pass
    with pytest.raises(ValueError, match=named):
        run_case(**kwargs)


def recorded_ops(monkeypatch, run):
    """The op names of every tape node made while `run()` runs."""
    ops, make = set(), Tensor._make

    def recording(data, op, prev, backward):
        ops.add(op)
        return make(data, op, prev, backward)

    with monkeypatch.context() as m:
        m.setattr(Tensor, "_make", staticmethod(recording))
        run()
    return ops


def defined_ops():
    """The op name of every `_make` call in the package's source."""
    ops = set()
    for path in Path(tc.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "_make"):
                op = node.args[1]
                assert isinstance(op, ast.Constant), (path.name, node.lineno)
                ops.add(op.value)
    return ops


def test_gradcheck_cases_cover_exactly_the_model_ops(monkeypatch):
    # the suite checks every op kind the model records, and no other; and
    # the package defines no op the model does not record
    def train_steps():
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 2, 8, 8, 8)).astype(np.float32)
        g = (rng.random((2, 8, 8, 8)) < 0.3).astype(np.float32)
        for head in HEADS:
            config = TrainConfig(prototypes=3, patch_dims=(8, 8, 8))
            model = Model.create(BackboneConfig(channels=(2, 4)), head,
                                 config, 0)
            out, leaves = model.forward(x, trainable=True)
            total, _ = obj.total_loss(out, g, leaves.get("es.alpha_logits"),
                                      lam=config.lam)
            total.backward()

    def suite_graphs():
        rng = np.random.default_rng(0)
        for factory in CASES.values():
            factory(rng).forward_eval()

    model_ops = recorded_ops(monkeypatch, train_steps)
    assert {"conv3d", "maxpool3d", "dempster_fuse"} <= model_ops
    assert recorded_ops(monkeypatch, suite_graphs) == model_ops
    assert defined_ops() == model_ops
