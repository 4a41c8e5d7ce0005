"""Dense nd-arrays with reverse-mode differentiation.

Only the ops the segmentation model records are implemented: add, sub, mul
and div with broadcasting, exp, rectifier, logistic squashing, softmax (a
composite of these), sums and the mean of all elements, reshape, basic
indexing (ints, slices, Ellipsis), channel concatenation, 3D convolution
(stride 1, same padding), 2x max-pooling and 2x nearest-neighbour
upsampling; the evidential head adds three fused ops of its own. A test
checks that a train step records every op the package defines.

conv3d is a tap-folded GEMM for the forward and both gradients: for one
cache-sized slab of output x-planes at a time, only the k z-shifts of each
zero-padded channel are copied, the k^2 (x, y) taps are strided views of
that copy, and one batched BLAS product per slab multiplies each tap by
its slice of the kernel; the tap products are summed into the output (or
the weight gradient) before the next slab. `as_tensor` turns any other
operand into a constant Tensor.

A node keeps its parents and its backward only when a parent requires a
gradient. A no-grad node keeps no parents, so a forward on constants
(inference) builds no tape: each activation is freed once its last
consumer has run. Work that only a backward reads, relu's mask and
maxpool's argmax, is done in the backward.

Layout is row-major, matching the volume file format. `Graph` is the
float64 function the checker in `gradcheck` differentiates, and the only
forward that records kink patterns; it stays in this module because
perfbench's traced run wraps `tc.Graph` in place.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided


class TensorError(ValueError):
    """Shape mismatch or other structural misuse of a tensor op."""


class NonFiniteError(ArithmeticError):
    """A forward pass produced NaN or Inf; carries the producing op.

    That is the earliest op on the tape with a non-finite value. Ops on
    constants only keep no parents, so a chain of them counts as its last
    op: a non-finite constant input, or one that such a chain produces, is
    reported at the chain's last op, not as 'leaf' or the op that made it.
    """

    def __init__(self, op: str):
        super().__init__(f"non-finite value produced by op '{op}'")
        self.op = op


# about the bytes of z-shift rows and tap products one conv3d slab holds, so
# that they are still in L2 when read back; on a 2 MiB L2, a sweep over
# 128 KiB-4 MiB ran as fast at 768 KiB-1 MiB, about 1.1x slower at
# 128-512 KiB and 2 MiB, and 1.5-1.9x slower at 4 MiB
_SLAB_BYTES = 3 << 18


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# a list while `Graph.forward_eval` runs its build, else None: relu and
# maxpool append a hash of their activation pattern, and the evaluation
# keeps them on `Graph.patterns`
_PATTERNS = None


def as_tensor(x, dtype=None):
    """`x` itself if it is a Tensor, else a constant Tensor of it."""
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=dtype))


class Tensor:
    """A dense array plus the tape entry that produced it."""

    __slots__ = ("data", "grad", "requires_grad", "op", "_prev", "_backward")

    def __init__(self, data, requires_grad=False, op="leaf"):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self.op = op
        self._prev = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self.op!r})"

    # -- graph construction ------------------------------------------------

    @staticmethod
    def _make(data, op, prev, backward):
        """Tape node for `data`; keeps its parents and `backward` only if a
        parent needs a gradient, so a no-grad node holds no other array."""
        out = Tensor(data, op=op)
        prev = tuple(prev)
        if any(p.requires_grad for p in prev):
            out.requires_grad = True
            out._prev = prev
            out._backward = backward
        return out

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other, self.dtype)

        def backward(g):
            return (_unbroadcast(g, self.shape), _unbroadcast(g, other.shape))

        return self._make(self.data + other.data, "add", (self, other), backward)

    __radd__ = __add__

    def __sub__(self, other):
        other = as_tensor(other, self.dtype)

        def backward(g):
            return (_unbroadcast(g, self.shape), _unbroadcast(-g, other.shape))

        return self._make(self.data - other.data, "sub", (self, other), backward)

    def __rsub__(self, other):
        return as_tensor(other, self.dtype) - self

    def __mul__(self, other):
        other = as_tensor(other, self.dtype)

        def backward(g):
            return (_unbroadcast(g * other.data, self.shape),
                    _unbroadcast(g * self.data, other.shape))

        return self._make(self.data * other.data, "mul", (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_tensor(other, self.dtype)

        def backward(g):
            return (_unbroadcast(g / other.data, self.shape),
                    _unbroadcast(-g * self.data / other.data ** 2, other.shape))

        return self._make(self.data / other.data, "div", (self, other), backward)

    # -- elementwise functions --------------------------------------------

    def exp(self):
        out_data = np.exp(self.data)
        return self._make(out_data, "exp", (self,), lambda g: (g * out_data,))

    def relu(self):
        # where(data > 0, data, 0.0) bit for bit (NaN gives +0.0), at a tenth
        # of the cost; "+= 0.0" turns the -0.0 fmax keeps on some numpy loops
        # into +0.0. So out > 0 exactly where data > 0, and the mask is
        # taken from out only when a backward or the pattern hash reads it
        out_data = np.fmax(self.data, 0.0)
        out_data += 0.0
        if _PATTERNS is not None:
            _PATTERNS.append(hash((out_data > 0).tobytes()))
        return self._make(out_data, "relu", (self,),
                          lambda g: (g * (out_data > 0),))

    def sigmoid(self):
        out_data = 1.0 / (1.0 + np.exp(-self.data))
        return self._make(out_data, "sigmoid", (self,),
                          lambda g: (g * out_data * (1.0 - out_data),))

    def softmax(self, axis):
        # the max shift is a constant: softmax is shift-invariant
        e = (self - self.data.max(axis=axis, keepdims=True)).exp()
        return e / e.sum(axis=axis, keepdims=True)

    # -- reductions and reshaping -----------------------------------------

    def sum(self, axis=None, keepdims=False):
        # a read-only view suffices: backward copies it into an array of its own
        def backward(g):
            ga = g if keepdims or axis is None else np.expand_dims(g, axis)
            return (np.broadcast_to(ga, self.shape),)

        return self._make(self.data.sum(axis=axis, keepdims=keepdims),
                          "sum", (self,), backward)

    def mean(self):
        return self.sum() * (1.0 / self.data.size)

    def reshape(self, *shape):
        def backward(g):
            return (g.reshape(self.shape),)

        return self._make(self.data.reshape(shape), "reshape", (self,), backward)

    def __getitem__(self, index):
        # basic indexing only: the scatter below would drop repeated indices
        key = index if isinstance(index, tuple) else (index,)
        if not all(isinstance(k, (int, np.integer, slice, type(Ellipsis)))
                   for k in key):
            raise TensorError(f"only ints, slices and Ellipsis index a "
                              f"Tensor, got {index!r}")

        def backward(g):
            full = np.zeros_like(self.data)
            full[index] = g
            return (full,)

        return self._make(self.data[index], "getitem", (self,), backward)

    # -- backward pass -----------------------------------------------------

    def backward(self):
        if self.data.size != 1:
            raise TensorError("backward requires a scalar output")
        topo, seen = [], set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._prev:
                if p.requires_grad:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is None:
                continue
            grads = node._backward(node.grad)
            for p, g in zip(node._prev, grads):
                if not p.requires_grad or g is None:
                    continue
                if p.grad is None:
                    # a copy, never g itself: add hands one g to both
                    # parents, and sum hands back a read-only broadcast view
                    p.grad = np.empty_like(p.data)
                    np.copyto(p.grad, g)
                else:
                    p.grad += g
            node._backward = None  # free closures once consumed


def concat(tensors, axis):
    tensors = list(tensors)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.split(g, splits, axis=axis))

    return Tensor._make(np.concatenate([t.data for t in tensors], axis=axis),
                        "concat", tensors, backward)


# -- spatial ops (N, C, X, Y, Z) ------------------------------------------

def _slabs(x, k, o):
    """The z-shifted rows of x (N, C, X, Y, Z), zero-padded by p = k // 2,
    one slab of output x-planes at a time, with every (dx, dy) tap as a
    strided view of them; o is the output channel count, for the budget.

    Yields (i, x0, x1, taps): taps is a read-only (k, k, k*C, L) view whose
    [dx, dy] matrix holds, at row (dz, c) and column j, the padded input of
    batch item i that output column j meets through tap (dx, dy, dz).
    Output columns run over the padded (Y+2p, Z+2p) grid of x-planes x0:x1,
    up to the last valid voxel; `_interior` picks out the valid ones.

    One buffer of k*C rows serves every slab. Each row is one contiguous
    run of a padded channel, so a slab copies k shifts of the input where
    an im2col patch matrix copies k^3. A slab holds about _SLAB_BYTES of
    that buffer and of the (k, k, O, L) tap products, one x-plane at least.
    """
    n, c, sx, sy, sz = x.shape
    p = k // 2
    pz = sz + 2 * p
    plane = (sy + 2 * p) * pz
    xp = np.zeros((n, c, sx + 2 * p, sy + 2 * p, pz), dtype=x.dtype)
    xp[:, :, p:p + sx, p:p + sy, p:p + sz] = x
    xp = xp.reshape(n, c, -1)
    sn, sc, s = xp.strides
    src = as_strided(xp, (n, k, c, xp.shape[2] - k + 1), (sn, s, sc, s),
                     writeable=False)
    # tap (dx, dy) reads dx*plane + dy*pz columns past its output column
    reach = (k - 1) * (plane + pz)
    planes = min(sx, max(1, _SLAB_BYTES
                         // ((k * c + k * k * o) * plane * xp.itemsize)))
    width = planes * plane - (k - 1) * (pz + 1) + reach
    buf = np.empty((k * c, width), dtype=x.dtype)
    taps = as_strided(buf, (k, k, k * c, width - reach),
                      (plane * s, pz * s) + buf.strides, writeable=False)
    for i in range(n):
        for x0 in range(0, sx, planes):
            x1 = min(x0 + planes, sx)
            cols = (x1 - x0) * plane - (k - 1) * (pz + 1)
            np.copyto(buf[:, :cols + reach].reshape(k, c, -1),
                      src[i, :, :, x0 * plane:x0 * plane + cols + reach])
            yield i, x0, x1, taps[..., :cols]


def _interior(a, planes, sy, sz, k):
    """The (rows, planes, sy, sz) valid voxels of a, whose columns run over
    `planes` x-planes of the (sy + k - 1, sz + k - 1) padded grid."""
    py, pz = sy + k - 1, sz + k - 1
    return a[:, :planes * py * pz].reshape(-1, planes, py, pz)[:, :, :sy, :sz]


def _correlate(x, w, b=None):
    """Same-padded correlation of x (N, C, X, Y, Z) with w (O, C, k, k, k),
    plus the bias b (O,) if given, as a C-contiguous (N, O, X, Y, Z) array.
    """
    n, c, sx, sy, sz = x.shape
    o, k = w.shape[0], w.shape[2]
    plane = (sy + k - 1) * (sz + k - 1)
    # tap (dx, dy) as an (O, k*C) matrix over the (dz, c) rows of _slabs
    w_taps = w.transpose(2, 3, 0, 4, 1).reshape(k, k, o, k * c)
    out = np.empty((n, o, sx, sy, sz), dtype=np.result_type(x, w))
    for i, x0, x1, taps in _slabs(x, k, o):
        acc = np.empty((o, (x1 - x0) * plane), dtype=out.dtype)
        np.matmul(w_taps, taps).sum(axis=(0, 1), out=acc[:, :taps.shape[3]])
        y = _interior(acc, x1 - x0, sy, sz, k)
        if b is None:
            out[i, :, x0:x1] = y
        else:
            np.add(y, b[:, None, None, None], out=out[i, :, x0:x1])
    return out


def conv3d(x: Tensor, w: Tensor, b: Tensor):
    """3D correlation, odd cubic kernel, stride 1, zero same-padding."""
    o, cin, k = w.shape[0], w.shape[1], w.shape[2]
    if x.shape[1] != cin:
        raise TensorError(f"conv3d channel mismatch: input {x.shape[1]}, "
                          f"weight {cin}")
    out_data = _correlate(x.data, w.data, b.data)

    def backward(g):
        gx = gw = gb = None
        if x.requires_grad:
            # correlating g with the flipped, transposed kernel
            w_flip = w.data.transpose(1, 0, 2, 3, 4)[:, :, ::-1, ::-1, ::-1]
            gx = _correlate(g, w_flip)
        if w.requires_grad:
            # g's slab on the padded grid, zero off the valid voxels, times
            # each tap's rows: gw_taps[dx, dy] is (O, k*C) over (dz, c)
            sy, sz = g.shape[3:]
            plane = (sy + k - 1) * (sz + k - 1)
            gw_taps = np.zeros((k, k, o, k * cin), dtype=g.dtype)
            for i, x0, x1, taps in _slabs(x.data, k, o):
                g_pad = np.zeros((o, (x1 - x0) * plane), dtype=g.dtype)
                _interior(g_pad, x1 - x0, sy, sz, k)[...] = g[i, :, x0:x1]
                gw_taps += np.matmul(g_pad[:, :taps.shape[3]],
                                     taps.swapaxes(2, 3))
            gw = np.ascontiguousarray(
                gw_taps.reshape(k, k, o, k, cin).transpose(2, 4, 0, 1, 3))
        if b.requires_grad:
            gb = g.sum(axis=(0, 2, 3, 4))
        return (gx, gw, gb)

    return Tensor._make(out_data, "conv3d", (x, w, b), backward)


def _window_argmax(x):
    """First-wins argmax over each 2x2x2 window of x (N, C, X, Y, Z), as
    (N, C, X/2, Y/2, Z/2) indices in (dx, dy, dz) order; NaN counts as
    the largest value, as in `np.argmax`."""
    n, c, sx, sy, sz = x.shape
    v = x.reshape(n, c, sx // 2, 2, sy // 2, 2, sz // 2, 2)
    v = np.ascontiguousarray(v.transpose(0, 1, 2, 4, 6, 3, 5, 7))
    return v.reshape(n, c, sx // 2, sy // 2, sz // 2, 8).argmax(axis=-1)


def maxpool3d(x: Tensor):
    """2x2x2 max pooling; spatial dims must be even.

    The forward takes pairwise maxima over x, then y, then z: the values
    of the first-wins gather at `_window_argmax`, NaN included, except
    that a tie of -0.0 and +0.0 may come out with either sign (relu
    outputs hold no -0.0). The argmax itself is computed only for the
    pattern hash, inside `Graph.forward_eval`, and in the backward.
    """
    n, c, sx, sy, sz = x.shape
    if sx % 2 or sy % 2 or sz % 2:
        raise TensorError(f"maxpool3d needs even spatial dims, got {(sx, sy, sz)}")
    d = x.data
    d = np.maximum(d[:, :, 0::2], d[:, :, 1::2])
    d = np.maximum(d[:, :, :, 0::2], d[:, :, :, 1::2])
    out_data = np.maximum(d[..., 0::2], d[..., 1::2])
    if _PATTERNS is not None:
        _PATTERNS.append(hash(_window_argmax(x.data).tobytes()))

    def backward(g):
        idx = _window_argmax(x.data)
        gv = np.zeros((n, c, sx // 2, sy // 2, sz // 2, 8), dtype=g.dtype)
        np.put_along_axis(gv, idx[..., None], g[..., None], axis=-1)
        gv = gv.reshape(n, c, sx // 2, sy // 2, sz // 2, 2, 2, 2)
        gv = gv.transpose(0, 1, 2, 5, 3, 6, 4, 7)
        return (gv.reshape(n, c, sx, sy, sz),)

    return Tensor._make(out_data, "maxpool3d", (x,), backward)


def upsample_nearest3d(x: Tensor):
    """Nearest-neighbour 2x upsampling along all three spatial axes."""
    out_data = x.data.repeat(2, axis=2).repeat(2, axis=3).repeat(2, axis=4)

    def backward(g):
        # each input voxel sums its 2x2x2 block: add neighbour pairs along
        # z, then y, then x
        g = g[..., 0::2] + g[..., 1::2]
        g = g[..., 0::2, :] + g[..., 1::2, :]
        return (g[:, :, 0::2] + g[:, :, 1::2],)

    return Tensor._make(out_data, "upsample3d", (x,), backward)


# -- graph wrapper ---------------------------------------------------------

class Graph:
    """A differentiable float64 scalar function of named leaf tensors.

    `build(leaves, inputs)` receives dicts of Tensors and must return a
    scalar Tensor. Leaves are trainable; inputs are constants.

    `patterns` holds the kink patterns of the last `forward_eval`: one
    hash per relu and max-pool its build ran, in order.
    """

    def __init__(self, build, leaves: dict):
        self.build = build
        self.leaves = {k: np.asarray(v, dtype=np.float64)
                       for k, v in leaves.items()}
        self.patterns = ()
        self._output = None
        self._leaf_tensors = None

    def forward_eval(self, inputs: dict | None = None) -> float:
        global _PATTERNS
        self._leaf_tensors = {k: Tensor(v, requires_grad=True)
                              for k, v in self.leaves.items()}
        in_tensors = {k: Tensor(np.asarray(v, dtype=np.float64))
                      for k, v in (inputs or {}).items()}
        _PATTERNS = []
        try:
            out = self.build(self._leaf_tensors, in_tensors)
        finally:
            self.patterns = tuple(_PATTERNS)
            _PATTERNS = None
        if out.data.size != 1:
            raise TensorError("graph output must be scalar")
        if not np.isfinite(out.data):
            raise NonFiniteError(self._first_nonfinite(out))
        self._output = out
        return float(out.data)

    @staticmethod
    def _first_nonfinite(out: Tensor) -> str:
        stack, seen = [out], set()
        culprit = out.op
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if not np.all(np.isfinite(node.data)):
                culprit = node.op
                stack.extend(node._prev)
        return culprit

    def backward_gradients(self) -> dict:
        if self._output is None:
            raise TensorError("backward_gradients called before forward_eval")
        self._output.backward()
        grads = {}
        for name, t in self._leaf_tensors.items():
            grads[name] = t.grad if t.grad is not None else np.zeros_like(t.data)
        self._output = None
        return grads
