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
its slice of the kernel; one BLAS gemv with ones(k^2) sums the tap
products into the slab's output (the weight gradient adds them into its
own taps) before the next slab. The padding is shared: one run of k // 2
zeros lies between neighbouring z-rows and y-rows, not one on each side,
so every GEMM, copy and crop runs over fewer columns. `as_tensor` turns
any other operand into a constant Tensor.

A node keeps its parents and its backward only when a parent requires a
gradient. A no-grad node keeps no parents, so a forward on constants
(inference) builds no tape: each activation is freed once its last
consumer has run. Work that only a backward reads, relu's mask and
maxpool's first maxima, is done in the backward.

`Tensor.backward` consumes the tape: once a node's backward has run, the
node drops its parents and its closure, so every activation and
intermediate gradient the caller does not hold is freed as soon as the
backward has passed it. A node the caller holds keeps its `data` and
`grad`. A fresh gradient array becomes its parent's `grad` uncopied.

Layout is row-major, matching the volume file format. `Graph` is the
float64 function the checker in `gradcheck` differentiates, and the only
forward that records kink patterns; it stays in this module because
perfbench's traced run wraps `tc.Graph` in place.
"""

from __future__ import annotations

import numpy as np


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


# about the bytes of z-shift rows, tap products and their sum one conv3d
# slab holds, so that they are still in L2 when read back; on a 2 MiB L2
# (one BLAS thread, float32), a sweep over 128 KiB-4 MiB of the backbone's
# layers ran fastest at 768 KiB-1 MiB: 1.01-1.07x slower at 512 KiB and
# 1.5 MiB, 1.1-1.2x at 256 KiB and 2 MiB, and 1.3-1.7x at 3-4 MiB
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
        """Accumulate d(self)/d(node) into the `grad` of every node on the
        tape that requires it, and consume the tape: afterwards no node
        keeps parents or a backward, and only what the caller holds is
        left. A second call reaches no node but `self`."""
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
        while topo:
            node = topo.pop()
            if node._backward is not None:
                _send_grads(node)
            # consumed: unless the caller holds the node, it goes now
            node._prev, node._backward = (), None


def _send_grads(node):
    """Run `node`'s backward and add each gradient into its parent's grad.

    A parent's first gradient is the returned array itself when nothing
    else can see it: an array of its own, writeable, C-contiguous, of the
    parent's dtype and shape, not `node.grad` and sent to no other parent.
    Anything else is copied: add hands `g` to both parents, reshape and
    concat hand back views of it, and sum a read-only broadcast.
    """
    grads = node._backward(node.grad)
    for p, g in zip(node._prev, grads):
        if not p.requires_grad or g is None:
            continue
        if p.grad is not None:
            p.grad += g
        elif (isinstance(g, np.ndarray) and g.flags.owndata
              and g.flags.writeable and g.flags.c_contiguous
              and g.dtype == p.data.dtype and g.shape == p.data.shape
              and g is not node.grad and sum(h is g for h in grads) == 1):
            p.grad = g
        else:
            p.grad = np.empty_like(p.data)
            np.copyto(p.grad, g)


def concat(tensors, axis):
    tensors = list(tensors)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.split(g, splits, axis=axis))

    return Tensor._make(np.concatenate([t.data for t in tensors], axis=axis),
                        "concat", tensors, backward)


# -- spatial ops (N, C, X, Y, Z) ------------------------------------------

def _grid(sy, sz, k):
    """(p, pz, plane) of the shared-padding grid of (sy, sz) x-planes: p =
    k // 2 zeros follow each z-row and p zero rows each x-plane, so a z-row
    spans pz = sz + p columns and an x-plane plane = (sy + p) * pz. Voxel
    (x, y, z) sits at column x * plane + y * pz + z."""
    p = k // 2
    pz = sz + p
    return p, pz, (sy + p) * pz


def _slab_planes(x, k, o):
    """(planes, cols) of `_slabs(x, k, o)`: output x-planes per slab, one at
    least, and a full slab's grid columns, to its last valid voxel."""
    c, sx, sy, sz = x.shape[1:]
    p, pz, plane = _grid(sy, sz, k)
    planes = min(sx, max(1, _SLAB_BYTES
                         // ((k * c + (k * k + 1) * o) * plane * x.itemsize)))
    return planes, planes * plane - p * (pz + 1)


def _slabs(x, k, o):
    """The z-shifted rows of x (N, C, X, Y, Z) on the shared-padding grid
    of `_grid`, one slab of output x-planes at a time, with every (dx, dy)
    tap as a strided view of them; o is the output channel count, for the
    budget.

    Yields (i, x0, x1, taps): taps is a read-only (k, k, k*C, L) view whose
    [dx, dy] matrix holds, at row (dz, c) and column j, the padded input of
    batch item i that output column j meets through tap (dx, dy, dz).
    Output columns run over the grid of x-planes x0:x1, up to the last
    valid voxel; `_valid` views the valid ones.

    Neighbouring rows and planes share one pad: each channel's copy is a
    (X + 2p + 1, Y + p, Z + p) array holding voxel (x, y, z) at
    [x + p, y + p, z + p]: p zero planes and then p * pz + p zeros lead
    the first voxel, and p + 1 zero planes follow the last x-plane. A tap
    that reaches past y = 0 or z = 0 reads the zeros that end the row or
    plane before, and past the far side those that end its own. Tap
    (dx, dy, dz) of output column j reads column j + dx * plane + dy * pz
    + dz of the flattened copy.

    One buffer of k*C rows serves every slab. Each row is one contiguous
    run of a padded channel, so a slab copies k shifts of the input where
    an im2col patch matrix copies k^3. A slab holds about _SLAB_BYTES of
    that buffer, of the (k, k, O, L) tap products and of their (O, L) sum,
    one x-plane at least.
    """
    n, c, sx, sy, sz = x.shape
    p, pz, plane = _grid(sy, sz, k)
    xp = np.zeros((n, c, sx + 2 * p + 1, sy + p, pz), dtype=x.dtype)
    xp[:, :, p:p + sx, p:p + sy, p:p + sz] = x
    length, s = xp[0, 0].size, xp.itemsize
    src = np.ndarray((n, k, c, length - k + 1), x.dtype, xp, 0,
                     (c * length * s, s, length * s, s))
    # tap (dx, dy) reads dx*plane + dy*pz columns past its output column
    reach = (k - 1) * (plane + pz)
    planes, cols = _slab_planes(x, k, o)
    buf = np.empty((k * c, cols + reach), dtype=x.dtype)
    taps = np.ndarray((k, k, k * c, cols), x.dtype, buf, 0,
                      (plane * s, pz * s) + buf.strides)
    src.flags.writeable = taps.flags.writeable = False
    for i in range(n):
        for x0 in range(0, sx, planes):
            x1 = min(x0 + planes, sx)
            m = cols - (x0 + planes - x1) * plane
            np.copyto(buf[:, :m + reach].reshape(k, c, -1),
                      src[i, :, :, x0 * plane:x0 * plane + m + reach])
            yield i, x0, x1, taps[..., :m]


def _valid(a, planes, sy, sz, k):
    """The (rows, planes, sy, sz) valid voxels of the C-contiguous
    (rows, L) array a, whose columns run over `planes` x-planes of the
    `_grid(sy, sz, k)` grid; a view of a's buffer."""
    _, pz, plane = _grid(sy, sz, k)
    s = a.itemsize
    return np.ndarray((a.shape[0], planes, sy, sz), a.dtype, a, 0,
                      (a.strides[0], plane * s, pz * s, s))


def _correlate(x, w, b=None):
    """Same-padded correlation of x (N, C, X, Y, Z) with w (O, C, k, k, k),
    plus the bias b (O,) if given, as a C-contiguous (N, O, X, Y, Z) array.
    """
    n, c, sx, sy, sz = x.shape
    o, k = w.shape[0], w.shape[2]
    # tap (dx, dy) as an (O, k*C) matrix over the (dz, c) rows of _slabs
    w_taps = w.transpose(2, 3, 0, 4, 1).reshape(k, k, o, k * c)
    out = np.empty((n, o, sx, sy, sz), dtype=np.result_type(x, w))
    # the largest slab's k^2 tap products and their sum, O*L values each,
    # reused by every slab
    size = o * _slab_planes(x, k, o)[1]
    prod, acc = np.empty(k * k * size, out.dtype), np.empty(size, out.dtype)
    ones = np.ones(k * k, out.dtype)
    for i, x0, x1, taps in _slabs(x, k, o):
        cols = taps.shape[3]
        rows = prod[:k * k * o * cols].reshape(k * k, o * cols)
        np.matmul(w_taps, taps, out=rows.reshape(k, k, o, cols))
        y = np.dot(ones, rows, out=acc[:o * cols]).reshape(o, cols)
        y = _valid(y, x1 - x0, sy, sz, k)
        if b is None:
            out[i, :, x0:x1] = y
        else:
            np.add(y, b[:, None, None, None], out=out[i, :, x0:x1])
    return out


def conv3d(x: Tensor, w: Tensor, b: Tensor):
    """3D correlation, odd cubic kernel, stride 1, zero same-padding: x is
    (N, C, X, Y, Z), w (O, C, k, k, k) and b (O,)."""
    xs, ws = x.data.shape, w.data.shape
    if (len(xs) != 5 or len(ws) != 5 or ws[2:] != (ws[2],) * 3
            or ws[2] % 2 == 0 or b.data.shape != ws[:1]):
        raise TensorError(f"conv3d needs x (N, C, X, Y, Z), w (O, C, k, k, "
                          f"k) with odd k and b (O,), got x {xs}, w {ws}, "
                          f"b {b.data.shape}")
    o, cin, k = ws[:3]
    if xs[1] != cin:
        raise TensorError(f"conv3d channel mismatch: input {xs[1]}, "
                          f"weight {cin}")
    out_data = _correlate(x.data, w.data, b.data)

    def backward(g):
        gx = gw = gb = None
        if x.requires_grad:
            # correlating g with the flipped, transposed kernel
            w_flip = w.data.transpose(1, 0, 2, 3, 4)[:, :, ::-1, ::-1, ::-1]
            gx = _correlate(g, w_flip)
        if w.requires_grad:
            # g's slab on the padded grid, zero off the valid voxels (a
            # short last slab's are a subset of a full one's), times each
            # tap's rows: gw_taps[dx, dy] is (O, k*C) over (dz, c)
            sy, sz = g.shape[3:]
            gw_taps = np.zeros((k, k, o, k * cin), dtype=g.dtype)
            g_pad = np.zeros((o, _slab_planes(x.data, k, o)[1]), g.dtype)
            for i, x0, x1, taps in _slabs(x.data, k, o):
                _valid(g_pad, x1 - x0, sy, sz, k)[...] = g[i, :, x0:x1]
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
    pattern hash, inside `Graph.forward_eval`. The backward routes each
    window's gradient to the same first maximum, found by comparing the
    window's 8 entries with the pooled value in (dx, dy, dz) order.
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
        gx = np.zeros(x.shape, dtype=g.dtype)
        free = np.ones(out_data.shape, dtype=bool)  # no maximum found yet
        hit = np.empty(out_data.shape, dtype=bool)
        # a window holding NaN pools to NaN, and its first NaN wins
        nan = np.isnan(out_data).any()
        for dx, dy, dz in np.ndindex(2, 2, 2):
            xs = x.data[:, :, dx::2, dy::2, dz::2]
            np.equal(xs, out_data, out=hit)
            if nan:
                hit |= np.isnan(xs)
            hit &= free
            np.copyto(gx[:, :, dx::2, dy::2, dz::2], g, where=hit)
            free ^= hit
        return (gx,)

    return Tensor._make(out_data, "maxpool3d", (x,), backward)


def upsample_nearest3d(x: Tensor):
    """Nearest-neighbour 2x upsampling along all three spatial axes."""
    # one repeat along z, then one broadcast copy doubles x and y
    n, c, sx, sy, sz = x.shape
    out_data = np.empty((n, c, sx, 2, sy, 2, 2 * sz), x.dtype)
    out_data[...] = x.data.repeat(2, axis=4)[:, :, :, None, :, None]
    out_data = out_data.reshape(n, c, 2 * sx, 2 * sy, 2 * sz)

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
