"""Dense nd-arrays with reverse-mode differentiation.

Only the operation set needed by the segmentation model is implemented:
elementwise arithmetic, exp/log, rectifier, logistic squashing, softmax (a
composite of these), reductions, matmul, basic indexing (ints, slices,
Ellipsis), channel concatenation, 3D convolution (kernel 1 or 3, stride 1,
same padding), 2x max-pooling and 2x nearest-neighbour upsampling.
`as_tensor` turns any other operand into a constant Tensor.

Layout is row-major with the last index varying fastest, matching the
volume file format. Gradient checking always runs in float64; float32 is
for training speed only. The checker itself lives in `gradcheck`;
Graph and track_patterns stay here: perfbench's traced run wraps tc.Graph.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class TensorError(ValueError):
    """Shape mismatch or other structural misuse of a tensor op."""


class NonFiniteError(ArithmeticError):
    """A forward pass produced NaN or Inf; carries the producing op."""

    def __init__(self, op: str):
        super().__init__(f"non-finite value produced by op '{op}'")
        self.op = op


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# when enabled, relu/maxpool record their activation pattern; the
# finite-difference checker skips elements whose pattern flips between the
# two perturbed evaluations, where a central difference is not a derivative
_TRACK_PATTERNS = False
_PATTERNS: list = []


def track_patterns(enable: bool):
    global _TRACK_PATTERNS
    _TRACK_PATTERNS = enable
    _PATTERNS.clear()


def as_tensor(x, dtype=None):
    """`x` itself if it is a Tensor, else a constant Tensor of it."""
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=dtype))


class Tensor:
    """A dense array plus the tape entry that produced it."""

    __slots__ = ("data", "grad", "requires_grad", "op", "_prev", "_backward")

    def __init__(self, data, requires_grad=False, op="leaf", prev=()):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self.op = op
        self._prev = prev
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
        """Tape node for `data`; keeps `backward` only if a parent needs it."""
        out = Tensor(data, op=op, prev=tuple(prev))
        out.requires_grad = any(p.requires_grad for p in out._prev)
        if out.requires_grad:
            out._backward = backward
        return out

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other, self.dtype)

        def backward(g):
            return (_unbroadcast(g, self.shape), _unbroadcast(g, other.shape))

        return self._make(self.data + other.data, "add", (self, other), backward)

    __radd__ = __add__

    def __neg__(self):
        return self._make(-self.data, "neg", (self,), lambda g: (-g,))

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

    def __pow__(self, n):
        if not isinstance(n, (int, float)):
            raise TensorError("only constant exponents are supported")

        def backward(g):
            return (g * n * self.data ** (n - 1),)

        return self._make(self.data ** n, f"pow{n}", (self,), backward)

    # -- elementwise functions --------------------------------------------

    def exp(self):
        out_data = np.exp(self.data)
        return self._make(out_data, "exp", (self,), lambda g: (g * out_data,))

    def log(self):
        return self._make(np.log(self.data), "log", (self,),
                          lambda g: (g / self.data,))

    def relu(self):
        mask = self.data > 0
        if _TRACK_PATTERNS:
            _PATTERNS.append(hash(mask.tobytes()))
        return self._make(np.where(mask, self.data, 0.0), "relu", (self,),
                          lambda g: (g * mask,))

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
        # a read-only view suffices: backward adds it into an array of its own
        def backward(g):
            ga = g if keepdims or axis is None else np.expand_dims(g, axis)
            return (np.broadcast_to(ga, self.shape),)

        return self._make(self.data.sum(axis=axis, keepdims=keepdims),
                          "sum", (self,), backward)

    def mean(self, axis=None, keepdims=False):
        n = self.data.size if axis is None else np.prod(
            [self.shape[a] for a in np.atleast_1d(axis)])
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(n))

    def reshape(self, *shape):
        def backward(g):
            return (g.reshape(self.shape),)

        return self._make(self.data.reshape(shape), "reshape", (self,), backward)

    def transpose(self, *axes):
        inv = np.argsort(axes)

        def backward(g):
            return (g.transpose(inv),)

        return self._make(self.data.transpose(axes), "transpose", (self,), backward)

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

    def __matmul__(self, other):
        other = as_tensor(other, self.dtype)
        if self.data.ndim != 2 or other.data.ndim != 2:
            raise TensorError("matmul expects 2-D operands")

        def backward(g):
            return (g @ other.data.T, self.data.T @ g)

        return self._make(self.data @ other.data, "matmul", (self, other), backward)

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
                    p.grad = np.zeros_like(p.data)
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

def _conv3d_raw(x, w, bias=None):
    """Stride-1 same-padding correlation; kernel extent 1 or 3 per axis."""
    n, cin, sx, sy, sz = x.shape
    cout, cin_w, k, _, _ = w.shape
    if cin != cin_w:
        raise TensorError(f"conv3d channel mismatch: input {cin}, weight {cin_w}")
    if k == 1:
        out = np.einsum("ncxyz,oc->noxyz", x, w[:, :, 0, 0, 0], optimize=True)
    else:
        p = k // 2
        xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p), (p, p)))
        win = sliding_window_view(xp, (k, k, k), axis=(2, 3, 4))
        out = np.einsum("ncxyzijk,ocijk->noxyz", win, w, optimize=True)
    if bias is not None:
        out = out + bias[None, :, None, None, None]
    return out


def conv3d(x: Tensor, w: Tensor, b: Tensor):
    """3D convolution, kernel 1 or 3, stride 1, zero same-padding."""
    k = w.shape[2]
    out_data = _conv3d_raw(x.data, w.data, b.data)

    def backward(g):
        g = np.ascontiguousarray(g)
        if x.requires_grad:
            w_flip = w.data.transpose(1, 0, 2, 3, 4)
            if k == 3:
                w_flip = w_flip[:, :, ::-1, ::-1, ::-1]
            gx = _conv3d_raw(g, np.ascontiguousarray(w_flip))
        else:
            gx = None
        if not w.requires_grad:
            gw = None
        elif k == 1:
            gw = np.einsum("noxyz,ncxyz->oc", g, x.data,
                           optimize=True).reshape(w.shape)
        else:
            p = k // 2
            xp = np.pad(x.data, ((0, 0), (0, 0), (p, p), (p, p), (p, p)))
            win = sliding_window_view(xp, (k, k, k), axis=(2, 3, 4))
            gw = np.einsum("noxyz,ncxyzijk->ocijk", g, win, optimize=True)
        gb = g.sum(axis=(0, 2, 3, 4)) if b.requires_grad else None
        return (gx, gw, gb)

    return Tensor._make(out_data, "conv3d", (x, w, b), backward)


def maxpool3d(x: Tensor):
    """2x2x2 max pooling; spatial dims must be even."""
    n, c, sx, sy, sz = x.shape
    if sx % 2 or sy % 2 or sz % 2:
        raise TensorError(f"maxpool3d needs even spatial dims, got {(sx, sy, sz)}")
    v = x.data.reshape(n, c, sx // 2, 2, sy // 2, 2, sz // 2, 2)
    v = np.ascontiguousarray(v.transpose(0, 1, 2, 4, 6, 3, 5, 7))
    v = v.reshape(n, c, sx // 2, sy // 2, sz // 2, 8)
    idx = v.argmax(axis=-1)
    if _TRACK_PATTERNS:
        _PATTERNS.append(hash(idx.tobytes()))
    out_data = np.take_along_axis(v, idx[..., None], axis=-1)[..., 0]

    def backward(g):
        gv = np.zeros((n, c, sx // 2, sy // 2, sz // 2, 8), dtype=g.dtype)
        np.put_along_axis(gv, idx[..., None], g[..., None], axis=-1)
        gv = gv.reshape(n, c, sx // 2, sy // 2, sz // 2, 2, 2, 2)
        gv = gv.transpose(0, 1, 2, 5, 3, 6, 4, 7)
        return (gv.reshape(n, c, sx, sy, sz),)

    return Tensor._make(out_data, "maxpool3d", (x,), backward)


def upsample_nearest3d(x: Tensor):
    """Nearest-neighbour 2x upsampling along all three spatial axes."""
    n, c, sx, sy, sz = x.shape
    out_data = x.data.repeat(2, axis=2).repeat(2, axis=3).repeat(2, axis=4)

    def backward(g):
        gv = g.reshape(n, c, sx, 2, sy, 2, sz, 2)
        return (gv.sum(axis=(3, 5, 7)),)

    return Tensor._make(out_data, "upsample3d", (x,), backward)


# -- graph wrapper ---------------------------------------------------------

class Graph:
    """A differentiable scalar function of named leaf tensors.

    `build(leaves, inputs)` receives dicts of Tensors and must return a
    scalar Tensor. Leaves are trainable; inputs are constants.
    """

    def __init__(self, build, leaves: dict, dtype=np.float64):
        self.build = build
        self.dtype = np.dtype(dtype)
        self.leaves = {k: np.asarray(v, dtype=self.dtype) for k, v in leaves.items()}
        self._output = None
        self._leaf_tensors = None
        self.last_pattern = ()

    def forward_eval(self, inputs: dict | None = None) -> float:
        self._leaf_tensors = {k: Tensor(v, requires_grad=True)
                              for k, v in self.leaves.items()}
        in_tensors = {k: Tensor(np.asarray(v, dtype=self.dtype))
                      for k, v in (inputs or {}).items()}
        if _TRACK_PATTERNS:
            _PATTERNS.clear()
        out = self.build(self._leaf_tensors, in_tensors)
        self.last_pattern = tuple(_PATTERNS) if _TRACK_PATTERNS else ()
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
