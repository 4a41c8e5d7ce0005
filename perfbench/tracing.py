"""In-memory span tracing of evidseg from outside the package.

The tracer wraps public functions of the program at run time and records a
span (name, start, end, parent, path) around each call. Backward work is
attributed by wrapping the backward closures of the tape nodes a wrapped
layer call returned: a node belongs to every traced layer whose call
created it, so `backbone_unet.bwd_s` includes the conv3d backward of the
backbone's convolutions, and a layer that becomes a single fused tape op
is still attributed. Nothing in the package is edited; every patch is
undone when the `instrument` context exits.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

from evidseg import backbone_unet as bb
from evidseg import cli
from evidseg import evidential_head as ev
from evidseg import gradcheck as gc
from evidseg import metrics as mx
from evidseg import objectives as obj
from evidseg import tensor_core as tc
from evidseg import trainer as tr
from evidseg import volume_io as vio

NAME, START, END, PARENT, PATH = range(5)


class Tracer:
    """Spans and counters kept in memory until the run ends."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, path]
        self.stack = []
        self.counts = defaultdict(float)  # (path, name) -> value
        self.path = None
        self.param_names = {}    # id(Tensor) -> parameter name
        self.step = None         # index of the open trainer.step span

    def begin(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.path])
        self.stack.append(idx)
        return idx

    def end(self, idx):
        """Close span `idx` and any span left open inside it."""
        now = time.perf_counter()
        while self.stack:
            top = self.stack.pop()
            self.spans[top][END] = now
            if top == idx:
                break
        return now - self.spans[idx][START]

    def add(self, name, value=1.0):
        self.counts[(self.path, name)] += value

    def parent_name(self):
        return self.spans[self.stack[-1]][NAME] if self.stack else None

    def claim(self, out, label, args):
        """Tag the tape nodes created by one layer call with `label`.

        Walks back from the call's output(s) and stops at the tensors the
        call received, at leaves and at constants: what remains was built
        by the call.
        """
        stop = {id(t) for t in _tensors(args)}
        stack, seen, n = list(_tensors(out)), set(), 0
        while stack:
            t = stack.pop()
            if id(t) in seen or id(t) in stop or t._backward is None:
                continue
            seen.add(id(t))
            n += 1
            bw = t._backward
            if isinstance(bw, TimedBackward):
                if label not in bw.labels:
                    bw.labels.append(label)
            else:
                t._backward = TimedBackward(self, bw, label)
            stack.extend(t._prev)
        self.add(label + ".tape_nodes", n)

    def dump(self, path):
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "path"],
                       "spans": self.spans,
                       "counts": [[p, n, v] for (p, n), v in
                                  sorted(self.counts.items(), key=str)]}, f)


class TimedBackward:
    """A tape node's backward closure, timed and labelled by its layers.

    `labels[0]` is the innermost layer (the first to claim the node); the
    node's time is added to the `.bwd_s` counter of every label.
    """

    __slots__ = ("tracer", "fn", "labels")

    def __init__(self, tracer, fn, label):
        self.tracer, self.fn, self.labels = tracer, fn, [label]

    def __call__(self, g):
        t = self.tracer
        idx = t.begin(self.labels[0] + ".bwd")
        try:
            return self.fn(g)
        finally:
            dt = t.end(idx)
            for label in self.labels:
                t.add(label + ".bwd_s", dt)


def _tensors(obj_):
    if isinstance(obj_, tc.Tensor):
        yield obj_
    elif isinstance(obj_, dict):
        for v in obj_.values():
            yield from _tensors(v)
    elif isinstance(obj_, (list, tuple)):
        for v in obj_:
            yield from _tensors(v)


def tape_size(root):
    """Nodes with a pending backward closure reachable from `root`."""
    stack, seen, n = [root], set(), 0
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if t._backward is not None:
            n += 1
        stack.extend(p for p in t._prev if p.requires_grad)
    return n


# -- conv3d work computed from shapes ---------------------------------------

def conv3d_counts(x_shape, w_shape, itemsize, grad_x=False, grad_w=False,
                  grad_b=False):
    """(flop, bytes) of one stride-1 same-padding conv3d, from shapes alone.

    The forward pass always counts; each requested gradient adds its own
    work. A multiply-add counts as 2 flop; the bias adds N*Cout*XYZ flop.
    Bytes are each operand read once and each result written once,
    ignoring the padded copy and caches, so they are a computed lower
    bound.
    """
    n, cin, sx, sy, sz = x_shape
    cout, _, k, _, _ = w_shape
    vox = sx * sy * sz
    mac = n * cout * cin * k ** 3 * vox
    x_el, w_el, y_el = n * cin * vox, cout * cin * k ** 3, n * cout * vox
    flop = 2 * mac + y_el
    elements = x_el + w_el + cout + y_el
    if grad_x:
        flop += 2 * mac
        elements += y_el + w_el + x_el
    if grad_w:
        flop += 2 * mac
        elements += y_el + x_el + w_el
    if grad_b:
        flop += y_el
        elements += y_el + cout
    return flop, elements * itemsize


# -- wrappers ---------------------------------------------------------------

def _span(t, fn, name, claim=None):
    def wrapped(*args, **kwargs):
        idx = t.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            t.end(idx)
        if claim:
            t.claim(out, claim, (args, kwargs))
        return out
    return wrapped


def _conv3d(t, fn):
    def wrapped(x, w, b):
        name = t.param_names.get(id(w), "other.w")
        level = name.split(".")[0]
        idx = t.begin(f"tensor_core.conv3d.{level}.fwd")
        try:
            out = fn(x, w, b)
        finally:
            t.end(idx)
        flop, nbytes = conv3d_counts(
            x.shape, w.shape, x.data.itemsize,
            grad_x=out.requires_grad and x.requires_grad,
            grad_w=out.requires_grad and w.requires_grad,
            grad_b=out.requires_grad and b.requires_grad)
        t.add("tensor_core.conv3d.flop", flop)
        t.add("tensor_core.conv3d.bytes", nbytes)
        t.claim(out, f"tensor_core.conv3d.{level}", (x, w, b))
        return out
    return wrapped


def _forward_features(t, fn):
    inner = _span(t, fn, "backbone_unet.forward_features", "backbone_unet")

    def wrapped(params, x, config):
        t.param_names = {id(v): k for k, v in params.items()
                         if isinstance(v, tc.Tensor)}
        return inner(params, x, config)
    return wrapped


def _sample_patch(t, fn):
    inner = _span(t, fn, "trainer.sample_patch")

    def wrapped(*args, **kwargs):
        if t.step is None:
            t.step = t.begin("trainer.step")
        return inner(*args, **kwargs)
    return wrapped


def _adam_step(t, fn):
    inner = _span(t, fn, "trainer.adam_step")

    def wrapped(*args, **kwargs):
        try:
            return inner(*args, **kwargs)
        finally:
            if t.step is not None:
                t.end(t.step)
                t.step = None
    return wrapped


def _predict_masses(t, fn):
    inner = _span(t, fn, "trainer.Model.predict_masses")

    def wrapped(self, x):
        if t.parent_name() == "metrics.sliding_window_masses":
            t.add("metrics.windows")
        return inner(self, x)
    return wrapped


def _read_volume(t, fn):
    def wrapped(path):
        v = fn(path)
        t.add("volume_io.bytes_read", _file_size(path))
        return v
    return wrapped


def _file_size(path):
    with open(path, "rb") as f:
        return f.seek(0, 2)


def _backward(t, fn):
    def wrapped(self):
        t.add("tensor_core.tape_nodes", tape_size(self))
        t.add("tensor_core.backward_calls")
        idx = t.begin("tensor_core.backward")
        try:
            return fn(self)
        finally:
            t.end(idx)
    return wrapped


def _run_case(t, fn):
    def wrapped(name, *args, **kwargs):
        idx = t.begin(f"gradcheck.case.{name}")
        try:
            return fn(name, *args, **kwargs)
        finally:
            t.end(idx)
    return wrapped


def _patches(t, path):
    """(owner, attribute, wrapper) for every function traced on `path`."""
    if path == "gradcheck":
        return [
            (gc, "run_case", _run_case(t, gc.run_case)),
            (tc.Graph, "forward_eval",
             _span(t, tc.Graph.forward_eval, "gradcheck.forward_eval")),
            (tc.Graph, "backward_gradients",
             _span(t, tc.Graph.backward_gradients,
                   "gradcheck.backward_gradients")),
            (tc.Tensor, "backward", _backward(t, tc.Tensor.backward)),
        ]
    if path == "setup":
        return [
            (vio, "generate_phantom",
             _span(t, vio.generate_phantom, "volume_io.generate_phantom")),
            (vio, "write_dataset",
             _span(t, vio.write_dataset, "volume_io.write_dataset")),
        ]
    # (owner, attribute, span name, label claiming the call's tape nodes)
    plain = [
        (bb, "maxpool3d", "tensor_core.maxpool3d.fwd", "tensor_core.maxpool3d"),
        (bb, "upsample_nearest3d", "tensor_core.upsample3d.fwd",
         "tensor_core.upsample3d"),
        (bb, "concat", "tensor_core.concat.fwd", "tensor_core.concat"),
        (ev, "es_forward", "evidential_head.es_forward", "evidential_head"),
        (ev, "distance_activation", "evidential_head.distance_activation",
         "evidential_head.distance_activation"),
        (ev, "bba", "evidential_head.bba", "evidential_head.bba"),
        (ev, "dempster_fuse", "evidential_head.dempster_fuse",
         "evidential_head.dempster_fuse"),
        (obj, "total_loss", "objectives.total_loss", "objectives"),
        (obj, "dice_loss", "objectives.dice_loss", "objectives"),
        (obj, "lesion_map", "objectives.lesion_map", "objectives"),
        (tr.Model, "forward", "trainer.Model.forward", "trainer.Model.forward"),
        (tr, "prepare_case", "trainer.prepare_case", None),
        (tr, "validation_stats", "trainer.validation_stats", None),
        (tr, "load_checkpoint", "trainer.load_checkpoint", None),
        (ev, "decide", "evidential_head.decide", None),
        (cli, "decide", "evidential_head.decide", None),
        (mx, "sliding_window_masses", "metrics.sliding_window_masses", None),
        (mx, "evaluate_cases", "metrics.evaluate_cases", None),
        (vio, "read_dataset", "volume_io.read_dataset", None),
    ]
    return [(owner, attr, _span(t, getattr(owner, attr), name, label))
            for owner, attr, name, label in plain] + [
        (bb, "conv3d", _conv3d(t, bb.conv3d)),
        (tc, "conv3d", _conv3d(t, tc.conv3d)),
        (bb, "forward_features", _forward_features(t, bb.forward_features)),
        (tc.Tensor, "backward", _backward(t, tc.Tensor.backward)),
        (tr, "sample_patch", _sample_patch(t, tr.sample_patch)),
        (tr, "adam_step", _adam_step(t, tr.adam_step)),
        (tr.Model, "predict_masses",
         _predict_masses(t, tr.Model.predict_masses)),
        (vio, "read_volume", _read_volume(t, vio.read_volume)),
    ]


@contextlib.contextmanager
def instrument(t, path):
    """Trace calls on `path` ("train-es", "train-softmax", "eval",
    "gradcheck" or "setup") under one root span, then restore the program."""
    if t is None:
        yield
        return
    patches = _patches(t, path)
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    for owner, attr, fn in patches:
        setattr(owner, attr, fn)
    t.path = path
    root = t.begin(f"op.{path}")
    try:
        yield
    finally:
        t.end(root)
        t.step = None
        t.path = None
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


# -- analysis ---------------------------------------------------------------

def self_times(spans):
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        lo, hi = s[START], s[END]
        covered, cur_lo, cur_hi = 0.0, None, None
        for a, b in sorted((max(spans[c][START], lo), min(spans[c][END], hi))
                           for c in children[i]):
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(hi - lo - covered)
    return out
