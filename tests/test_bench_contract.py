"""The program surface the benchmark's traced run patches by attribute.

perfbench/tracing.py wraps functions of the package by name at run time. A
rename, or a head function bound at import time instead of looked up per
call, would only show up as a failed or silently incomplete traced run;
these tests make it fail here. The last one runs perfbench/selftest.py,
which checks the benchmark's own arithmetic against each path once.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from evidseg import objectives as obj
from evidseg.backbone_unet import BackboneConfig
from evidseg.trainer import Model, TrainConfig
from perfbench import tracing


@pytest.mark.parametrize("path", ["train-es", "train-softmax", "eval",
                                  "gradcheck", "setup"])
def test_every_patched_attribute_exists(path):
    with tracing.instrument(tracing.Tracer(), path):
        pass


@pytest.mark.parametrize("head,span", [
    ("evidential", "evidential_head.es_forward"),
    ("softmax", "tensor_core.conv3d.head.fwd"),
])
def test_head_call_is_traced(head, span):
    model = Model.create(BackboneConfig(channels=(2, 4)), head,
                         TrainConfig(prototypes=3), seed=0)
    x = np.zeros((1, 2, 16, 16, 16), dtype=np.float32)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer, "train-es"):
        model.forward(x, trainable=True)
    assert span in {s[tracing.NAME] for s in tracer.spans}


@pytest.mark.parametrize("head,path,nodes", [
    ("evidential", "train-es", 61),
    ("softmax", "train-softmax", 59),
])
def test_traced_desk_step_counts_its_tape_before_the_backward(head, path,
                                                              nodes):
    # the backward consumes its tape, so the count perfbench takes as the
    # backward starts is the only one that sees it whole
    model = Model.create(BackboneConfig(), head, TrainConfig(), seed=0)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 2, 32, 32, 32)).astype(np.float32)
    g = (rng.random((2, 32, 32, 32)) < 0.1).astype(np.float32)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer, path):
        out, leaves = model.forward(x, trainable=True)
        total, _ = obj.total_loss(out, g, leaves.get("es.alpha_logits"),
                                  lam=TrainConfig().lam)
        total.backward()
    assert tracer.counts[(path, "tensor_core.tape_nodes")] == nodes
    if head == "evidential":
        assert tracer.counts[(path, "evidential_head.tape_nodes")] == 5
    assert tracing.tape_size(total) == 0


def test_perfbench_selftest_passes():
    # the benchmark's own checks of its arithmetic, names and traced paths
    done = subprocess.run([sys.executable, "perfbench/selftest.py"],
                          cwd=Path(__file__).resolve().parent.parent,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr[-2000:]
