"""The program surface the benchmark's traced run patches by attribute.

perfbench/tracing.py wraps functions of the package by name at run time. A
rename, or a head function bound at import time instead of looked up per
call, would only show up as a failed or silently incomplete traced run;
these tests make it fail here.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from evidseg.backbone_unet import BackboneConfig  # noqa: E402
from evidseg.trainer import Model, TrainConfig  # noqa: E402
from perfbench import tracing  # noqa: E402


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
