"""Slim 3D encoder-decoder feature extractor.

Each level runs two (3x3x3 conv -> rectifier) blocks; levels are joined by
2x max-pool on the way down and nearest-neighbour upsample + conv with
channel-concatenation skips on the way up. A final 1x1x1 conv maps back to
the first-level width, which is the per-voxel feature dimension fed to the
evidential head.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_core import (Tensor, as_tensor, concat, conv3d, maxpool3d,
                          upsample_nearest3d)

FULL_CHANNELS = (8, 16, 32, 64, 128)  # full-scale configuration
DESK_CHANNELS = (4, 8, 16)            # desk-scale default
IN_CHANNELS = 2                       # PET and CT, stacked


def as_int(name: str, value) -> int:
    """`value` as an int; a ValueError naming `name` unless it is a Python or
    numpy integer (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name}: expected an integer, got {value!r}")
    return int(value)


def as_ints(name: str, values) -> tuple:
    """`values` as a tuple of ints; a ValueError naming `name` unless it is a
    list, tuple or 1-D numpy array of integers."""
    if not (isinstance(values, (list, tuple))
            or isinstance(values, np.ndarray) and values.ndim == 1):
        raise ValueError(f"{name}: expected a list of integers, "
                         f"got {values!r}")
    return tuple(as_int(name, v) for v in values)


def as_real(name: str, value):
    """`value` as a JSON-serializable real; a ValueError naming `name` unless
    it is a Python or numpy integer or float (a bool is not). Python ints
    and floats come back as given, numpy ones as Python floats."""
    if isinstance(value, bool) or not isinstance(
            value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name}: expected a real number, got {value!r}")
    return value if type(value) in (int, float) else float(value)


@dataclass
class BackboneConfig:
    channels: tuple = DESK_CHANNELS

    def __post_init__(self):
        self.channels = as_ints("channels", self.channels)
        if len(self.channels) < 2:
            raise ValueError(f"channels must name at least 2 levels: "
                             f"{self.channels}")
        if self.channels[0] < 1 or any(
                b <= a for a, b in zip(self.channels, self.channels[1:])):
            raise ValueError(f"channels must be positive and strictly "
                             f"increasing: {self.channels}")

    @property
    def levels(self):
        return len(self.channels)

    @property
    def feature_dim(self):
        return self.channels[0]

    def check_dims(self, dims):
        div = 2 ** (self.levels - 1)
        bad = {ax: (div - d % div) % div for ax, d in zip("xyz", dims) if d % div}
        if bad:
            pad = ", ".join(f"{ax}: +{p}" for ax, p in bad.items())
            raise ValueError(
                f"spatial dims {tuple(dims)} not divisible by {div}; "
                f"required padding {pad}")


def _conv_shapes(config: BackboneConfig):
    """Yield (name, weight_shape) for every conv in the network."""
    ch = config.channels
    for i in range(config.levels):
        cin = IN_CHANNELS if i == 0 else ch[i - 1]
        yield f"enc{i}.conv0", (ch[i], cin, 3, 3, 3)
        yield f"enc{i}.conv1", (ch[i], ch[i], 3, 3, 3)
    for i in range(config.levels - 2, -1, -1):
        yield f"dec{i}.up", (ch[i], ch[i + 1], 3, 3, 3)
        yield f"dec{i}.conv0", (ch[i], 2 * ch[i], 3, 3, 3)
        yield f"dec{i}.conv1", (ch[i], ch[i], 3, 3, 3)
    yield "final", (ch[0], ch[0], 1, 1, 1)


def init_backbone(config: BackboneConfig, seed: int, dtype=np.float64) -> dict:
    """Fan-in-scaled uniform weights, zero biases, deterministic per seed."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in _conv_shapes(config):
        fan_in = int(np.prod(shape[1:]))
        bound = np.sqrt(6.0 / fan_in)
        params[f"{name}.w"] = rng.uniform(-bound, bound, size=shape).astype(dtype)
        params[f"{name}.b"] = np.zeros(shape[0], dtype=dtype)
    return params


def _block(params, name, x):
    return conv3d(x, as_tensor(params[f"{name}.w"]),
                  as_tensor(params[f"{name}.b"])).relu()


def forward_features(params: dict, x: Tensor, config: BackboneConfig) -> Tensor:
    """(N, IN_CHANNELS, X, Y, Z) -> (N, channels[0], X, Y, Z)."""
    config.check_dims(x.shape[2:])
    skips = []
    h = x
    for i in range(config.levels):
        if i > 0:
            h = maxpool3d(h)
        h = _block(params, f"enc{i}.conv0", h)
        h = _block(params, f"enc{i}.conv1", h)
        skips.append(h)
    for i in range(config.levels - 2, -1, -1):
        h = _block(params, f"dec{i}.up", upsample_nearest3d(h))
        h = concat([h, skips[i]], axis=1)
        h = _block(params, f"dec{i}.conv0", h)
        h = _block(params, f"dec{i}.conv1", h)
    return conv3d(h, as_tensor(params["final.w"]), as_tensor(params["final.b"]))
