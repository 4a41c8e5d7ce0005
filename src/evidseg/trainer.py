"""The input encoding, initialization, Adam optimization, the epoch loop
and checkpointing.

A case enters the network as a float32 (2, X, Y, Z) array: PET SUV * 0.1 in
channel 0 and CT (HU + 1000) / 2000 in channel 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import zip_longest

import numpy as np

from . import backbone_unet as bb
from . import evidential_head as ev
from . import metrics as mx
from . import objectives as obj
from . import tensor_core as tc
from .seeding import derive_seed
from .volume_io import PatientCase, read_framed, write_framed

CKPT_MAGIC = b"EVIDCKPT"
CKPT_VERSION = 3
HEADS = ("evidential", "softmax")  # the first is the default
# Adam's (beta1, beta2, eps), the published defaults (Kingma & Ba, 2015)
ADAM = (0.9, 0.999, 1e-8)
# the share of training patches centred on a lesion voxel
LESION_PATCH_FRACTION = 0.5


class TrainingError(ArithmeticError):
    """A numerical failure during training: a non-finite loss or gradient,
    or head parameters that left their valid range."""


@dataclass
class TrainConfig:
    lr: float = 1e-3
    epochs: int = 50
    lam: float = 1e-5
    prototypes: int = 20
    alpha_init: float = 0.5
    gamma_init: float = 0.01
    batch_size: int = 2
    patch_dims: tuple = (32, 32, 32)
    seed: int = 0

    def __post_init__(self):
        for name in ("epochs", "batch_size", "prototypes", "seed"):
            setattr(self, name, bb.as_int(name, getattr(self, name)))
        for name in ("lr", "lam", "alpha_init", "gamma_init"):
            setattr(self, name, bb.as_real(name, getattr(self, name)))
        self.patch_dims = bb.as_ints("patch_dims", self.patch_dims)
        # chained comparisons are false for NaN, so NaN fails every check
        if not 0.0 < self.lr < math.inf:
            raise ValueError("lr must be positive and finite")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0.0 <= self.lam < math.inf:
            raise ValueError("lam must be nonnegative and finite")
        if self.prototypes < 1:
            raise ValueError("need at least one prototype")
        if not 0.0 < self.alpha_init < 1.0:
            raise ValueError("alpha_init must lie in (0, 1)")
        # its root is stored in float32 and squared there
        if not 0.0 <= self.gamma_init <= float(np.finfo(np.float32).max):
            raise ValueError("gamma_init must lie in [0, float32 max]")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if len(self.patch_dims) != 3 or min(self.patch_dims) < 1:
            raise ValueError(f"patch_dims must be three positive sizes, "
                             f"got {self.patch_dims}")


def head_shapes(head: str, feature_dim: int, prototypes: int) -> dict:
    """Name -> shape of every tensor of `head`, as its init creates them."""
    i, c = prototypes, feature_dim
    if head == "evidential":
        return {"es.prototypes": (i, c), "es.membership_logits": (i, ev.K),
                "es.alpha_logits": (i,), "es.gamma_roots": (i,)}
    return {"head.w": (2, c, 1, 1, 1), "head.b": (2,)}


def param_shapes(backbone_config: bb.BackboneConfig, head: str,
                 prototypes: int) -> dict:
    """Name -> shape of every tensor of a model, as `Model.create` makes
    them; a ValueError for a head not in HEADS."""
    if head not in HEADS:
        raise ValueError(f"unknown head {head!r}")
    shapes = {}
    for name, shape in bb._conv_shapes(backbone_config):
        shapes[f"{name}.w"] = shape
        shapes[f"{name}.b"] = (shape[0],)
    shapes.update(head_shapes(head, backbone_config.feature_dim, prototypes))
    return shapes


def init_es_params(config: TrainConfig, feature_dim: int, seed: int) -> dict:
    """The four `es.*` arrays: uniform random prototypes and membership
    logits; alpha and gamma at their configured constants."""
    rng = np.random.default_rng(seed)
    s = head_shapes("evidential", feature_dim, config.prototypes)
    a = config.alpha_init
    es = {
        "es.prototypes": rng.uniform(-1.0, 1.0, s["es.prototypes"]),
        "es.membership_logits":
            rng.uniform(-0.1, 0.1, s["es.membership_logits"]),
        "es.alpha_logits": np.full(s["es.alpha_logits"], np.log(a / (1 - a))),
        "es.gamma_roots":
            np.full(s["es.gamma_roots"], np.sqrt(config.gamma_init)),
    }
    return {k: v.astype(np.float32) for k, v in es.items()}


def softmax_forward(features: tc.Tensor, params) -> tc.Tensor:
    """Softmax baseline head: features (N, C, X, Y, Z) -> pseudo-masses
    (p_a, p_b, m(Omega) = 0) shaped like the output of `ev.es_forward`."""
    logits = tc.conv3d(features, tc.as_tensor(params["head.w"]),
                       tc.as_tensor(params["head.b"]))
    p = logits.softmax(axis=1)
    zero = tc.Tensor(np.zeros((p.shape[0], 1) + p.shape[2:], dtype=p.dtype))
    return tc.concat([p, zero], axis=1)


# -- model wrapper ---------------------------------------------------------

@dataclass
class Model:
    """Backbone plus either the evidential head or a softmax baseline head."""
    backbone_config: bb.BackboneConfig
    head: str  # one of HEADS
    params: dict = field(default_factory=dict)

    @classmethod
    def create(cls, backbone_config: bb.BackboneConfig, head: str,
               train_config: TrainConfig, seed: int):
        shapes = param_shapes(backbone_config, head, train_config.prototypes)
        params = bb.init_backbone(backbone_config,
                                  derive_seed(seed, "backbone"), np.float32)
        c = backbone_config.feature_dim
        if head == "evidential":
            params.update(init_es_params(train_config, c,
                                         derive_seed(seed, "es")))
        else:
            rng = np.random.default_rng(derive_seed(seed, "softmax-head"))
            bound = np.sqrt(6.0 / c)
            w = rng.uniform(-bound, bound, size=shapes["head.w"])
            params["head.w"] = w.astype(np.float32)
            params["head.b"] = np.zeros(shapes["head.b"], dtype=np.float32)
        return cls(backbone_config, head, params)

    def forward(self, x: np.ndarray, trainable: bool = False):
        """(N, 2, X, Y, Z) input -> ((N, 3, X, Y, Z) mass map tensor, leaves),
        where `leaves` maps each parameter name to its tape leaf."""
        leaves = {k: tc.Tensor(v, requires_grad=trainable)
                  for k, v in self.params.items()}
        xt = tc.as_tensor(x, self.dtype)
        feats = bb.forward_features(leaves, xt, self.backbone_config)
        # looked up per call, so a function patched on its module is seen
        head = ev.es_forward if self.head == "evidential" else softmax_forward
        return head(feats, leaves), leaves

    @property
    def dtype(self):
        return next(iter(self.params.values())).dtype

    def predict_masses(self, x: np.ndarray) -> np.ndarray:
        """(N, 2, X, Y, Z) -> (N, X, Y, Z, 3) numpy mass maps."""
        out, _ = self.forward(x, trainable=False)
        return out.data.transpose(0, 2, 3, 4, 1)


# -- Adam ------------------------------------------------------------------

def adam_init(params: dict) -> dict:
    return {k: (np.zeros_like(v), np.zeros_like(v)) for k, v in params.items()}


def adam_step(params: dict, grads: dict, state: dict, t: int,
              config: TrainConfig):
    """Standard bias-corrected Adam update, in place on `params`."""
    if t < 1:
        raise ValueError("step index t starts at 1")
    b1, b2, eps = ADAM
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"gradient shape mismatch for {name}")
        m, v = state[name]
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        state[name] = (m, v)
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        p -= (config.lr * m_hat / (np.sqrt(v_hat) + eps)).astype(p.dtype)


# -- data preparation ------------------------------------------------------

def prepare_case(case: PatientCase):
    """(x, g): the float32 (2, X, Y, Z) network input, PET * 0.1 first and
    CT (HU + 1000) / 2000 second, and the float32 binary mask."""
    # each term in the voxels' own dtype, then one cast; "+ 0.0" turns a
    # -0.0 voxel into +0.0
    pet = (case.pet.voxels + 0.0) * 0.1
    ct = (case.ct.voxels + 1000.0) * (1.0 / 2000.0)
    x = np.stack([pet, ct]).astype(np.float32, copy=False)
    return x, case.mask.voxels.astype(np.float32)


def sample_patch(x: np.ndarray, g: np.ndarray, patch_dims, rng,
                 want_lesion: bool):
    """Random crop; when `want_lesion`, center the patch on a lesion voxel."""
    dims = x.shape[1:]
    if tuple(dims) == tuple(patch_dims):
        return x, g
    lo = []
    if want_lesion and g.any():
        target = rng.choice(np.flatnonzero(g))
        tx = np.unravel_index(target, dims)
        for d, p, t in zip(dims, patch_dims, tx):
            c = int(np.clip(t - p // 2, 0, d - p))
            lo.append(c)
    else:
        for d, p in zip(dims, patch_dims):
            lo.append(int(rng.integers(0, d - p + 1)))
    sl = tuple(slice(c, c + p) for c, p in zip(lo, patch_dims))
    return x[(slice(None),) + sl], g[sl]


# -- checkpointing ---------------------------------------------------------

def _manifest(shapes: dict) -> list:
    """A checkpoint's `tensors` list for tensors of these shapes: the names
    sorted, each with its shape and the byte offset at which it lies, the
    tensors back to back as float32."""
    tensors, offset = [], 0
    for name in sorted(shapes):
        shape = list(shapes[name])
        tensors.append({"name": name, "shape": shape, "offset": offset})
        offset += 4 * math.prod(shape)
    return tensors


def save_checkpoint(path, model: Model, config: TrainConfig, epoch: int):
    tensors = _manifest({k: v.shape for k, v in model.params.items()})
    write_framed(path, CKPT_MAGIC, {
        "version": CKPT_VERSION,
        "epoch": epoch,
        "head": model.head,
        "backbone_channels": list(model.backbone_config.channels),
        "in_channels": bb.IN_CHANNELS,
        "config": {**config.__dict__, "patch_dims": list(config.patch_dims)},
        "tensors": tensors,
    }, [model.params[t["name"]] for t in tensors])


def load_checkpoint(path):
    """(model, config, epoch) of a file that `save_checkpoint` wrote; its
    `tensors` must be the manifest that `save_checkpoint` writes for the
    model its header names, and its payload exactly that long."""
    header, blob = read_framed(path, CKPT_MAGIC)
    if header.get("version") != CKPT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version "
                         f"{header.get('version')}")
    try:
        config = TrainConfig(**header["config"])
        backbone_config = bb.BackboneConfig(
            channels=tuple(header["backbone_channels"]))
        in_channels = header["in_channels"]
        head, epoch = header["head"], header["epoch"]
        if not isinstance(tensors := header["tensors"], list):
            raise TypeError("tensors is not a list")
        shapes = param_shapes(backbone_config, head, config.prototypes)
    except (KeyError, TypeError, ValueError) as e:
        raise ValueError(f"{path}: malformed checkpoint header: {e!r}") from None
    if in_channels != bb.IN_CHANNELS:
        raise ValueError(f"{path}: in_channels {in_channels!r}, expected "
                         f"{bb.IN_CHANNELS} (PET and CT)")
    expected = _manifest(shapes)
    if tensors != expected:
        i, found, want = next((i, a, b) for i, (a, b) in enumerate(
            zip_longest(tensors, expected, fillvalue="nothing")) if a != b)
        raise ValueError(f"{path}: tensors[{i}] is {found}, expected {want}")
    size = 4 * sum(math.prod(s) for s in shapes.values())
    if len(blob) != size:
        raise ValueError(f"{path}: blob length {len(blob)}, expected {size}")
    params = {t["name"]: np.frombuffer(blob, "<f4", math.prod(t["shape"]),
                                       t["offset"]).reshape(t["shape"]).copy()
              for t in expected}
    return Model(backbone_config, head, params), config, epoch


# -- training loop ---------------------------------------------------------

def validation_stats(model: Model, val_data):
    """Mean binary Dice and mean ignorance mass over validation cases."""
    dices, ign = [], []
    for x, g in val_data:
        masses = model.predict_masses(x[None])[0]
        binary, _, _ = ev.decide(masses)
        dices.append(mx.compute_metrics(mx.confusion(binary, g))["dice"])
        ign.append(float(masses[..., ev.IGNORANCE].mean()))
    return float(np.mean(dices)), float(np.mean(ign))


def train(model: Model, train_cases, val_cases, config: TrainConfig,
          gradcheck_gate: bool = True, log_fn=None):
    """Optimize `model` in place; returns (best_params, best_epoch, epoch_log).

    The epoch log is a list of dicts with the loss breakdown, validation
    Dice and validation mean ignorance per epoch. Model selection is by
    best validation Dice.
    """
    if not train_cases or not val_cases:
        raise ValueError("empty train or validation split")
    for case in list(train_cases) + list(val_cases):
        dims = tuple(case.pet.dims)
        if any(p > d for p, d in zip(config.patch_dims, dims)):
            raise ValueError(f"patch_dims {config.patch_dims} do not fit "
                             f"case {case.id!r} of shape {dims}")
    # validation runs each whole volume through the network
    for what, dims in [("patch_dims", config.patch_dims)] + [
            (f"validation case {c.id!r}", c.pet.dims) for c in val_cases]:
        try:
            model.backbone_config.check_dims(dims)
        except ValueError as e:
            raise ValueError(f"{what}: {e}") from None
    if gradcheck_gate:
        from .gradcheck import run_gate
        run_gate()
    train_data = [prepare_case(c) for c in train_cases]
    val_data = [prepare_case(c) for c in val_cases]
    rng = np.random.default_rng(derive_seed(config.seed, "train-loop"))
    state = adam_init(model.params)
    log, best = [], (-1.0, None, -1)
    t = 0
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(train_data))
        sums = {}
        n_batches = 0
        for start in range(0, len(order), config.batch_size):
            idx = order[start:start + config.batch_size]
            xs, gs = [], []
            for i in idx:
                x, g = train_data[i]
                want = rng.random() < LESION_PATCH_FRACTION
                px, pg = sample_patch(x, g, config.patch_dims, rng, want)
                xs.append(px)
                gs.append(pg)
            xb = np.stack(xs)
            gb = np.stack(gs)
            out, leaves = model.forward(xb, trainable=True)
            total, breakdown = obj.total_loss(
                out, gb, leaves.get("es.alpha_logits"), lam=config.lam)
            if not np.isfinite(total.data):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, step {t + 1}: "
                    f"{breakdown}")
            total.backward()
            grads = {k: (leaves[k].grad if leaves[k].grad is not None
                         else np.zeros_like(leaves[k].data))
                     for k in model.params}
            bad = [k for k, g in grads.items() if not np.isfinite(g).all()]
            if bad:
                raise TrainingError(f"non-finite gradient at epoch {epoch}, "
                                    f"step {t + 1}: {', '.join(bad)}")
            t += 1
            adam_step(model.params, grads, state, t, config)
            for k, v in breakdown.items():
                sums[k] = sums.get(k, 0.0) + v
            n_batches += 1
        if model.head == "evidential":
            _assert_constraints(model.params)
        val_dice, val_ign = validation_stats(model, val_data)
        record = {"epoch": epoch,
                  **{k: v / n_batches for k, v in sums.items()},
                  "val_dice": val_dice, "val_mean_ignorance": val_ign}
        log.append(record)
        if log_fn:
            log_fn(record)
        if val_dice > best[0]:
            best = (val_dice, {k: v.copy() for k, v in model.params.items()},
                    epoch)
    best_dice, best_params, best_epoch = best
    return best_params, best_epoch, log


def _assert_constraints(params: dict):
    u = ev.memberships(params["es.membership_logits"])
    if not np.allclose(u.sum(axis=1), 1.0, atol=1e-5):
        raise TrainingError("membership degrees no longer sum to 1")
    a = ev.strengths(params["es.alpha_logits"])
    if np.any(a <= 0) or np.any(a >= 1):
        raise TrainingError("alpha left the open interval (0, 1)")
