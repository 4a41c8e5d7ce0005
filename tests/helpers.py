"""Shared test utilities, including independent oracles.

The Dempster oracle here deliberately avoids the closed form used by the
package: it combines mass functions pairwise over the explicit 4-element
power set of a 2-class frame, renormalizing conflict at each step.

The tape head (`tape_*`) is the evidential head written as a composite of
elementwise tape ops, with the same math as `evidential_head` but every
derivative from the generic op backwards; the fused stages are checked
against it.
"""

import json
import struct

import numpy as np

from evidseg.evidential_head import K
from evidseg.tensor_core import Tensor, as_tensor, concat

# subsets of the frame {a, b} as bitmasks: 0 = empty, 1 = {a}, 2 = {b}, 3 = frame
_SUBSETS = (1, 2, 3)


def powerset_fuse_pair(m1, m2):
    """Conjunctive combination of two mass vectors (m_a, m_b, m_frame)."""
    joint = {0: 0.0, 1: 0.0, 2: 0.0, 3: 0.0}
    for sa, wa in zip(_SUBSETS, m1):
        for sb, wb in zip(_SUBSETS, m2):
            joint[sa & sb] += wa * wb
    conflict = joint[0]
    if conflict >= 1.0:
        raise ZeroDivisionError("total conflict")
    scale = 1.0 / (1.0 - conflict)
    return np.array([joint[1] * scale, joint[2] * scale, joint[3] * scale])


def powerset_fuse(masses):
    """Fold a sequence of (m_a, m_b, m_frame) vectors with pairwise fusion."""
    masses = list(masses)
    acc = np.asarray(masses[0], dtype=np.float64)
    for m in masses[1:]:
        acc = powerset_fuse_pair(acc, m)
    return acc


def random_simple_bba(rng):
    """A valid simple BBA: singleton masses alpha*s*u, ignorance 1 - alpha*s."""
    alpha = rng.uniform(0.05, 0.95)
    s = rng.uniform(0.0, 1.0)
    u = rng.uniform(0.0, 1.0)
    return np.array([alpha * s * u, alpha * s * (1.0 - u), 1.0 - alpha * s])


def random_es_params(rng, prototypes=5, feature_dim=3):
    """The four `es.*` parameter arrays of a random float64 head."""
    i = prototypes
    return {
        "es.prototypes": rng.uniform(-2.0, 2.0, size=(i, feature_dim)),
        "es.membership_logits": rng.uniform(-3.0, 3.0, size=(i, 2)),
        "es.alpha_logits": rng.uniform(-4.0, 4.0, size=i),
        "es.gamma_roots": rng.uniform(0.0, 1.5, size=i),
    }


def rewrite_header(path, edit):
    """Rewrite the JSON header of a framed file (.evol or .evckpt) in place
    with `edit(header)`, keeping its magic and payload."""
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12:12 + hlen])
    edit(header)
    head = json.dumps(header).encode("utf-8")
    path.write_bytes(raw[:8] + struct.pack("<I", len(head)) + head
                     + raw[12 + hlen:])


def tape_distance_activation(features: Tensor, prototypes, gamma_roots) -> Tensor:
    """s_i = exp(-gamma_i * d_i^2) for features (N, C, V) against (I, C)
    prototypes; returns (N, I, V) activations."""
    f, p, eta = map(as_tensor, (features, prototypes, gamma_roots))
    if f.shape[1] != p.shape[1]:
        raise ValueError(
            f"feature dim {f.shape[1]} != prototype dim {p.shape[1]}")
    n, c, v = f.shape
    i = p.shape[0]
    diff = f.reshape(n, 1, c, v) - p.reshape(1, i, c, 1)  # (N, I, C, V)
    d2 = (diff * diff).sum(axis=2)                         # (N, I, V)
    gamma = eta * eta
    return (d2 * gamma.reshape(1, i, 1) * -1.0).exp()


def tape_bba(s: Tensor, membership_logits, alpha_logits):
    """Per-prototype mass functions from activations s (N, I, V).

    Returns (singleton masses (N, I, K, V), ignorance masses (N, I, V));
    the three masses of each prototype sum to 1 by construction.
    """
    u = as_tensor(membership_logits).softmax(axis=1)  # (I, K)
    alpha = as_tensor(alpha_logits).sigmoid()         # (I,)
    n, i, v = s.shape
    alpha_s = s * alpha.reshape(1, i, 1)           # (N, I, V)
    m_sing = alpha_s.reshape(n, i, 1, v) * u.reshape(1, i, K, 1)
    m_omega = 1.0 - alpha_s
    return m_sing, m_omega


def tape_dempster_fuse(m_sing: Tensor, m_omega: Tensor) -> Tensor:
    """Normalized Dempster combination of I simple BBAs per voxel.

    Closed form on a 2-class frame: the unnormalized singleton mass is
    prod_i(m_i({k}) + m_i(Omega)) - prod_i m_i(Omega), the unnormalized
    ignorance mass is prod_i m_i(Omega). The products run one prototype
    at a time, in the package's order, but each through generic tape ops.
    Returns (N, 3, V) masses ordered (lesion, background, ignorance).
    """
    i = m_sing.shape[1]
    w = m_sing[:, 0] + m_omega[:, 0:1]  # (N, K, V)
    o = m_omega[:, 0:1]                 # (N, 1, V)
    for j in range(1, i):
        w = w * (m_sing[:, j] + m_omega[:, j:j + 1])
        o = o * m_omega[:, j:j + 1]
    mu_sing = w - o
    norm = mu_sing.sum(axis=1, keepdims=True) + o                  # (N, 1, V)
    masses = concat([mu_sing, o], axis=1)
    # total conflict: a normalizer below the smallest normal number
    if np.any(norm.data < np.finfo(norm.dtype).tiny):
        raise ArithmeticError("total conflict in Dempster combination")
    return masses / norm


def tape_es_forward(features: Tensor, params) -> Tensor:
    """`evidential_head.es_forward` through the tape head."""
    n, c, *spatial = features.shape
    s = tape_distance_activation(features.reshape(n, c, -1),
                                 params["es.prototypes"],
                                 params["es.gamma_roots"])
    m_sing, m_omega = tape_bba(s, params["es.membership_logits"],
                               params["es.alpha_logits"])
    masses = tape_dempster_fuse(m_sing, m_omega)  # (N, 3, V)
    return masses.reshape(n, K + 1, *spatial)
