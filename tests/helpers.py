"""Shared test utilities, including independent oracles.

The Dempster oracle here deliberately avoids the closed form used by the
package: it combines mass functions pairwise over the explicit 4-element
power set of a 2-class frame, renormalizing conflict at each step.
"""

import json
import struct

import numpy as np

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
    from evidseg.evidential_head import EsParams
    i = prototypes
    return EsParams(
        prototypes=rng.uniform(-2.0, 2.0, size=(i, feature_dim)),
        membership_logits=rng.uniform(-3.0, 3.0, size=(i, 2)),
        alpha_logits=rng.uniform(-4.0, 4.0, size=i),
        gamma_roots=rng.uniform(0.0, 1.5, size=i),
    )


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
