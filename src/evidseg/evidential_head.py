"""Prototype-based evidential segmentation head.

Each of the I prototypes is a piece of evidence in feature space. Its
reliability decays with squared Euclidean distance to the voxel feature
vector; it induces a simple mass function over {lesion}, {background} and
the whole frame, and the I mass functions are fused with Dempster's rule.

Constrained quantities are reparameterized so optimization stays
unconstrained: class memberships via exponential normalization of free
logits, evidence strengths alpha via logistic squashing, scales gamma as
squared roots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_core import Tensor, as_tensor, concat

K = 2  # classes: lesion (a), background (b)
LESION, BACKGROUND, IGNORANCE = 0, 1, 2  # last-axis order of mass arrays
CODE_BACKGROUND, CODE_LESION, CODE_IGNORANCE = 0.0, 1.0, 2.0


@dataclass
class EsParams:
    """Free (unconstrained) parameters of the evidential head."""
    prototypes: np.ndarray        # (I, C)
    membership_logits: np.ndarray  # (I, K)
    alpha_logits: np.ndarray      # (I,)
    gamma_roots: np.ndarray       # (I,)

    def __post_init__(self):
        i, c = self.prototypes.shape
        if self.membership_logits.shape != (i, K):
            raise ValueError("membership_logits shape mismatch")
        if self.alpha_logits.shape != (i,) or self.gamma_roots.shape != (i,):
            raise ValueError("alpha/gamma shape mismatch")

    # constrained views (numpy, for inspection and logging)
    @property
    def memberships(self):
        e = np.exp(self.membership_logits
                   - self.membership_logits.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    @property
    def alphas(self):
        return 1.0 / (1.0 + np.exp(-self.alpha_logits))

    @property
    def gammas(self):
        return self.gamma_roots ** 2

    def as_dict(self):
        return {"es.prototypes": self.prototypes,
                "es.membership_logits": self.membership_logits,
                "es.alpha_logits": self.alpha_logits,
                "es.gamma_roots": self.gamma_roots}


def distance_activation(features: Tensor, prototypes, gamma_roots) -> Tensor:
    """s_i = exp(-gamma_i * d_i^2) for features (M, C) against (I, C) prototypes."""
    f, p, eta = map(as_tensor, (features, prototypes, gamma_roots))
    if f.shape[1] != p.shape[1]:
        raise ValueError(
            f"feature dim {f.shape[1]} != prototype dim {p.shape[1]}")
    d2 = ((f * f).sum(axis=1, keepdims=True)
          - 2.0 * (f @ p.transpose(1, 0))
          + (p * p).sum(axis=1))  # (M, I)
    gamma = eta * eta
    return (-(d2 * gamma.reshape(1, -1))).exp()


def bba(s: Tensor, membership_logits, alpha_logits):
    """Per-prototype mass functions from activations s (M, I).

    Returns (singleton masses (M, I, K), ignorance masses (M, I)); the
    three masses of each prototype sum to 1 by construction.
    """
    u = as_tensor(membership_logits).softmax(axis=1)  # (I, K)
    alpha = as_tensor(alpha_logits).sigmoid()         # (I,)
    m, i = s.shape
    alpha_s = s * alpha.reshape(1, -1)             # (M, I)
    m_sing = alpha_s.reshape(m, i, 1) * u.reshape(1, i, K)
    m_omega = 1.0 - alpha_s
    return m_sing, m_omega


def dempster_fuse(m_sing: Tensor, m_omega: Tensor) -> Tensor:
    """Normalized Dempster combination of I simple BBAs per voxel.

    Closed form on a 2-class frame: the unnormalized singleton mass is
    prod_i(m_i({k}) + m_i(Omega)) - prod_i m_i(Omega), the unnormalized
    ignorance mass is prod_i m_i(Omega). Products run in log space; every
    factor is positive because each prototype keeps m_i(Omega) > 0.
    Returns (M, 3) masses ordered (lesion, background, ignorance).
    """
    m, i, k = m_sing.shape
    log_w = (m_sing + m_omega.reshape(m, i, 1)).log().sum(axis=1)  # (M, K)
    log_o = m_omega.log().sum(axis=1)                              # (M,)
    w = log_w.exp()
    o = log_o.exp()
    mu_sing = w - o.reshape(m, 1)
    norm = mu_sing.sum(axis=1) + o                                 # (M,)
    masses = concat([mu_sing, o.reshape(m, 1)], axis=1)
    if np.any(norm.data <= 1e-300):
        raise ArithmeticError("total conflict in Dempster combination")
    return masses / norm.reshape(m, 1)


def fuse_mass_arrays(masses: np.ndarray) -> np.ndarray:
    """Closed-form fusion of plain arrays shaped (..., I, 3)."""
    m = np.asarray(masses, dtype=np.float64)
    m_sing = Tensor(m[..., :K].reshape(-1, m.shape[-2], K))
    m_omega = Tensor(m[..., K].reshape(-1, m.shape[-2]))
    fused = dempster_fuse(m_sing, m_omega).data
    return fused.reshape(m.shape[:-2] + (3,))


def es_forward(features: Tensor, params) -> Tensor:
    """Features (N, C, X, Y, Z) -> mass map (N, 3, X, Y, Z).

    `params` is an EsParams or a dict of (possibly trainable) tensors with
    the EsParams key names.
    """
    if isinstance(params, EsParams):
        params = params.as_dict()
    n, c = features.shape[0], features.shape[1]
    spatial = features.shape[2:]
    m = n * int(np.prod(spatial))
    flat = features.transpose(0, 2, 3, 4, 1).reshape(m, c)
    s = distance_activation(flat, params["es.prototypes"], params["es.gamma_roots"])
    m_sing, m_omega = bba(s, params["es.membership_logits"],
                          params["es.alpha_logits"])
    masses = dempster_fuse(m_sing, m_omega)  # (M, 3)
    return masses.reshape(n, *spatial, 3).transpose(0, 4, 1, 2, 3)


# -- decision layer --------------------------------------------------------

def pignistic_lesion(masses: np.ndarray) -> np.ndarray:
    """p(lesion) = m({a}) + m(Omega)/2 for mass arrays (..., 3)."""
    return masses[..., LESION] + 0.5 * masses[..., IGNORANCE]


def decide(masses: np.ndarray):
    """Mass array (..., 3) -> (binary, three-way, uncertainty) maps.

    Binary: lesion iff pignistic probability strictly exceeds 0.5 (ties go
    to background). Three-way: argmax over the three masses, coded
    0=background, 1=lesion, 2=ignorance. Uncertainty: raw m(Omega).
    """
    binary = (pignistic_lesion(masses) > 0.5).astype(np.float32)
    winner = np.argmax(masses, axis=-1)  # first max wins on ties
    code = np.array([CODE_LESION, CODE_BACKGROUND, CODE_IGNORANCE],
                    dtype=np.float32)
    three_way = code[winner]
    uncertainty = masses[..., IGNORANCE].astype(np.float32)
    return binary, three_way, uncertainty
