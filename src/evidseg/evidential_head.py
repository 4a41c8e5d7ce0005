"""Prototype-based evidential segmentation head.

Each of the I prototypes is a piece of evidence in feature space. Its
reliability decays with squared Euclidean distance to the voxel feature
vector; it induces a simple mass function over {lesion}, {background} and
the whole frame, and the I mass functions are fused with Dempster's rule.

Constrained quantities are reparameterized so optimization stays
unconstrained: class memberships via exponential normalization of free
logits (`memberships`), evidence strengths alpha via logistic squashing
(`strengths`), scales gamma as squared roots. The free parameters live
only in the model's parameter dict, under the four `es.*` names; `bba` and
the trainer's constraint check both map them through these functions.

`es_forward` runs three stages over the M voxels of a batch, each one tape
node with a hand-derived backward:

- `distance_activation(features (M, C), prototypes, gamma_roots)` -> s (M, I)
- `bba(s, membership_logits, alpha_logits)` -> masses (M, I, 3), ordered
  (lesion, background, ignorance) on the last axis
- `dempster_fuse(masses)` -> fused masses (M, 3), same order

Inside, every per-prototype quantity is a contiguous prototype-major (I, M)
plane: s is an (I, M) array and the BBA masses a (3, I, M) buffer, each
returned as its transposed view. So each log-space product over
prototypes adds I contiguous M-vectors, and no step reduces along a
strided axis.
`fuse_mass_arrays` runs the same Dempster forward on plain arrays.
"""

from __future__ import annotations

import numpy as np

from .tensor_core import Tensor, as_tensor

K = 2  # classes: lesion (a), background (b)
LESION, BACKGROUND, IGNORANCE = 0, 1, 2  # last-axis order of mass arrays
CODE_BACKGROUND, CODE_LESION, CODE_IGNORANCE = 0.0, 1.0, 2.0


def memberships(membership_logits):
    """Class memberships u_ik: the softmax of the free logits over classes."""
    e = np.exp(membership_logits
               - membership_logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def strengths(alpha_logits):
    """alpha = logistic(a), held at or below the largest value under 1.

    Where logistic(a) rounds to 1 (a > ~17 in float32), alpha is 1 - epsneg
    instead, so alpha s < 1 for every activation s <= 1 and m(Omega) =
    1 - alpha s stays positive: its log in Dempster's rule stays finite.
    """
    alpha = 1.0 / (1.0 + np.exp(-np.asarray(alpha_logits)))
    return np.minimum(alpha, 1.0 - np.finfo(alpha.dtype).epsneg)


def distance_activation(features: Tensor, prototypes, gamma_roots) -> Tensor:
    """s_i = exp(-gamma_i * d_i^2) for features (M, C) against (I, C) prototypes.

    Returns (M, I) activations, the transposed view of an (I, M) plane.
    """
    f, p, eta = map(as_tensor, (features, prototypes, gamma_roots))
    if f.shape[1] != p.shape[1]:
        raise ValueError(
            f"feature dim {f.shape[1]} != prototype dim {p.shape[1]}")
    fd, pd = f.data, p.data
    gamma = (eta.data * eta.data)[:, None]  # (I, 1)
    d2 = pd @ fd.T  # (I, M), then |f|^2 - 2 f.p_i + |p_i|^2 in place
    d2 *= -2.0
    d2 += np.einsum("mc,mc->m", fd, fd)
    d2 += np.einsum("ic,ic->i", pd, pd)[:, None]
    np.maximum(d2, 0.0, out=d2)  # the expansion can round below 0; keep s <= 1
    s = d2 * -gamma
    np.exp(s, out=s)

    def backward(g):
        # q = dL/d(-gamma d2); d(d2)/df = 2(f - p_i), d(d2)/dp_i = 2(p_i - f)
        q = g.T * s
        gf = gp = geta = None
        if eta.requires_grad:
            geta = -2.0 * np.einsum("im,im->i", q, d2) * eta.data
        q *= -gamma  # now dL/d(d2)
        if f.requires_grad:
            gf = 2.0 * (fd * q.sum(axis=0)[:, None] - q.T @ pd)
        if p.requires_grad:
            gp = 2.0 * (pd * q.sum(axis=1)[:, None] - q @ fd)
        return gf, gp, geta

    return Tensor._make(s.T, "distance_activation", (f, p, eta), backward)


def bba(s: Tensor, membership_logits, alpha_logits) -> Tensor:
    """Per-prototype mass functions from activations s (M, I).

    Returns (M, I, 3) masses ordered (lesion, background, ignorance), the
    transposed view of a (3, I, M) buffer of prototype-major planes; the
    three masses of each prototype sum to 1 by construction.
    """
    s, v, a = map(as_tensor, (s, membership_logits, alpha_logits))
    u = memberships(v.data)                 # (I, K)
    alpha = strengths(a.data)               # (I,), below 1
    sp = s.data.T                           # (I, M)
    planes = np.empty((K + 1,) + sp.shape,
                      dtype=np.result_type(sp, alpha, u))
    alpha_s = np.multiply(sp, alpha[:, None], out=planes[K])
    np.multiply(alpha_s, u.T[:, :, None], out=planes[:K])
    np.subtract(1.0, alpha_s, out=planes[K])

    def backward(g):
        gp = g.transpose(2, 1, 0)  # (3, I, M)
        gs = gv = ga = None
        if v.requires_grad:
            g_u = np.einsum("kim,im->ik", gp[:K], sp) * alpha[:, None]
            gv = u * (g_u - (g_u * u).sum(axis=1, keepdims=True))
        # dL/d(alpha_i s_i): the singletons carry u_ik, ignorance -1
        g_as = -gp[K]
        for k in range(K):
            g_as += gp[k] * u[:, k, None]
        if a.requires_grad:
            ga = np.einsum("im,im->i", g_as, sp) * alpha * (1.0 - alpha)
        if s.requires_grad:
            g_as *= alpha[:, None]
            gs = g_as.T
        return gs, gv, ga

    return Tensor._make(planes.transpose(2, 1, 0), "bba", (s, v, a), backward)


def _dempster(planes: np.ndarray):
    """Closed-form Dempster fusion of (3, I, M) mass planes.

    The unnormalized singleton mass of class k is
    prod_i(m_i({k}) + m_i(Omega)) - prod_i m_i(Omega), the unnormalized
    ignorance mass is prod_i m_i(Omega). Products run in log space; every
    factor is positive because `bba` keeps m_i(Omega) >= epsneg (alpha
    held below 1, s <= 1), so the logs here and the divisions by factors
    in `dempster_fuse`'s backward stay finite.
    Returns (fused (3, M), w (K, M) singleton products, o (M,) ignorance
    product, norm (M,)).
    """
    omega = planes[K]
    log_w = planes[:K] + omega
    w = np.exp(np.log(log_w, out=log_w).sum(axis=1))  # (K, M)
    o = np.exp(np.log(omega).sum(axis=0))            # (M,)
    fused = np.empty((K + 1,) + o.shape, dtype=o.dtype)
    np.subtract(w, o, out=fused[:K])
    fused[K] = o
    norm = fused[:K].sum(axis=0) + o
    if np.any(norm <= 1e-300):
        raise ArithmeticError("total conflict in Dempster combination")
    fused /= norm
    return fused, w, o, norm


def dempster_fuse(masses: Tensor) -> Tensor:
    """Normalized Dempster combination of I simple BBAs per voxel.

    Takes the (M, I, 3) output of `bba`; returns (M, 3) masses ordered
    (lesion, background, ignorance), the transposed view of a (3, M)
    buffer.
    """
    planes = masses.data.transpose(2, 1, 0)  # (3, I, M)
    fused, w, o, norm = _dempster(planes)

    def backward(g):
        gt = g.T  # (3, M)
        # through the normalization: out_j = v_j / norm
        g_v = (gt - (gt * fused).sum(axis=0)) / norm
        g_o = g_v[K] - g_v[:K].sum(axis=0)
        gp = np.empty(planes.shape, dtype=np.result_type(g_v, planes))
        np.add(planes[:K], planes[K], out=gp[:K])
        np.divide((g_v[:K] * w)[:, None, :], gp[:K], out=gp[:K])
        np.divide(g_o * o, planes[K], out=gp[K])
        gp[K] += gp[:K].sum(axis=0)
        return (gp.transpose(2, 1, 0),)

    return Tensor._make(fused.T, "dempster_fuse", (masses,), backward)


def fuse_mass_arrays(masses: np.ndarray) -> np.ndarray:
    """Closed-form fusion of plain arrays shaped (..., I, 3)."""
    m = np.asarray(masses, dtype=np.float64)
    planes = m.reshape(-1, m.shape[-2], K + 1).transpose(2, 1, 0)
    return _dempster(planes)[0].T.reshape(m.shape[:-2] + (K + 1,))


def es_forward(features: Tensor, params) -> Tensor:
    """Features (N, C, X, Y, Z) -> mass map (N, 3, X, Y, Z).

    `params` maps the four `es.*` names (prototypes, membership_logits,
    alpha_logits, gamma_roots) to arrays or (possibly trainable) tensors.
    """
    n, c = features.shape[0], features.shape[1]
    spatial = features.shape[2:]
    m = n * int(np.prod(spatial))
    flat = features.transpose(0, 2, 3, 4, 1).reshape(m, c)
    s = distance_activation(flat, params["es.prototypes"], params["es.gamma_roots"])
    masses = dempster_fuse(bba(s, params["es.membership_logits"],
                               params["es.alpha_logits"]))  # (M, 3)
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
