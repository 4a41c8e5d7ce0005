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

`es_forward` runs three stages in the backbone's channel-first layout,
with the V = X*Y*Z voxels of each of the N batch items flattened last,
each stage one tape node with a hand-derived backward:

- `distance_activation(features (N, C, V), prototypes, gamma_roots)`
  -> s (N, I, V)
- `bba(s, membership_logits, alpha_logits)` -> masses (N, 3, I, V),
  ordered (lesion, background, ignorance) on axis 1
- `dempster_fuse(masses)` -> fused masses (N, 3, V), same order

Every array is contiguous, so each running product over prototypes
multiplies I contiguous V-vectors, and the mass map is a reshape of the
fused masses. `fuse_mass_arrays` runs the same Dempster forward on plain
arrays.
"""

from __future__ import annotations

import numpy as np

from .tensor_core import Tensor, as_tensor

K = 2  # classes: lesion (a), background (b)
LESION, BACKGROUND, IGNORANCE = 0, 1, 2  # order of the masses in mass arrays
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
    1 - alpha s stays positive: the divisions by it in the backward of
    Dempster's rule stay finite.
    """
    alpha = 1.0 / (1.0 + np.exp(-np.asarray(alpha_logits)))
    return np.minimum(alpha, 1.0 - np.finfo(alpha.dtype).epsneg)


def distance_activation(features: Tensor, prototypes, gamma_roots) -> Tensor:
    """s_i = exp(-gamma_i * d_i^2) for features (N, C, V) against (I, C)
    prototypes; returns (N, I, V) activations."""
    f, p, eta = map(as_tensor, (features, prototypes, gamma_roots))
    if f.shape[1] != p.shape[1]:
        raise ValueError(
            f"feature dim {f.shape[1]} != prototype dim {p.shape[1]}")
    fd, pd = f.data, p.data
    gamma = (eta.data * eta.data)[:, None]  # (I, 1)
    d2 = pd @ fd  # (N, I, V), then |f|^2 - 2 f.p_i + |p_i|^2 in place
    d2 *= -2.0
    d2 += np.einsum("ncv,ncv->nv", fd, fd)[:, None]
    d2 += np.einsum("ic,ic->i", pd, pd)[:, None]
    np.maximum(d2, 0.0, out=d2)  # the expansion can round below 0; keep s <= 1
    s = d2 * -gamma
    np.exp(s, out=s)

    def backward(g):
        # q = dL/d(-gamma d2); d(d2)/df = 2(f - p_i), d(d2)/dp_i = 2(p_i - f)
        q = g * s
        gf = gp = geta = None
        if eta.requires_grad:
            geta = -2.0 * np.einsum("niv,niv->i", q, d2) * eta.data
        q *= -gamma  # now dL/d(d2)
        if f.requires_grad:
            gf = 2.0 * (fd * q.sum(axis=1, keepdims=True) - pd.T @ q)
        if p.requires_grad:
            q_f = (q @ fd.swapaxes(1, 2)).sum(axis=0)  # sum_n q_n f_n^T
            gp = 2.0 * (pd * q.sum(axis=(0, 2))[:, None] - q_f)
        return gf, gp, geta

    return Tensor._make(s, "distance_activation", (f, p, eta), backward)


def bba(s: Tensor, membership_logits, alpha_logits) -> Tensor:
    """Per-prototype mass functions from activations s (N, I, V).

    Returns (N, 3, I, V) masses ordered (lesion, background, ignorance);
    the three masses of each prototype sum to 1 by construction.
    """
    s, v, a = map(as_tensor, (s, membership_logits, alpha_logits))
    u = memberships(v.data)                 # (I, K)
    alpha = strengths(a.data)               # (I,), below 1
    sd = s.data                             # (N, I, V)
    planes = np.empty((len(sd), K + 1) + sd.shape[1:],
                      dtype=np.result_type(sd, alpha, u))
    alpha_s = np.multiply(sd, alpha[:, None], out=planes[:, K])
    np.multiply(alpha_s[:, None], u.T[:, :, None], out=planes[:, :K])
    np.subtract(1.0, alpha_s, out=planes[:, K])

    def backward(g):
        gs = gv = ga = None
        if v.requires_grad:
            g_u = np.einsum("nkiv,niv->ik", g[:, :K], sd) * alpha[:, None]
            gv = u * (g_u - (g_u * u).sum(axis=1, keepdims=True))
        # dL/d(alpha_i s_i): the singletons carry u_ik, ignorance -1
        g_as = -g[:, K]
        for k in range(K):
            g_as += g[:, k] * u[:, k, None]
        if a.requires_grad:
            ga = np.einsum("niv,niv->i", g_as, sd) * alpha * (1.0 - alpha)
        if s.requires_grad:
            g_as *= alpha[:, None]
            gs = g_as
        return gs, gv, ga

    return Tensor._make(planes, "bba", (s, v, a), backward)


def _dempster(planes: np.ndarray):
    """Closed-form Dempster fusion of (N, 3, I, V) mass planes.

    The unnormalized singleton mass of class k is
    prod_i(m_i({k}) + m_i(Omega)) - prod_i m_i(Omega), the unnormalized
    ignorance mass is prod_i m_i(Omega). Both are running products over
    the I planes. Every factor lies in [epsneg, 1], because `bba` keeps
    m_i(Omega) >= epsneg (alpha held below 1, s <= 1): a partial product
    is never below the final one, so none underflows before the final
    product does, and the divisions by factors in `dempster_fuse`'s
    backward stay finite.
    Returns (fused (N, 3, V), w (N, K, V) singleton products,
    o (N, 1, V) ignorance product, norm (N, 1, V)).
    """
    omega = planes[:, K:]                    # (N, 1, I, V)
    w = planes[:, :K, 0] + omega[:, :, 0]    # (N, K, V)
    o = omega[:, :, 0].copy()                # (N, 1, V)
    factor = np.empty_like(w)
    for i in range(1, planes.shape[2]):
        w *= np.add(planes[:, :K, i], omega[:, :, i], out=factor)
        o *= omega[:, :, i]
    fused = np.concatenate([w - o, o], axis=1)
    norm = fused[:, :K].sum(axis=1, keepdims=True) + o
    # total conflict: all mass on the empty set, to within rounding. A
    # normalizer below the smallest normal number of its dtype has lost
    # significant bits, and the backward's division by it can overflow
    if np.any(norm < np.finfo(norm.dtype).tiny):
        raise ArithmeticError("total conflict in Dempster combination")
    fused /= norm
    return fused, w, o, norm


def dempster_fuse(masses: Tensor) -> Tensor:
    """Normalized Dempster combination of I simple BBAs per voxel.

    Takes the (N, 3, I, V) output of `bba`; returns (N, 3, V) masses
    ordered (lesion, background, ignorance).
    """
    planes = masses.data
    fused, w, o, norm = _dempster(planes)

    def backward(g):
        # through the normalization: out_j = v_j / norm
        g_v = (g - (g * fused).sum(axis=1, keepdims=True)) / norm
        g_o = g_v[:, K:] - g_v[:, :K].sum(axis=1, keepdims=True)
        gp = np.empty(planes.shape, dtype=np.result_type(g_v, planes))
        np.add(planes[:, :K], planes[:, K:], out=gp[:, :K])
        np.divide((g_v[:, :K] * w)[:, :, None], gp[:, :K], out=gp[:, :K])
        np.divide(g_o * o, planes[:, K], out=gp[:, K])
        gp[:, K] += gp[:, :K].sum(axis=1)
        return (gp,)

    return Tensor._make(fused, "dempster_fuse", (masses,), backward)


def fuse_mass_arrays(masses: np.ndarray) -> np.ndarray:
    """Closed-form fusion of plain arrays shaped (..., I, 3)."""
    m = np.asarray(masses, dtype=np.float64)
    # each (I, 3) block as (3, I, V = 1) planes
    planes = np.moveaxis(m.reshape(-1, *m.shape[-2:]), -1, 1)[..., None]
    return _dempster(planes)[0].reshape(m.shape[:-2] + (K + 1,))


def es_forward(features: Tensor, params) -> Tensor:
    """Features (N, C, X, Y, Z) -> mass map (N, 3, X, Y, Z).

    `params` maps the four `es.*` names (prototypes, membership_logits,
    alpha_logits, gamma_roots) to arrays or (possibly trainable) tensors.
    """
    n, c, *spatial = features.shape
    s = distance_activation(features.reshape(n, c, -1),
                            params["es.prototypes"], params["es.gamma_roots"])
    masses = dempster_fuse(bba(s, params["es.membership_logits"],
                               params["es.alpha_logits"]))  # (N, 3, V)
    return masses.reshape(n, K + 1, *spatial)


# -- decision layer --------------------------------------------------------

def pignistic_lesion(masses: np.ndarray) -> np.ndarray:
    """p(lesion) = m({a}) + m(Omega)/2 for mass arrays (..., 3), computed as
    1/2 + (m({a}) - m({b}))/2: equal on normalized masses, and at most 1/2
    wherever m({a}) <= m({b}), also where fused masses sum to an ulp over
    1 and the first form lands an ulp over 1/2."""
    return 0.5 + 0.5 * (masses[..., LESION] - masses[..., BACKGROUND])


def decide(masses: np.ndarray):
    """Mass array (..., 3) -> (binary, three-way, uncertainty) maps.

    Binary: lesion iff the pignistic probability strictly exceeds 0.5,
    that is iff m({a}) > m({b}), the comparison made; ties go to
    background. Three-way: argmax over the three masses, coded
    0=background, 1=lesion, 2=ignorance. Uncertainty: raw m(Omega).
    """
    binary = (masses[..., LESION] > masses[..., BACKGROUND]).astype(np.float32)
    winner = np.argmax(masses, axis=-1)  # first max wins on ties
    code = np.array([CODE_LESION, CODE_BACKGROUND, CODE_IGNORANCE],
                    dtype=np.float32)
    three_way = code[winner]
    uncertainty = masses[..., IGNORANCE].astype(np.float32)
    return binary, three_way, uncertainty
