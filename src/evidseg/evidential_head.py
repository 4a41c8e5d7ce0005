"""Prototype-based evidential segmentation head.

Each of the I prototypes is a piece of evidence in feature space. Its
reliability decays with squared Euclidean distance to the voxel feature
vector; it induces a simple mass function over {lesion}, {background} and
the whole frame, and the I mass functions are fused with Dempster's rule.

Constrained quantities are reparameterized so optimization stays
unconstrained: class memberships via exponential normalization of free
logits (`memberships`), evidence strengths alpha via logistic squashing
(`strengths`), scales gamma as squared roots. The free parameters live
only in the model's parameter dict, under the four `es.*` names; the head
ops and the trainer's constraint check all map them through these
functions.

`es_forward` runs three stages in the backbone's channel-first layout,
with the V = X*Y*Z voxels of each of the N batch items flattened last,
each stage one tape node with a hand-derived backward:

- `distance_activation(features (N, C, V), prototypes, gamma_roots)`
  -> s (N, I, V)
- `bba(s, alpha_logits)` -> evidence a = alpha s (N, I, V)
- `dempster_fuse(evidence, membership_logits)` -> fused masses (N, 3, V),
  ordered (lesion, background, ignorance) on axis 1

Prototype i's simple mass function is a_i u_ik on each class {k} and
1 - a_i on Omega. Only `dempster_fuse` reads the memberships u: it forms
each prototype's factors inside its running products, in the forward and
again in the backward, so no (N, 3, I, V) array of masses or of their
gradients is ever built. Every array is contiguous, so a prototype's
factors are contiguous V-vectors, and the mass map is a reshape of the
fused masses.
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

    def sq_dist():
        d2 = pd @ fd  # (N, I, V), then |f|^2 - 2 f.p_i + |p_i|^2 in place
        d2 *= -2.0
        d2 += np.einsum("ncv,ncv->nv", fd, fd)[:, None]
        d2 += np.einsum("ic,ic->i", pd, pd)[:, None]
        # the expansion can round below 0; keep s <= 1
        return np.maximum(d2, 0.0, out=d2)

    s = sq_dist() * -gamma
    np.exp(s, out=s)

    def backward(g):
        # q = dL/d(-gamma d2); d(d2)/df = 2(f - p_i), d(d2)/dp_i = 2(p_i - f)
        q = g * s
        gf = gp = geta = None
        if eta.requires_grad:
            # d2 is recomputed, not kept from the forward: the same values,
            # finite where gamma is 0 or s underflows, unlike -log(s)/gamma
            geta = -2.0 * np.einsum("niv,niv->i", q, sq_dist()) * eta.data
        q *= -gamma  # now dL/d(d2)
        if f.requires_grad:
            gf = 2.0 * (fd * q.sum(axis=1, keepdims=True) - pd.T @ q)
        if p.requires_grad:
            q_f = (q @ fd.swapaxes(1, 2)).sum(axis=0)  # sum_n q_n f_n^T
            gp = 2.0 * (pd * q.sum(axis=(0, 2))[:, None] - q_f)
        return gf, gp, geta

    return Tensor._make(s, "distance_activation", (f, p, eta), backward)


def bba(s: Tensor, alpha_logits) -> Tensor:
    """Evidence a_i = alpha_i s_i of each prototype from activations s
    (N, I, V); returns (N, I, V).

    With the memberships u, a fixes prototype i's simple mass function:
    a_i u_ik on each class {k} and 1 - a_i on Omega. `dempster_fuse` forms
    those masses one prototype at a time.
    """
    s, a = map(as_tensor, (s, alpha_logits))
    alpha = strengths(a.data)               # (I,), below 1
    sd = s.data                             # (N, I, V)
    evidence = sd * alpha[:, None]

    def backward(g):
        ga = gs = None
        if a.requires_grad:
            ga = np.einsum("niv,niv->i", g, sd) * alpha * (1.0 - alpha)
        if s.requires_grad:
            gs = g * alpha[:, None]
        return gs, ga

    return Tensor._make(evidence, "bba", (s, a), backward)


def dempster_fuse(evidence: Tensor, membership_logits) -> Tensor:
    """Normalized Dempster combination of I simple mass functions per voxel.

    Takes the (N, I, V) evidence of `bba` and the (I, K) membership
    logits; prototype i's masses are a_i u_ik on {k} and 1 - a_i on Omega.
    Returns (N, 3, V) masses ordered (lesion, background, ignorance).

    The unnormalized singleton mass of class k is prod_i(a_i u_ik + 1 -
    a_i) - prod_i(1 - a_i), the unnormalized ignorance mass prod_i(1 -
    a_i). Both are running products; the forward and the backward form
    each prototype's factors in turn, so no (N, 3, I, V) array of masses or
    of their gradients exists. Every factor lies in [epsneg, 1], because
    `strengths` and `distance_activation` keep 1 - a_i >= epsneg: a partial
    product is never below the final one, so none underflows before the
    final product does, and the backward's divisions by factors stay
    finite.
    """
    e, v = map(as_tensor, (evidence, membership_logits))
    ed = e.data                             # (N, I, V)
    u = memberships(v.data)                 # (I, K)

    def factors(i):
        omega = 1.0 - ed[:, i, None]        # (N, 1, V)
        factor = ed[:, i, None] * u[i, :, None]
        factor += omega                     # a_i u_ik + (1 - a_i), (N, K, V)
        return factor, omega

    w, o = factors(0)
    for i in range(1, ed.shape[1]):
        factor, omega = factors(i)
        w *= factor
        o *= omega
    fused = np.concatenate([w - o, o], axis=1)
    norm = fused[:, :K].sum(axis=1, keepdims=True) + o
    # total conflict: all mass on the empty set, to within rounding. A
    # normalizer below the smallest normal number of its dtype has lost
    # significant bits, and the backward's division by it can overflow
    if np.any(norm < np.finfo(norm.dtype).tiny):
        raise ArithmeticError("total conflict in Dempster combination")
    fused /= norm

    def backward(g):
        # through the normalization: out_j = v_j / norm
        g_v = (g - (g * fused).sum(axis=1, keepdims=True)) / norm
        g_o = g_v[:, K:] - g_v[:, :K].sum(axis=1, keepdims=True)
        g_w = g_v[:, :K] * w                # (N, K, V)
        g_o *= o                            # (N, 1, V)
        ge = np.empty(ed.shape, dtype=np.result_type(g_v, ed, u))
        g_u = np.empty(u.shape, dtype=ge.dtype)
        for i in range(ed.shape[1]):
            factor, omega = factors(i)
            g_sing = np.divide(g_w, factor, out=factor)  # dL/dm_i({k})
            g_omega = np.divide(g_o, omega, out=omega)
            g_omega += g_sing.sum(axis=1, keepdims=True)  # dL/dm_i(Omega)
            # dL/da_i: the singletons carry u_ik, ignorance -1
            g_e = np.negative(g_omega[:, 0], out=ge[:, i])
            for k in range(K):
                g_e += g_sing[:, k] * u[i, k]
            g_u[i] = np.einsum("nkv,nv->k", g_sing, ed[:, i])
        return ge, u * (g_u - (g_u * u).sum(axis=1, keepdims=True))

    return Tensor._make(fused, "dempster_fuse", (e, v), backward)


def es_forward(features: Tensor, params) -> Tensor:
    """Features (N, C, X, Y, Z) -> mass map (N, 3, X, Y, Z).

    `params` maps the four `es.*` names (prototypes, membership_logits,
    alpha_logits, gamma_roots) to arrays or (possibly trainable) tensors.
    """
    n, c, *spatial = features.shape
    s = distance_activation(features.reshape(n, c, -1),
                            params["es.prototypes"], params["es.gamma_roots"])
    masses = dempster_fuse(bba(s, params["es.alpha_logits"]),
                           params["es.membership_logits"])  # (N, 3, V)
    return masses.reshape(n, K + 1, *spatial)


# -- decision layer --------------------------------------------------------

def decide(masses: np.ndarray):
    """Mass array (..., 3) -> (binary, three-way, uncertainty) maps.

    Binary: lesion iff the pignistic probability strictly exceeds 0.5,
    that is iff m({a}) > m({b}), the comparison made; ties go to
    background. Three-way, coded 0=background, 1=lesion, 2=ignorance: the
    largest of the three masses, where a tie of m({a}) and m({b}) goes to
    background as in the binary map, and ignorance wins only when it
    exceeds both singletons. Uncertainty: raw m(Omega).
    """
    lesion = masses[..., LESION] > masses[..., BACKGROUND]
    binary = lesion.astype(np.float32)
    ignorance = masses[..., IGNORANCE] > np.maximum(masses[..., LESION],
                                                    masses[..., BACKGROUND])
    three_way = np.where(ignorance, CODE_IGNORANCE,
                         np.where(lesion, CODE_LESION, CODE_BACKGROUND)
                         ).astype(np.float32)
    uncertainty = masses[..., IGNORANCE].astype(np.float32)
    return binary, three_way, uncertainty
