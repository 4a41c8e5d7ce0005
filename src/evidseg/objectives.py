"""Training objective: soft Dice loss + uncertainty loss + L1 on alpha.

The segmentation map S fed to the Dice loss is derived from the fused mass
map; by default the pignistic lesion probability m({a}) + m(Omega)/2, with
the bare singleton mass m({a}) as an alternative mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evidential_head import IGNORANCE, LESION
from .tensor_core import Tensor, as_tensor

DICE_EPS = 1e-6
DICE_MODES = ("pignistic", "singleton")


@dataclass
class LossBreakdown:
    loss_d: float
    loss_u: float
    loss_reg: float
    total: float

    def as_dict(self):
        return {"loss_d": self.loss_d, "loss_u": self.loss_u,
                "loss_reg": self.loss_reg, "total": self.total}


def dice_loss(s, g) -> Tensor:
    """1 - 2*sum(S*G)/(sum(S)+sum(G)), smoothed by eps in both terms.

    S and G are (batch, voxels); the loss is averaged over batch items.
    """
    s, g = as_tensor(s), as_tensor(g)
    if s.shape != g.shape:
        raise ValueError(f"shape mismatch: S {s.shape} vs G {g.shape}")
    inter = (s * g).sum(axis=1)
    denom = s.sum(axis=1) + g.sum(axis=1)
    per_item = 1.0 - (2.0 * inter + DICE_EPS) / (denom + DICE_EPS)
    return per_item.mean()


def uncertainty_loss(m_omega) -> Tensor:
    """Mean squared ignorance mass over all voxels."""
    m_omega = as_tensor(m_omega)
    if m_omega.data.size == 0:
        raise ValueError("empty mass map")
    return (m_omega * m_omega).mean()


def total_loss(mass_map: Tensor, g: np.ndarray, alpha_logits,
               lam: float = 1e-5, dice_mode: str = "pignistic"):
    """Full objective for a (N, 3, X, Y, Z) mass tensor and binary truth G.

    `alpha_logits` is None for a head without evidence strengths; its L1
    term is then 0. Returns (total Tensor, LossBreakdown of floats).
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    n = mass_map.shape[0]
    s = lesion_map(mass_map, dice_mode).reshape(n, -1)
    g_flat = np.asarray(g, dtype=mass_map.dtype).reshape(n, -1)
    loss_d = dice_loss(s, g_flat)
    loss_u = uncertainty_loss(mass_map[:, IGNORANCE])
    # alpha > 0, so the L1 norm is a plain sum
    loss_reg = (as_tensor(0.0, mass_map.dtype) if alpha_logits is None
                else lam * as_tensor(alpha_logits).sigmoid().sum())
    total = loss_d + loss_u + loss_reg
    breakdown = LossBreakdown(float(loss_d.data), float(loss_u.data),
                              float(loss_reg.data), float(total.data))
    return total, breakdown


def lesion_map(mass_map: Tensor, mode: str = "pignistic") -> Tensor:
    """Soft lesion probability S from a (N, 3, X, Y, Z) mass tensor."""
    if mode not in DICE_MODES:
        raise ValueError(f"unknown dice mode {mode!r}")
    m_a = mass_map[:, LESION]
    if mode == "singleton":
        return m_a
    return m_a + 0.5 * mass_map[:, IGNORANCE]
