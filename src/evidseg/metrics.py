"""Evaluation indices with per-patient averaging, plus patch inference.

Dice here is computed on binary maps, unlike the soft Dice training loss.
Note that F1 derived from the same voxel counts is algebraically identical
to Dice (2tp / (2tp + fp + fn)); both are reported anyway.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

METRIC_NAMES = ("dice", "sensitivity", "specificity", "precision", "f1")


@dataclass
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int


def confusion(pred: np.ndarray, truth: np.ndarray) -> ConfusionCounts:
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {truth.shape}")
    for name, a in (("pred", pred), ("truth", truth)):
        if not np.all(np.isin(np.unique(a), (0.0, 1.0))):
            raise ValueError(f"{name} map is not binary")
    p = pred.astype(bool)
    g = truth.astype(bool)
    return ConfusionCounts(
        tp=int(np.count_nonzero(p & g)),
        fp=int(np.count_nonzero(p & ~g)),
        tn=int(np.count_nonzero(~p & ~g)),
        fn=int(np.count_nonzero(~p & g)),
    )


def _ratio(num: int, den: int) -> float:
    # degenerate denominators: 1.0 when there was nothing to get wrong
    if den == 0:
        return 1.0
    return num / den


def compute_metrics(counts: ConfusionCounts) -> dict:
    tp, fp, tn, fn = counts.tp, counts.fp, counts.tn, counts.fn
    dice = _ratio(2 * tp, 2 * tp + fp + fn)
    sens = _ratio(tp, tp + fn)
    spec = _ratio(tn, tn + fp)
    prec = _ratio(tp, tp + fp)
    f1 = 0.0 if prec + sens == 0 else 2.0 * prec * sens / (prec + sens)
    return {"dice": dice, "sensitivity": sens, "specificity": spec,
            "precision": prec, "f1": f1}


@dataclass
class MetricReport:
    per_patient: list  # [{"id": ..., metric: value, ...}]
    aggregate: dict

    def as_dict(self):
        return {"per_patient": self.per_patient, "aggregate": self.aggregate}

    def as_table(self) -> str:
        header = ["case"] + list(METRIC_NAMES)
        rows = [[p["id"]] + [f"{p[m]:.4f}" for m in METRIC_NAMES]
                for p in self.per_patient]
        rows.append(["mean"] + [f"{self.aggregate[m]:.4f}"
                                for m in METRIC_NAMES])
        widths = [max(len(r[i]) for r in [header] + rows)
                  for i in range(len(header))]
        def fmt(row):
            return "  ".join(c.ljust(w) for c, w in zip(row, widths))
        sep = "-" * (sum(widths) + 2 * (len(widths) - 1))
        return "\n".join([fmt(header), sep] + [fmt(r) for r in rows])


def evaluate_cases(predict_binary, cases) -> MetricReport:
    """Per-case metrics then an unweighted mean over patients.

    `predict_binary(case)` must return a binary lesion map with the case's
    dims.
    """
    cases = list(cases)
    if not cases:
        raise ValueError("no cases to evaluate")
    per_patient = []
    for case in sorted(cases, key=lambda c: c.id):
        pred = predict_binary(case)
        m = compute_metrics(confusion(pred, case.mask.voxels))
        per_patient.append({"id": case.id, **m})
    aggregate = {name: float(np.mean([p[name] for p in per_patient]))
                 for name in METRIC_NAMES}
    return MetricReport(per_patient=per_patient, aggregate=aggregate)


# -- sliding-window inference ----------------------------------------------

def window_starts(extent: int, patch: int, stride: int):
    """Window origins covering [0, extent) with the last window clamped."""
    if patch > extent:
        raise ValueError(f"patch {patch} exceeds extent {extent}")
    # a stride over the patch leaves the voxels between two windows unseen
    if not 1 <= stride <= patch:
        raise ValueError(f"stride {stride} must lie in [1, {patch}], the "
                         f"window size")
    starts = list(range(0, extent - patch + 1, stride))
    if starts[-1] != extent - patch:
        starts.append(extent - patch)
    return starts


def sliding_window_masses(forward_fn, x: np.ndarray, patch_dims,
                          stride) -> np.ndarray:
    """Full-volume mass map from patch predictions, averaged in overlaps.

    `forward_fn` maps a (1, C, px, py, pz) input to (1, px, py, pz, 3)
    masses. Dividing each voxel's window sum by its total averages the
    windows: the total is the voxel's window count, up to float error.
    """
    dims = x.shape[1:]
    acc = np.zeros(dims + (3,), dtype=np.float64)
    for sx in window_starts(dims[0], patch_dims[0], stride):
        for sy in window_starts(dims[1], patch_dims[1], stride):
            for sz in window_starts(dims[2], patch_dims[2], stride):
                sl = (slice(sx, sx + patch_dims[0]),
                      slice(sy, sy + patch_dims[1]),
                      slice(sz, sz + patch_dims[2]))
                patch = x[(slice(None),) + sl][None]
                acc[sl] += forward_fn(patch)[0]
    return acc / acc.sum(axis=-1, keepdims=True)
