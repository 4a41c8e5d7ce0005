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


def evaluate_cases(predict_binary, cases) -> dict:
    """Per-case metrics then an unweighted mean over patients, as
    {"per_patient": [{"id": ..., metric: value, ...}], "aggregate":
    {metric: mean}}.

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
    return {"per_patient": per_patient, "aggregate": aggregate}


def format_table(report: dict) -> str:
    """`report`, as `evaluate_cases` returns it, as an aligned text table:
    one row per patient, then the mean."""
    header = ["case"] + list(METRIC_NAMES)
    rows = [[p["id"]] + [f"{p[m]:.4f}" for m in METRIC_NAMES]
            for p in report["per_patient"]]
    rows.append(["mean"] + [f"{report['aggregate'][m]:.4f}"
                            for m in METRIC_NAMES])
    widths = [max(len(r[i]) for r in [header] + rows)
              for i in range(len(header))]
    def fmt(row):
        return "  ".join(c.ljust(w) for c, w in zip(row, widths))
    sep = "-" * (sum(widths) + 2 * (len(widths) - 1))
    return "\n".join([fmt(header), sep] + [fmt(r) for r in rows])


# -- sliding-window inference ----------------------------------------------

def window_starts(extent: int, patch: int):
    """Window origins covering [0, extent), half a patch (rounded up)
    apart, with the last window clamped."""
    if patch > extent:
        raise ValueError(f"patch {patch} exceeds extent {extent}")
    starts = list(range(0, extent - patch + 1, (patch + 1) // 2))
    if starts[-1] != extent - patch:
        starts.append(extent - patch)
    return starts


def sliding_window_masses(forward_fn, x: np.ndarray,
                          patch_dims) -> np.ndarray:
    """Full-volume mass map from patch predictions, averaged in overlaps.

    The patch is cut to the volume along any axis it exceeds. `forward_fn`
    maps a (1, C, px, py, pz) input to (1, px, py, pz, 3) masses. Dividing
    each voxel's window sum by its total averages the windows: the total is
    the voxel's window count, up to float error. The sums are kept channel
    first, so each add and the division run over whole planes; the result
    is a (X, Y, Z, 3) view of them.
    """
    dims = x.shape[1:]
    px, py, pz = (min(p, d) for p, d in zip(patch_dims, dims))
    acc = np.zeros((3,) + dims, dtype=np.float64)
    for sx in window_starts(dims[0], px):
        for sy in window_starts(dims[1], py):
            for sz in window_starts(dims[2], pz):
                sl = (slice(None), slice(sx, sx + px), slice(sy, sy + py),
                      slice(sz, sz + pz))
                acc[sl] += np.moveaxis(forward_fn(x[sl][None])[0], -1, 0)
    acc /= acc.sum(axis=0)
    return np.moveaxis(acc, 0, -1)
