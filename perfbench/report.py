"""Metric names, units, and the per-layer numbers computed from a trace.

A per-layer number is taken from one path of the traced run: the
workload's own path if the layer ran there, otherwise the first of
train-es, train-softmax, eval, gradcheck, setup on which it ran. Times and
counts are divided by that path's unit of work: a training step, an eval
case, a gradcheck suite pass or a set-up. Medians and maxima are over
single calls. `sources` in the result file names the path and unit behind
each number.
"""

from __future__ import annotations

from collections import defaultdict

from tracing import END, NAME, PARENT, PATH, START, self_times
from workloads import TIMED, WORKLOADS

END_TO_END = [
    # name, unit, better, bound
    ("train_es_samples_per_s", "samples/s", "higher", 0.25),
    ("train_softmax_samples_per_s", "samples/s", "higher", 0.25),
    ("eval_cases_per_s", "cases/s", "higher", 0.25),
    ("gradcheck_checks_per_s", "checks/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
]

DESK_LEVELS = ("enc0", "enc1", "enc2", "dec1", "dec0", "final")
FULL_LEVELS = ("enc0", "enc1", "enc2", "enc3", "enc4",
               "dec3", "dec2", "dec1", "dec0", "final")

# name -> (unit, kind, key); kinds are defined in `_value`
PER_LAYER = {}
for _lvl in FULL_LEVELS:
    PER_LAYER[f"tensor_core.conv3d.{_lvl}.fwd_s"] = (
        "s", "incl", f"tensor_core.conv3d.{_lvl}.fwd")
for _lvl in DESK_LEVELS:
    PER_LAYER[f"tensor_core.conv3d.{_lvl}.bwd_s"] = (
        "s", "count", f"tensor_core.conv3d.{_lvl}.bwd_s")
PER_LAYER.update({
    "tensor_core.conv3d.gflop": ("GFLOP-computed", "gflop",
                                 "tensor_core.conv3d.flop"),
    "tensor_core.conv3d.bytes": ("B-computed", "count",
                                 "tensor_core.conv3d.bytes"),
    "tensor_core.conv3d.gflop_per_s": ("GFLOP/s", "gflop_per_s",
                                       "tensor_core.conv3d.flop"),
})
for _op in ("maxpool3d", "upsample3d", "concat"):
    PER_LAYER[f"tensor_core.{_op}.fwd_s"] = ("s", "incl",
                                             f"tensor_core.{_op}.fwd")
    PER_LAYER[f"tensor_core.{_op}.bwd_s"] = ("s", "count",
                                             f"tensor_core.{_op}.bwd_s")
PER_LAYER.update({
    "tensor_core.backward_s": ("s", "incl", "tensor_core.backward"),
    "tensor_core.tape_nodes": ("count", "per_backward",
                               "tensor_core.tape_nodes"),
    "backbone_unet.forward_features_s": ("s", "incl",
                                         "backbone_unet.forward_features"),
    "backbone_unet.bwd_s": ("s", "count", "backbone_unet.bwd_s"),
    "evidential_head.es_forward_s": ("s", "incl",
                                     "evidential_head.es_forward"),
    "evidential_head.distance_activation_s": (
        "s", "incl", "evidential_head.distance_activation"),
    "evidential_head.bba_s": ("s", "incl", "evidential_head.bba"),
    "evidential_head.dempster_fuse_s": ("s", "incl",
                                        "evidential_head.dempster_fuse"),
    "evidential_head.bwd_s": ("s", "count", "evidential_head.bwd_s"),
    "evidential_head.tape_nodes": ("count", "count",
                                   "evidential_head.tape_nodes"),
    "evidential_head.decide_s": ("s", "incl", "evidential_head.decide"),
    "objectives.total_loss_s": ("s", "incl", "objectives.total_loss"),
    "objectives.bwd_s": ("s", "count", "objectives.bwd_s"),
    "trainer.step_s": ("s", "p50", "trainer.step"),
    "trainer.step_s.max": ("s", "max", "trainer.step"),
    "trainer.step_unattributed_frac": ("fraction", "unattributed",
                                       "trainer.step"),
    "trainer.adam_step_s": ("s", "incl", "trainer.adam_step"),
    "trainer.sample_patch_s": ("s", "incl", "trainer.sample_patch"),
    "trainer.prepare_case_s": ("s", "incl", "trainer.prepare_case"),
    "trainer.validation_stats_s": ("s", "incl", "trainer.validation_stats"),
    "trainer.load_checkpoint_s": ("s", "incl", "trainer.load_checkpoint"),
    "metrics.sliding_window_masses.self_s": (
        "s", "self", "metrics.sliding_window_masses"),
    "metrics.windows": ("count", "count", "metrics.windows"),
    "metrics.evaluate_cases.self_s": ("s", "self", "metrics.evaluate_cases"),
    "volume_io.read_dataset_s": ("s", "incl", "volume_io.read_dataset"),
    "volume_io.bytes_read": ("B", "count", "volume_io.bytes_read"),
    "volume_io.generate_phantom_s": ("s", "incl",
                                     "volume_io.generate_phantom"),
    "volume_io.write_dataset_s": ("s", "incl", "volume_io.write_dataset"),
    "gradcheck.forward_evals": ("count", "calls", "gradcheck.forward_eval"),
    "gradcheck.checks": ("count", "count", "gradcheck.checks"),
    "gradcheck.skipped_at_kink": ("count", "count",
                                  "gradcheck.skipped_at_kink"),
    "gradcheck.evals_per_check": ("ratio", "evals_per_check",
                                  "gradcheck.forward_eval"),
    "gradcheck.forward_eval_s": ("s", "p50", "gradcheck.forward_eval"),
    "gradcheck.backward_gradients_s": ("s", "incl",
                                       "gradcheck.backward_gradients"),
    "gradcheck.case.backbone_tiny_s": ("s", "incl",
                                       "gradcheck.case.backbone_tiny"),
    "gradcheck.case.total_loss_through_backbone_s": (
        "s", "incl", "gradcheck.case.total_loss_through_backbone"),
})
for _name, _unit, _better, _bound in END_TO_END[:4]:
    PER_LAYER[f"trace.overhead.{_name}"] = ("fraction", "overhead", _name)

OWN_PATHS = {w: TIMED[path] for w, path in WORKLOADS.items()}
PATH_ORDER = ("train-es", "train-softmax", "eval", "gradcheck", "setup")
# path -> (span or counter that counts its units of work, unit name)
UNITS = {"train-es": ("trainer.step", "training step"),
         "train-softmax": ("trainer.step", "training step"),
         "eval": ("metrics.sliding_window_masses", "eval case"),
         "gradcheck": ("gradcheck.passes", "suite pass"),
         "setup": ("op.setup", "set-up")}

# the layers whose self times should account for a training step
NAMED_STEP_PARTS = ("tensor_core.conv3d.", "evidential_head.", "objectives.",
                    "trainer.adam_step")


def percentile(values, q):
    """Nearest-rank percentile, q in [0, 100]."""
    v = sorted(values)
    if not v:
        return float("nan")
    rank = max(1, -(-len(v) * q // 100))
    return v[int(rank) - 1]


class Trace:
    """Aggregates of one tracer's spans and counters, per path."""

    def __init__(self, tracer):
        spans = tracer.spans
        selfs = self_times(spans)
        self.incl = defaultdict(float)
        self.self = defaultdict(float)
        self.calls = defaultdict(int)
        self.durations = defaultdict(list)
        for s, st in zip(spans, selfs):
            key = (s[PATH], s[NAME])
            d = s[END] - s[START]
            self.incl[key] += d
            self.self[key] += st
            self.calls[key] += 1
            if s[NAME] in ("trainer.step", "gradcheck.forward_eval"):
                self.durations[key].append(d)
        self.counts = tracer.counts
        self.spans, self.selfs = spans, selfs

    def units(self, path):
        key = (path, UNITS[path][0])
        return self.calls[key] or int(self.counts.get(key, 0))

    def present(self, path, kind, key):
        if kind in ("count", "per_backward", "gflop", "gflop_per_s"):
            return self.counts.get((path, key), 0) > 0
        if kind == "overhead":
            return True
        return self.calls[(path, key)] > 0

    def step_breakdown(self, path):
        """Self time per training step on `path`, by span name; the step
        span's own self time is listed as "trainer.step"."""
        inside, out = set(), defaultdict(float)
        for i, s in enumerate(self.spans):
            if s[PATH] == path and (s[NAME] == "trainer.step"
                                    or s[PARENT] in inside):
                inside.add(i)
                out[s[NAME]] += self.selfs[i]
        n = self.units(path) or 1
        return {name: v / n for name, v in out.items()}

    def unattributed(self, path):
        """Share of step time outside conv3d, head, objectives and Adam."""
        parts = self.step_breakdown(path)
        step = self.incl[(path, "trainer.step")] / (self.units(path) or 1)
        named = sum(v for name, v in parts.items()
                    if name.startswith(NAMED_STEP_PARTS))
        return 1.0 - named / step if step else float("nan")


def _value(trace, path, kind, key, untraced, traced):
    n = trace.units(path) or 1
    c = trace.counts.get((path, key), 0.0)
    if kind == "incl":
        return trace.incl[(path, key)] / n
    if kind == "self":
        return trace.self[(path, key)] / n
    if kind == "count":
        return c / n
    if kind == "calls":
        return trace.calls[(path, key)] / n
    if kind == "gflop":
        # per unit first: a whole number, so the count repeats to the digit
        return c / n / 1e9
    if kind == "per_backward":
        return c / trace.counts[(path, "tensor_core.backward_calls")]
    if kind == "gflop_per_s":
        # forward spans and the backward spans of conv3d tape nodes
        busy = sum(v for (p, name), v in trace.incl.items()
                   if p == path and name.startswith("tensor_core.conv3d."))
        return c / 1e9 / busy
    if kind == "p50":
        return percentile(trace.durations[(path, key)], 50)
    if kind == "max":
        return max(trace.durations[(path, key)])
    if kind == "unattributed":
        return trace.unattributed(path)
    if kind == "evals_per_check":
        return trace.calls[(path, key)] / trace.counts[(path,
                                                        "gradcheck.checks")]
    if kind == "overhead":
        return untraced[key] / traced[key] - 1.0
    raise ValueError(kind)


def per_layer(trace, workload, untraced, traced):
    """({metric: value}, {metric: source}) for every per-layer metric."""
    order = OWN_PATHS[workload] + tuple(p for p in PATH_ORDER
                                        if p not in OWN_PATHS[workload])
    values, sources = {}, {}
    for name, (unit, kind, key) in PER_LAYER.items():
        path = next((p for p in order if trace.present(p, kind, key)), None)
        if path is None:
            values[name] = float("nan")
            sources[name] = "not observed"
            continue
        values[name] = _value(trace, path, kind, key, untraced, traced)
        if kind == "overhead":
            sources[name] = "untraced / traced rate - 1"
        elif kind in ("p50", "max"):
            n = len(trace.durations[(path, key)])
            sources[name] = f"{path}: {kind} of {n} calls"
        else:
            sources[name] = (f"{path}: per {UNITS[path][1]}, "
                             f"{trace.units(path)} observed")
    return values, sources
