"""Finite-difference verification suite covering every op kind in use.

Each case builds a float64 scalar graph over random leaves, written only
with ops the model itself records, and checks the backward gradients
against central differences. The step (`STEP`, 1e-3) and the relative
tolerance (`TOL`, 1e-4) are fixed constants. The checker skips elements
that straddle a kink, a relu or max-pooling switch point, where a central
difference is not a derivative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import backbone_unet as bb
from . import evidential_head as ev
from . import objectives as obj
from .seeding import derive_seed
from .tensor_core import (Graph, concat, conv3d, maxpool3d, track_patterns,
                          upsample_nearest3d)

STEP = 1e-3
TOL = 1e-4


@dataclass
class CaseResult:
    name: str
    passed: bool
    max_error: float
    reports: list


@dataclass
class FdReport:
    """Outcome of a finite-difference gradient check on one leaf."""
    leaf: str
    max_error: float
    passed: bool
    checked: int = 0
    skipped_at_kink: int = 0


def finite_difference_check(graph: Graph, leaf: str,
                            inputs: dict | None = None,
                            sample: int | None = None,
                            rng: np.random.Generator | None = None) -> FdReport:
    """Compare backward gradients against central differences.

    Relative error per element, with an absolute-error fallback when both
    the analytic and numeric values are below 1e-8 in magnitude. `sample`
    limits the check to that many randomly chosen elements of the leaf.

    Elements whose relu/argmax activation pattern differs between the two
    perturbed evaluations straddle a kink, where the central difference is
    not a derivative estimate; they are skipped and counted.
    """
    patterns = track_patterns(True)

    def evaluate():
        # the value and the kink patterns of one forward evaluation
        patterns.clear()
        value = graph.forward_eval(inputs)
        return value, tuple(patterns)

    try:
        _, base_pattern = evaluate()
        analytic = graph.backward_gradients()[leaf]
        theta = graph.leaves[leaf]
        flat = theta.reshape(-1)
        indices = np.arange(flat.size)
        if sample is not None and sample < flat.size:
            rng = rng or np.random.default_rng(0)
            indices = rng.choice(flat.size, size=sample, replace=False)
        def central(i, h):
            orig = flat[i]
            flat[i] = orig + h
            f_plus, plus_pattern = evaluate()
            flat[i] = orig - h
            f_minus, minus_pattern = evaluate()
            flat[i] = orig
            if not (base_pattern == plus_pattern == minus_pattern):
                return None
            return (f_plus - f_minus) / (2.0 * h)

        def rel_error(a, fd):
            # relative error with an absolute floor: elements smaller than
            # 1e-8/TOL are held to absolute error 1e-8, since relative
            # error on near-zero gradients only measures FD truncation noise
            denom = max(abs(a), abs(fd), 1e-8 / TOL)
            return abs(a - fd) / denom

        max_err, skipped = 0.0, 0
        for i in indices:
            fd = central(i, STEP)
            if fd is None:
                skipped += 1
                continue
            a = analytic.reshape(-1)[i]
            err = rel_error(a, fd)
            if err > TOL:
                # truncation of the central difference itself can exceed TOL
                # on high-curvature elements; a wrong gradient stays wrong as
                # the step shrinks, so recheck before declaring failure
                fd_fine = central(i, STEP / 8.0)
                if fd_fine is not None:
                    err = min(err, rel_error(a, fd_fine))
            max_err = max(max_err, err)
    finally:
        track_patterns(False)
    return FdReport(leaf=leaf, max_error=max_err, passed=max_err <= TOL,
                    checked=len(indices) - skipped, skipped_at_kink=skipped)


def _u(rng, *shape, lo=-1.0, hi=1.0):
    return rng.uniform(lo, hi, size=shape)


def _square_sum(t):
    return (t * t).sum()


# -- case factories: each returns (Graph, inputs) --------------------------

def case_affine(rng):
    x = _u(rng, 5, 4)
    leaves = {"w": _u(rng, 4, 3), "b": _u(rng, 3)}
    # x @ w as a broadcast product summed over the shared axis
    build = lambda lv, iv: ((iv["x"].reshape(5, 4, 1) * lv["w"]).sum(axis=1)
                            + lv["b"]).sigmoid().sum()
    return Graph(build, leaves), {"x": x}


def case_elementwise(rng):
    leaves = {"x": _u(rng, 12, lo=0.2, hi=2.0)}

    def build(lv, iv):
        x = lv["x"]
        return ((x * x).exp() + (1.0 - x).exp()).sum()

    return Graph(build, leaves), {}


def case_squashing(rng):
    leaves = {"x": _u(rng, 3, 7)}
    build = lambda lv, iv: (lv["x"].sigmoid() * lv["x"]).sum()
    return Graph(build, leaves), {}


def case_products(rng):
    leaves = {"a": _u(rng, 4, 5), "b": _u(rng, 5), "c": _u(rng, 4, 1, lo=0.5, hi=2.0)}
    build = lambda lv, iv: (lv["a"] * lv["b"] / lv["c"]).sum()
    return Graph(build, leaves), {}


def case_reductions(rng):
    leaves = {"x": _u(rng, 3, 4, 5)}

    def build(lv, iv):
        x = lv["x"]
        return ((x.sum(axis=2, keepdims=True) * x.mean()).sum()
                + (x * x).sum())

    return Graph(build, leaves), {}


def case_relu(rng):
    # keep leaves away from the kink at 0
    x = _u(rng, 4, 6)
    x = np.where(np.abs(x) < 0.05, 0.1 * np.sign(x) + (x == 0) * 0.1, x)
    leaves = {"x": x}
    build = lambda lv, iv: _square_sum(lv["x"].relu())
    return Graph(build, leaves), {}


def case_conv3d(rng):
    leaves = {"w": _u(rng, 3, 2, 3, 3, 3), "b": _u(rng, 3),
              "x": _u(rng, 1, 2, 4, 4, 4)}
    build = lambda lv, iv: (conv3d(lv["x"], lv["w"], lv["b"]).sigmoid()).sum()
    return Graph(build, leaves), {}


def case_maxpool(rng):
    leaves = {"x": _u(rng, 1, 2, 4, 4, 4)}
    build = lambda lv, iv: _square_sum(maxpool3d(lv["x"]))
    return Graph(build, leaves), {}


def case_upsample(rng):
    leaves = {"x": _u(rng, 1, 2, 3, 3, 3)}
    build = lambda lv, iv: (upsample_nearest3d(lv["x"]).sigmoid()).sum()
    return Graph(build, leaves), {}


def case_concat(rng):
    leaves = {"a": _u(rng, 1, 2, 2, 2, 2), "b": _u(rng, 1, 3, 2, 2, 2)}
    build = lambda lv, iv: _square_sum(concat([lv["a"], lv["b"]], axis=1))
    return Graph(build, leaves), {}


def _es_leaves(rng, i=4, c=3):
    # moderate scales keep higher-order FD truncation well under tolerance
    return {"es.prototypes": _u(rng, i, c, lo=-0.4, hi=0.4),
            "es.membership_logits": _u(rng, i, ev.K),
            "es.alpha_logits": _u(rng, i, lo=-2.0, hi=2.0),
            "es.gamma_roots": _u(rng, i, lo=0.05, hi=0.1)}


def case_distance_activation(rng):
    leaves = {"f": _u(rng, 10, 3, lo=-0.4, hi=0.4), **_es_leaves(rng)}

    def build(lv, iv):
        s = ev.distance_activation(lv["f"], lv["es.prototypes"],
                                   lv["es.gamma_roots"])
        return (s * s).sum()

    return Graph(build, leaves), {}


def case_bba(rng):
    leaves = {"f": _u(rng, 8, 3, lo=-0.4, hi=0.4), **_es_leaves(rng)}

    def build(lv, iv):
        s = ev.distance_activation(lv["f"], lv["es.prototypes"],
                                   lv["es.gamma_roots"])
        masses = ev.bba(s, lv["es.membership_logits"], lv["es.alpha_logits"])
        m_sing, m_omega = masses[..., :ev.K], masses[..., ev.IGNORANCE]
        return _square_sum(m_sing) + _square_sum(m_omega)

    return Graph(build, leaves), {}


def case_dempster_fuse(rng):
    leaves = {"f": _u(rng, 8, 3, lo=-0.4, hi=0.4), **_es_leaves(rng)}

    def build(lv, iv):
        s = ev.distance_activation(lv["f"], lv["es.prototypes"],
                                   lv["es.gamma_roots"])
        fused = ev.dempster_fuse(ev.bba(s, lv["es.membership_logits"],
                                        lv["es.alpha_logits"]))
        return _square_sum(fused)

    return Graph(build, leaves), {}


def _es_volume_graph(rng, loss_of_masses, n=1, c=3, d=4, i=4):
    leaves = {"f": _u(rng, n, c, d, d, d, lo=-0.4, hi=0.4), **_es_leaves(rng, i=i, c=c)}
    g = (rng.random((n, d, d, d)) < 0.4).astype(np.float64)

    def build(lv, iv):
        masses = ev.es_forward(lv["f"], lv)
        return loss_of_masses(masses, lv, iv)

    return Graph(build, leaves), {"g": g}


def case_es_forward(rng):
    return _es_volume_graph(rng, lambda m, lv, iv: _square_sum(m))


def case_dice_loss_pignistic(rng):
    def loss(masses, lv, iv):
        n = masses.shape[0]
        s = obj.lesion_map(masses, "pignistic").reshape(n, -1)
        return obj.dice_loss(s, iv["g"].reshape(n, -1))

    return _es_volume_graph(rng, loss)


def case_dice_loss_singleton(rng):
    def loss(masses, lv, iv):
        n = masses.shape[0]
        s = obj.lesion_map(masses, "singleton").reshape(n, -1)
        return obj.dice_loss(s, iv["g"].reshape(n, -1))

    return _es_volume_graph(rng, loss)


def case_uncertainty_loss(rng):
    def loss(masses, lv, iv):
        return obj.uncertainty_loss(masses[:, ev.IGNORANCE])

    return _es_volume_graph(rng, loss)


def case_total_loss(rng):
    def loss(masses, lv, iv):
        total, _ = obj.total_loss(masses, iv["g"].data,
                                  lv["es.alpha_logits"], lam=1e-3)
        return total

    return _es_volume_graph(rng, loss)


def case_backbone_tiny(rng):
    config = bb.BackboneConfig(channels=(2, 4))
    params = bb.init_backbone(config, int(rng.integers(1 << 31)),
                              dtype=np.float64)
    # nonzero biases so the zero-bias special case is not all we check
    leaves = {k: (v if not k.endswith(".b")
                  else _u(rng, *v.shape, lo=-0.1, hi=0.1))
              for k, v in params.items()}
    x = _u(rng, 1, 2, 8, 8, 8)

    def build(lv, iv):
        feats = bb.forward_features(lv, iv["x"], config)
        return _square_sum(feats.sigmoid())

    return Graph(build, leaves), {"x": x}


def case_total_loss_through_backbone(rng):
    config = bb.BackboneConfig(channels=(2, 4))
    params = bb.init_backbone(config, int(rng.integers(1 << 31)),
                              dtype=np.float64)
    leaves = {**params, **_es_leaves(rng, i=3, c=config.feature_dim)}
    x = _u(rng, 1, 2, 8, 8, 8)
    g = (rng.random((1, 8, 8, 8)) < 0.3).astype(np.float64)

    def build(lv, iv):
        feats = bb.forward_features(lv, iv["x"], config)
        masses = ev.es_forward(feats, lv)
        total, _ = obj.total_loss(masses, iv["g"].data,
                                  lv["es.alpha_logits"], lam=1e-3)
        return total

    return Graph(build, leaves), {"x": x, "g": g}


CASES = {
    "affine": case_affine,
    "elementwise_exp_log_square": case_elementwise,
    "squashing": case_squashing,
    "products": case_products,
    "sums_reductions": case_reductions,
    "rectifier": case_relu,
    "conv3d": case_conv3d,
    "maxpool": case_maxpool,
    "upsample": case_upsample,
    "concat": case_concat,
    "distance_activation": case_distance_activation,
    "bba": case_bba,
    "dempster_fuse": case_dempster_fuse,
    "es_forward": case_es_forward,
    "dice_loss_pignistic": case_dice_loss_pignistic,
    "dice_loss_singleton": case_dice_loss_singleton,
    "uncertainty_loss": case_uncertainty_loss,
    "total_loss": case_total_loss,
    "backbone_tiny": case_backbone_tiny,
    "total_loss_through_backbone": case_total_loss_through_backbone,
}

# element sampling keeps the heavyweight cases inside the runtime budget
SAMPLE_LIMITS = {"backbone_tiny": 40, "total_loss_through_backbone": 40}


def run_case(name, instances=20, seed=0, inject_fault=False) -> CaseResult:
    factory = CASES[name]
    rng = np.random.default_rng(derive_seed(seed, f"gradcheck:{name}"))
    sample = SAMPLE_LIMITS.get(name)
    reports, max_err, passed = [], 0.0, True
    for _ in range(instances):
        graph, inputs = factory(rng)
        if inject_fault:
            graph = _with_fault(graph)
        for leaf in graph.leaves:
            r = finite_difference_check(graph, leaf, inputs=inputs,
                                        sample=sample, rng=rng)
            reports.append(r)
            max_err = max(max_err, r.max_error)
            passed = passed and r.passed
    return CaseResult(name=name, passed=passed, max_error=max_err,
                      reports=reports)


def _with_fault(graph: Graph) -> Graph:
    class Faulty(Graph):
        def backward_gradients(self):
            grads = super().backward_gradients()
            first = next(iter(grads))
            grads[first] = grads[first].copy()
            grads[first].reshape(-1)[0] += 1.0
            return grads

    return Faulty(graph.build, graph.leaves)


def run_suite(names=None, instances=20, seed=0, inject_fault=None):
    """Run the named cases (default: all); returns list of CaseResult."""
    results = []
    for name in (names or CASES):
        results.append(run_case(name, instances=instances, seed=seed,
                                inject_fault=(name == inject_fault)))
    return results


GATE_CASES = ("conv3d", "maxpool", "es_forward", "total_loss",
              "backbone_tiny")


def run_gate(seed=0):
    """Fast pre-training gate; returns names of failing cases."""
    results = run_suite(GATE_CASES, instances=2, seed=seed)
    return [r.name for r in results if not r.passed]
