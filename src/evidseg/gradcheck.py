"""Finite-difference verification suite covering every op kind in use.

Each case factory draws one instance: a `Graph`, a float64 scalar
function of random leaves written only with ops the model itself records,
whose constants, drawn once per instance, live in its build's closure.
The checker compares its backward gradients against central differences.
The step (`STEP`, 1e-3) and the relative tolerance (`TOL`, 1e-4) are
fixed constants. The checker skips elements that straddle a kink, a relu
or max-pooling switch point, where a central difference is not a
derivative: there the kink patterns each evaluation leaves on
`Graph.patterns` differ. Cases that differ only in their loss share one
helper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import backbone_unet as bb
from . import evidential_head as ev
from . import objectives as obj
from .seeding import derive_seed
from .tensor_core import (Graph, Tensor, concat, conv3d, maxpool3d,
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
                            sample: int | None = None,
                            rng: np.random.Generator | None = None) -> FdReport:
    """Compare backward gradients against central differences.

    Relative error per element, with an absolute-error fallback when both
    the analytic and numeric values are below 1e-8 in magnitude. `sample`
    limits the check to that many randomly chosen elements of the leaf.

    Elements whose kink patterns (`Graph.patterns`) differ between the
    base and the two perturbed evaluations straddle a kink, where the
    central difference is not a derivative estimate; they are skipped and
    counted.
    """
    graph.forward_eval()
    base_pattern = graph.patterns
    analytic = graph.backward_gradients()[leaf]
    flat = graph.leaves[leaf].reshape(-1)
    indices = np.arange(flat.size)
    if sample is not None and sample < flat.size:
        rng = rng or np.random.default_rng(0)
        indices = rng.choice(flat.size, size=sample, replace=False)

    def central(i, h):
        orig = flat[i]
        flat[i] = orig + h
        f_plus, plus_pattern = graph.forward_eval(), graph.patterns
        flat[i] = orig - h
        f_minus, minus_pattern = graph.forward_eval(), graph.patterns
        flat[i] = orig
        if not (base_pattern == plus_pattern == minus_pattern):
            return None
        return (f_plus - f_minus) / (2.0 * h)

    def rel_error(a, fd):
        # a NaN or infinite value, as a broken gradient gives, is the worst
        # error there is; else relative error with an absolute floor:
        # elements smaller than 1e-8/TOL are held to absolute error 1e-8,
        # since relative error on near-zero gradients only measures FD
        # truncation noise
        if not (np.isfinite(a) and np.isfinite(fd)):
            return np.inf
        return abs(a - fd) / max(abs(a), abs(fd), 1e-8 / TOL)

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
    return FdReport(leaf=leaf, max_error=max_err, passed=max_err <= TOL,
                    checked=len(indices) - skipped, skipped_at_kink=skipped)


def _u(rng, *shape, lo=-1.0, hi=1.0):
    return rng.uniform(lo, hi, size=shape)


def _square_sum(t):
    return (t * t).sum()


# -- case factories: each returns a Graph whose constants its build holds --

def case_affine(rng):
    x = Tensor(_u(rng, 5, 4))
    leaves = {"w": _u(rng, 4, 3), "b": _u(rng, 3)}
    # x @ w as a broadcast product summed over the shared axis
    build = lambda lv: ((x.reshape(5, 4, 1) * lv["w"]).sum(axis=1)
                        + lv["b"]).sigmoid().sum()
    return Graph(build, leaves)


def case_elementwise(rng):
    leaves = {"x": _u(rng, 12, lo=0.2, hi=2.0)}

    def build(lv):
        x = lv["x"]
        return ((x * x).exp() + (1.0 - x).exp()).sum()

    return Graph(build, leaves)


def case_squashing(rng):
    leaves = {"x": _u(rng, 3, 7)}
    build = lambda lv: (lv["x"].sigmoid() * lv["x"]).sum()
    return Graph(build, leaves)


def case_products(rng):
    leaves = {"a": _u(rng, 4, 5), "b": _u(rng, 5), "c": _u(rng, 4, 1, lo=0.5, hi=2.0)}
    build = lambda lv: (lv["a"] * lv["b"] / lv["c"]).sum()
    return Graph(build, leaves)


def case_reductions(rng):
    leaves = {"x": _u(rng, 3, 4, 5)}

    def build(lv):
        x = lv["x"]
        return ((x.sum(axis=2, keepdims=True) * x.mean()).sum()
                + (x * x).sum())

    return Graph(build, leaves)


def case_relu(rng):
    # keep leaves away from the kink at 0
    x = _u(rng, 4, 6)
    x = np.where(np.abs(x) < 0.05, 0.1 * np.sign(x) + (x == 0) * 0.1, x)
    leaves = {"x": x}
    build = lambda lv: _square_sum(lv["x"].relu())
    return Graph(build, leaves)


def case_conv3d(rng):
    leaves = {"w": _u(rng, 3, 2, 3, 3, 3), "b": _u(rng, 3),
              "x": _u(rng, 1, 2, 4, 4, 4)}
    build = lambda lv: (conv3d(lv["x"], lv["w"], lv["b"]).sigmoid()).sum()
    return Graph(build, leaves)


def case_maxpool(rng):
    leaves = {"x": _u(rng, 1, 2, 4, 4, 4)}
    build = lambda lv: _square_sum(maxpool3d(lv["x"]))
    return Graph(build, leaves)


def case_upsample(rng):
    leaves = {"x": _u(rng, 1, 2, 3, 3, 3)}
    build = lambda lv: (upsample_nearest3d(lv["x"]).sigmoid()).sum()
    return Graph(build, leaves)


def case_concat(rng):
    leaves = {"a": _u(rng, 1, 2, 2, 2, 2), "b": _u(rng, 1, 3, 2, 2, 2)}
    build = lambda lv: _square_sum(concat([lv["a"], lv["b"]], axis=1))
    return Graph(build, leaves)


def _es_leaves(rng, i=4, c=3):
    # moderate scales keep higher-order FD truncation well under tolerance
    return {"es.prototypes": _u(rng, i, c, lo=-0.4, hi=0.4),
            "es.membership_logits": _u(rng, i, ev.K),
            "es.alpha_logits": _u(rng, i, lo=-2.0, hi=2.0),
            "es.gamma_roots": _u(rng, i, lo=0.05, hi=0.1)}


def _es_features(rng, m):
    # (1, C, M) features, contiguous so the checker perturbs them in place
    return _u(rng, m, 3, lo=-0.4, hi=0.4).T[None].copy()


def _head_case(m, loss_of_s):
    """Case factory: the head's stages on m feature vectors, scored by
    `loss_of_s(s, leaves)` on their distance activations s."""
    def factory(rng):
        leaves = {"f": _es_features(rng, m), **_es_leaves(rng)}

        def build(lv):
            s = ev.distance_activation(lv["f"], lv["es.prototypes"],
                                       lv["es.gamma_roots"])
            return loss_of_s(s, lv)

        return Graph(build, leaves)

    return factory


def _es_volume_graph(rng, loss_of_masses, n=1, c=3, d=4, i=4):
    """The head's forward on (n, c, d, d, d) features, scored by
    `loss_of_masses(masses, leaves, g)` against a drawn binary truth g."""
    leaves = {"f": _u(rng, n, c, d, d, d, lo=-0.4, hi=0.4), **_es_leaves(rng, i=i, c=c)}
    g = (rng.random((n, d, d, d)) < 0.4).astype(np.float64)
    build = lambda lv: loss_of_masses(ev.es_forward(lv["f"], lv), lv, g)
    return Graph(build, leaves)


def case_es_forward(rng):
    return _es_volume_graph(rng, lambda m, lv, g: _square_sum(m))


def _dice_case(lesion_map):
    """Case factory: the soft Dice loss on `lesion_map(masses)`."""
    def loss(masses, lv, g):
        n = masses.shape[0]
        s = lesion_map(masses).reshape(n, -1)
        return obj.dice_loss(s, g.reshape(n, -1))

    return lambda rng: _es_volume_graph(rng, loss)


def case_uncertainty_loss(rng):
    return _es_volume_graph(
        rng, lambda m, lv, g: obj.uncertainty_loss(m[:, ev.IGNORANCE]))


def _total_loss(masses, lv, g):
    """The full objective, at lambda 1e-3, against the truth g."""
    return obj.total_loss(masses, g, lv["es.alpha_logits"], lam=1e-3)[0]


def _tiny_backbone(rng):
    """(config, float64 params) of a two-level backbone."""
    config = bb.BackboneConfig(channels=(2, 4))
    return config, bb.init_backbone(config, int(rng.integers(1 << 31)),
                                    dtype=np.float64)


def case_backbone_tiny(rng):
    config, params = _tiny_backbone(rng)
    # nonzero biases so the zero-bias special case is not all we check
    leaves = {k: (v if not k.endswith(".b")
                  else _u(rng, *v.shape, lo=-0.1, hi=0.1))
              for k, v in params.items()}
    x = Tensor(_u(rng, 1, 2, 8, 8, 8))
    build = lambda lv: _square_sum(
        bb.forward_features(lv, x, config).sigmoid())
    return Graph(build, leaves)


def case_total_loss_through_backbone(rng):
    config, params = _tiny_backbone(rng)
    leaves = {**params, **_es_leaves(rng, i=3, c=config.feature_dim)}
    x = Tensor(_u(rng, 1, 2, 8, 8, 8))
    g = (rng.random((1, 8, 8, 8)) < 0.3).astype(np.float64)
    build = lambda lv: _total_loss(
        ev.es_forward(bb.forward_features(lv, x, config), lv), lv, g)
    return Graph(build, leaves)


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
    "distance_activation": _head_case(10, lambda s, lv: _square_sum(s)),
    # the memberships reach the loss only through `dempster_fuse`: in the
    # bba case their gradient is zero, and checked as zero
    "bba": _head_case(
        8, lambda s, lv: _square_sum(ev.bba(s, lv["es.alpha_logits"]))),
    "dempster_fuse": _head_case(8, lambda s, lv: _square_sum(ev.dempster_fuse(
        ev.bba(s, lv["es.alpha_logits"]), lv["es.membership_logits"]))),
    "es_forward": case_es_forward,
    "dice_loss_pignistic": _dice_case(obj.lesion_map),
    "dice_loss_singleton": _dice_case(lambda masses: masses[:, ev.LESION]),
    "uncertainty_loss": case_uncertainty_loss,
    "total_loss": lambda rng: _es_volume_graph(rng, _total_loss),
    "backbone_tiny": case_backbone_tiny,
    "total_loss_through_backbone": case_total_loss_through_backbone,
}

# element sampling keeps the heavyweight cases inside the runtime budget
SAMPLE_LIMITS = {"backbone_tiny": 40, "total_loss_through_backbone": 40}


def run_case(name, instances=20, seed=0, inject_fault=False) -> CaseResult:
    """Check `instances` random instances of case `name`.

    Raises ValueError for fewer than one instance, which would check
    nothing, or for a name that is not one of `CASES`.
    """
    if instances < 1:
        raise ValueError(f"gradcheck needs at least 1 instance, "
                         f"got {instances}")
    if name not in CASES:
        raise ValueError(f"unknown gradcheck case {name!r}; "
                         f"cases: {', '.join(CASES)}")
    factory = CASES[name]
    rng = np.random.default_rng(derive_seed(seed, f"gradcheck:{name}"))
    sample = SAMPLE_LIMITS.get(name)
    reports, max_err, passed = [], 0.0, True
    for _ in range(instances):
        graph = factory(rng)
        if inject_fault:
            graph = _with_fault(graph)
        for leaf in graph.leaves:
            r = finite_difference_check(graph, leaf, sample=sample, rng=rng)
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
    """Run the named cases (default: all); returns list of CaseResult.

    Raises ValueError for a fault to inject into a case not run, and, as
    `run_case` does, for fewer than one instance or an unknown name.
    """
    names = list(names or CASES)
    if inject_fault is not None and inject_fault not in names:
        raise ValueError(f"no fault can be injected into {inject_fault!r}; "
                         f"cases run: {', '.join(names)}")
    return [run_case(name, instances=instances, seed=seed,
                     inject_fault=(name == inject_fault)) for name in names]


GATE_CASES = ("conv3d", "maxpool", "es_forward", "total_loss",
              "backbone_tiny")


def run_gate():
    """Fast pre-training gate; raises ArithmeticError naming the failing
    cases."""
    failures = [r.name for r in run_suite(GATE_CASES, instances=2)
                if not r.passed]
    if failures:
        raise ArithmeticError(
            "gradient-check gate failed: " + ", ".join(failures))
