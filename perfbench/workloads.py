"""Set-up, the four measured paths, and the output checks.

Every workload runs all four timed paths of the program so that every run
reports every end-to-end metric. A run spends `--seconds` in all, in
whole passes; a workload's own paths get twice the share of each other
path, and the units of all paths are interleaved so that each metric
samples the whole run:

- train-es and train-softmax: `trainer.train` on desk-scale data with the
  reference config; a unit and a pass is one epoch (four steps and a
  validation) of one head from one seed, the seeds taking turns as in the
  paper's 3+3 runs;
- eval: `evidseg eval` on one 48^3 phantom with a full-scale checkpoint,
  eight overlapping 32^3 windows at stride 16; a pass is one call;
- gradcheck: `gradcheck.run_suite` at a fixed seed and instance count; a
  unit is one registered case and a pass is all of them.

The program receives only generated arrays and files.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import statistics
import time
from pathlib import Path

import numpy as np

from evidseg import backbone_unet as bb
from evidseg import cli
from evidseg import gradcheck as gc
from evidseg import trainer as tr
from evidseg import volume_io as vio
from evidseg.seeding import derive_seed

from tracing import instrument

PATHS = ("train", "eval", "gradcheck")
WORKLOADS = {"train-desk": "train", "eval-full": "eval",
             "gradcheck-suite": "gradcheck"}
# set-up path -> the timed paths that use what it sets up
TIMED = {"train": ("train-es", "train-softmax"), "eval": ("eval",),
         "gradcheck": ("gradcheck",)}
TIMED_PATHS = tuple(p for group in TIMED.values() for p in group)
# a workload's own timed paths get this many times the share of each other
OWN_WEIGHT = 2

DESK_DIMS = (32, 32, 32)
# the README's 160/20/20 split trains 80 steps of batch 2 per validation of
# 20 cases: four steps per validation case, as here
TRAIN_CASES = 8          # 4 steps of batch 2 per epoch
VAL_CASES = 1
SEEDS = (0, 1, 2)
HEADS = ("evidential", "softmax")
EVAL_DIMS = (48, 48, 48)     # 8 overlapping 32^3 windows at stride 16
LESIONS = (1, 3)

# the suite's seed and instance count are fixed, not taken from --seed, so
# the number of element checks and of elements skipped at a kink are known:
# a change that samples fewer elements or instances shows as failed checks
GRADCHECK_SEED = 0
GRADCHECK_INSTANCES = 1
EXPECTED_CHECKS = 2298
EXPECTED_SKIPPED = 266

MASS_TOL = 1e-5  # float32 rounding of three masses and their sum


def _reference_config():
    """The reference hyperparameters, one epoch per `train` call."""
    return tr.TrainConfig(epochs=1, patch_dims=DESK_DIMS)


def _phantoms(seed, label, count, dims):
    cases = []
    for i in range(count):
        case = vio.generate_phantom(derive_seed(seed, f"{label}:{i}"), dims,
                                    LESIONS)
        case.id = f"{label}_{i:04d}"
        cases.append(case)
    return cases


class Bench:
    """Inputs and models made at set-up; the measured calls use them.

    `paths` names the paths ("train", "eval", "gradcheck") to set up for.
    """

    def __init__(self, workdir: Path, seed: int, paths=PATHS):
        self.workdir = workdir
        self.seeds = {head: itertools.cycle(SEEDS) for head in HEADS}
        self.eval_runs = 0
        if "train" in paths:
            self._set_up_train(seed)
        if "eval" in paths:
            self._set_up_eval(seed)
        if "gradcheck" in paths:
            # the first call of each op is slower than the steady state;
            # pay for it here, outside the timed region
            gc.run_case("conv3d", instances=1)

    def _set_up_train(self, seed):
        cases = _phantoms(seed, "desk", TRAIN_CASES + VAL_CASES, DESK_DIMS)
        self.train_cases = cases[:TRAIN_CASES]
        self.val_cases = cases[TRAIN_CASES:]
        self.val_inputs = [tr.prepare_case(c)[0] for c in self.val_cases]
        config = _reference_config()
        self.initial = {}
        for head in HEADS:
            for k in SEEDS:
                model = tr.Model.create(bb.BackboneConfig(), head, config,
                                        derive_seed(seed, f"model:{k}"))
                self.initial[head, k] = model
        # the first step of a run is 2-3x slower than the steady state
        for head in HEADS:
            tr.train(self.model(head, 0), self.train_cases[:2],
                     self.val_cases, config, gradcheck_gate=False)

    def _set_up_eval(self, seed):
        config = _reference_config()
        test = _phantoms(seed, "full", 1, EVAL_DIMS)
        self.eval_ids = [c.id for c in test]
        self.eval_data = self.workdir / "eval_data"
        vio.write_dataset(test, {"test": self.eval_ids}, self.eval_data)
        full = tr.Model.create(bb.BackboneConfig(channels=bb.FULL_CHANNELS),
                               "evidential", config,
                               derive_seed(seed, "model:full"))
        self.ckpt = self.workdir / "full.evckpt"
        tr.save_checkpoint(self.ckpt, full, config, 0)
        full.predict_masses(np.zeros((1, 2) + DESK_DIMS, np.float32))

    def model(self, head, k):
        m = self.initial[head, k]
        return tr.Model(m.backbone_config, m.head,
                        {n: v.copy() for n, v in m.params.items()})


def setup(workdir: Path, seed: int, tracer=None, paths=PATHS):
    """Set up once; with a tracer, set up once more, traced under the
    "setup" path."""
    bench = Bench(workdir / "setup", seed, paths)
    if tracer is not None:
        with instrument(tracer, "setup"):
            Bench(workdir / "setup_traced", seed, paths)
    return bench


# -- checks -----------------------------------------------------------------

def check_train_log(log, masses) -> list:
    """Problems with one training call: non-finite losses, invalid masses."""
    problems = []
    for rec in log:
        for key in ("loss_d", "loss_u", "loss_reg", "total"):
            if not math.isfinite(rec[key]):
                problems.append(f"epoch {rec['epoch']}: {key} = {rec[key]}")
    for m in masses:
        if not np.all(np.isfinite(m)) or m.min() < -MASS_TOL:
            problems.append(f"validation masses outside [0, 1]: min {m.min()}")
        dev = float(np.abs(m.sum(axis=-1) - 1.0).max())
        if not dev <= MASS_TOL:
            problems.append(f"validation masses sum to 1 +- {dev}")
    return problems


def check_eval_report(report: dict, case_ids) -> list:
    problems = []
    rows = report.get("per_patient", [])
    if sorted(r.get("id") for r in rows) != sorted(case_ids):
        problems.append(f"report rows {[r.get('id') for r in rows]} "
                        f"!= test cases {sorted(case_ids)}")
    for r in rows + [report.get("aggregate", {})]:
        for name in ("dice", "sensitivity", "specificity", "precision", "f1"):
            v = r.get(name)
            if not (isinstance(v, float) and 0.0 <= v <= 1.0):
                problems.append(f"{r.get('id', 'mean')}: {name} = {v}")
    return problems


def check_gradcheck_case(result) -> list:
    if result.passed:
        return []
    return [f"case {result.name} failed (max rel err {result.max_error:.3e})"]


def check_gradcheck_counts(results) -> list:
    checks, skipped = gradcheck_counts(results)
    if (checks, skipped) == (EXPECTED_CHECKS, EXPECTED_SKIPPED):
        return []
    return [f"suite made {checks} checks and skipped {skipped} at a kink; "
            f"expected {EXPECTED_CHECKS} and {EXPECTED_SKIPPED}"]


def gradcheck_counts(results):
    reports = [rep for r in results for rep in r.reports]
    return (sum(rep.checked for rep in reports),
            sum(rep.skipped_at_kink for rep in reports))


# -- measured calls ---------------------------------------------------------

class Tally:
    """Seconds of every timed unit by path and unit, plus attempted and
    failed operations."""

    def __init__(self):
        self.units = {p: {} for p in TIMED_PATHS}  # path -> key -> [s, ...]
        self.work = {p: {} for p in TIMED_PATHS}   # path -> key -> work
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.gradcheck_pass = []  # results of the suite pass in progress

    def timed(self, path, key, work, seconds):
        self.units[path].setdefault(key, []).append(seconds)
        self.work[path][key] = work

    def totals(self):
        """(work, seconds) per path, summed over every unit of the run."""
        work = {p: sum(self.work[p][k] * len(ts)
                       for k, ts in self.units[p].items())
                for p in TIMED_PATHS}
        return work, {p: sum(map(sum, self.units[p].values()))
                      for p in TIMED_PATHS}

    def operation(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def _path_of(head):
    return "train-es" if head == "evidential" else "train-softmax"


def train_call(bench: Bench, head, k, tally: Tally, tracer=None):
    model = bench.model(head, k)
    config = _reference_config()
    try:
        with instrument(tracer, _path_of(head)):
            t0 = time.perf_counter()
            _, _, log = tr.train(model, bench.train_cases, bench.val_cases,
                                 config, gradcheck_gate=False)
            dt = time.perf_counter() - t0
    except (ArithmeticError, ValueError, RuntimeError) as e:
        tally.operation([f"train {head} seed {k}: {e!r}"])
        return
    samples = config.epochs * len(bench.train_cases)
    tally.timed(_path_of(head), head, samples, dt)
    masses = [model.predict_masses(x[None]) for x in bench.val_inputs]
    tally.operation(check_train_log(log, masses))


def eval_call(bench: Bench, tally: Tally, tracer=None):
    bench.eval_runs += 1
    out = bench.workdir / f"eval_out{bench.eval_runs}"
    argv = ["eval", "--ckpt", str(bench.ckpt), "--data", str(bench.eval_data),
            "--split", "test", "--out", str(out)]
    with instrument(tracer, "eval"), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        t0 = time.perf_counter()
        code = cli.main(argv)
        dt = time.perf_counter() - t0
    if code != cli.EXIT_OK:
        tally.operation([f"eval exited {code}: {err.getvalue().strip()}"])
        return
    tally.timed("eval", "eval", len(bench.eval_ids), dt)
    report = json.loads((out / "report.json").read_text())
    tally.operation(check_eval_report(report, bench.eval_ids))


def gradcheck_call(name, tally: Tally, tracer=None):
    """One case of the suite; the last case of a pass also verifies the
    pass's check counts."""
    last = name == list(gc.CASES)[-1]
    try:
        with instrument(tracer, "gradcheck"):
            t0 = time.perf_counter()
            result, = gc.run_suite(names=[name],
                                   instances=GRADCHECK_INSTANCES,
                                   seed=GRADCHECK_SEED)
            dt = time.perf_counter() - t0
            checks, skipped = gradcheck_counts([result])
            if tracer is not None:
                tracer.add("gradcheck.checks", checks)
                tracer.add("gradcheck.skipped_at_kink", skipped)
                tracer.add("gradcheck.passes", float(last))
    except (ArithmeticError, ValueError) as e:
        tally.operation([f"gradcheck case {name}: {e!r}"])
        return
    tally.timed("gradcheck", name, checks, dt)
    tally.operation(check_gradcheck_case(result))
    tally.gradcheck_pass.append(result)
    if last:
        tally.operation(check_gradcheck_counts(tally.gradcheck_pass))
        tally.gradcheck_pass = []


# timed path -> the units of one pass, each a call and its leading arguments
PASSES = {
    "train-es": lambda bench: [(train_call, bench, "evidential",
                                next(bench.seeds["evidential"]))],
    "train-softmax": lambda bench: [(train_call, bench, "softmax",
                                     next(bench.seeds["softmax"]))],
    "eval": lambda bench: [(eval_call, bench)],
    "gradcheck": lambda bench: [(gradcheck_call, n) for n in gc.CASES],
}


class _Path:
    """Units of one path, run in whole passes; a pass starts while the path
    is short of its time share by more than half a pass."""

    def __init__(self, make_pass, target):
        self.make_pass, self.target = make_pass, target
        self.queue, self.spent, self.passes = [], 0.0, 0

    def wants(self):
        if self.queue or not self.passes:
            return True
        return self.spent + 0.5 * self.spent / self.passes < self.target

    def step(self):
        if not self.queue:
            self.queue = self.make_pass()
            self.passes += 1
        t0 = time.perf_counter()
        self.queue.pop(0)()
        self.spent += time.perf_counter() - t0


def shares(workload: str) -> dict:
    """Share of the run's time for each timed path."""
    own = TIMED[WORKLOADS[workload]]
    weight = {p: OWN_WEIGHT if p in own else 1 for p in TIMED_PATHS}
    return {p: w / sum(weight.values()) for p, w in weight.items()}


def run(bench: Bench, workload: str, seconds: float, tracer=None):
    """Spend about `seconds` on the four timed paths, in whole passes, in
    the workload's shares, with the units of all paths interleaved so
    every metric samples the whole run.

    Returns one Tally per pass: with a tracer every unit runs twice in a
    row, untraced and traced in alternating order, so both passes see the
    same machine state and their difference is the tracing overhead.
    """
    tallies = [Tally()] + ([Tally()] if tracer is not None else [])
    runs = [(tallies[0], None)] + [(t, tracer) for t in tallies[1:]]
    # alternate which half goes first, so that neither half gains from
    # running second on warm caches
    orders = itertools.cycle((runs, runs[::-1]))

    def twice(call, *args):
        def unit():
            for tally, t in next(orders):
                call(*args, tally, t)
        return unit

    budget = seconds * len(tallies)
    paths = [_Path(lambda p=p: [twice(*u) for u in PASSES[p](bench)],
                   budget * share)
             for p, share in shares(workload).items()]
    while True:
        waiting = [p for p in paths if p.wants()]
        if not waiting:
            return tallies
        min(waiting, key=lambda p: p.spent / p.target).step()


def one_pass(bench: Bench, path: str) -> Tally:
    """One untraced pass of each timed path of set-up path `path`, outside
    any timing."""
    tally = Tally()
    for timed in TIMED[path]:
        for call, *args in PASSES[timed](bench):
            call(*args, tally, None)
    return tally


def end_to_end(tally: Tally) -> dict:
    """Work per second of each path: the work of one of each of its units
    over the sum of their median times in the run."""
    rate = {}
    for p in TIMED_PATHS:
        units = tally.units[p]
        seconds = sum(statistics.median(ts) for ts in units.values())
        rate[p] = (sum(tally.work[p].values()) / seconds if seconds
                   else float("nan"))
    return {
        "train_es_samples_per_s": rate["train-es"],
        "train_softmax_samples_per_s": rate["train-softmax"],
        "eval_cases_per_s": rate["eval"],
        "gradcheck_checks_per_s": rate["gradcheck"],
    }
