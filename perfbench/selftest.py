"""Self-test of the benchmark's own arithmetic, names and checks.

    python3 perfbench/selftest.py

Takes about twenty seconds: one test sets up a real bench and runs each
path once under the tracer.
"""

import json
import math
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

from evidseg import gradcheck as gc  # noqa: E402

import report  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def span(name, start, end, parent=-1, path="p"):
    return [name, start, end, parent, path]


class SelfTime(unittest.TestCase):
    def test_hand_built_tree(self):
        spans = [
            span("root", 0.0, 10.0),          # 0
            span("a", 1.0, 4.0, 0),           # 1
            span("a.child", 1.5, 2.0, 1),     # 2
            span("b", 3.5, 6.0, 0),           # 3: overlaps a by 0.5
            span("c", 9.0, 12.0, 0),          # 4: runs past root's end
        ]
        got = tracing.self_times(spans)
        # root: 10 - union([1,4],[3.5,6],[9,10]) = 10 - (5 + 1)
        want = [4.0, 2.5, 0.5, 2.5, 3.0]
        for g, w in zip(got, want):
            self.assertAlmostEqual(g, w)

    def test_no_children(self):
        self.assertEqual(tracing.self_times([span("x", 2.0, 3.5)]), [1.5])


class Conv3dCounts(unittest.TestCase):
    def test_forward_hand_count(self):
        # x (1, 2, 4, 4, 4), w (3, 2, 3, 3, 3): each of the 3*64 outputs
        # takes 2*27 multiply-adds plus one bias add
        flop, nbytes = tracing.conv3d_counts((1, 2, 4, 4, 4), (3, 2, 3, 3, 3),
                                             itemsize=4)
        self.assertEqual(flop, 3 * 64 * (2 * 2 * 27 + 1))
        # read x (128) + w (162) + b (3), write y (192), float32
        self.assertEqual(nbytes, 4 * (128 + 162 + 3 + 192))

    def test_gradients_add_their_own_work(self):
        fwd, _ = tracing.conv3d_counts((2, 4, 8, 8, 8), (8, 4, 1, 1, 1), 8)
        both, _ = tracing.conv3d_counts((2, 4, 8, 8, 8), (8, 4, 1, 1, 1), 8,
                                        grad_x=True, grad_w=True, grad_b=True)
        mac = 2 * 8 * 4 * 512
        self.assertEqual(fwd, 2 * mac + 2 * 8 * 512)
        self.assertEqual(both, fwd + 4 * mac + 2 * 8 * 512)


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(report.percentile(values, 90), 90)
        self.assertEqual(report.percentile(values, 50), 50)


class Names(unittest.TestCase):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_workloads_match(self):
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(names, list(run.WORKLOAD_NAMES))
        self.assertEqual(sorted(names), sorted(workloads.WORKLOADS))

    def test_end_to_end_match(self):
        self.assertEqual(
            [(m["name"], m["unit"], m["better"], m["bound"])
             for m in self.spec["end_to_end"]],
            [tuple(m) for m in report.END_TO_END])

    def test_per_layer_match(self):
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["per_layer"]},
                         {n: u for n, (u, _, _) in report.PER_LAYER.items()})


class Checks(unittest.TestCase):
    def test_injected_gradient_fault_fails(self):
        results = gc.run_suite(names=["affine"], instances=1,
                               inject_fault="affine")
        self.assertTrue(workloads.check_gradcheck_case(results[0]))
        # one case instead of the whole suite: the counts give it away
        self.assertTrue(workloads.check_gradcheck_counts(results))

    def test_bad_training_outputs_fail(self):
        good = np.full((1, 2, 2, 2, 3), 1.0 / 3.0, dtype=np.float32)
        rec = {"epoch": 1, "loss_d": 0.5, "loss_u": 0.1, "loss_reg": 0.0,
               "total": 0.6}
        self.assertEqual(workloads.check_train_log([rec], [good]), [])
        self.assertTrue(workloads.check_train_log(
            [{**rec, "total": math.nan}], [good]))
        self.assertTrue(workloads.check_train_log([rec], [good * 1.1]))
        self.assertTrue(workloads.check_train_log([rec], [good - 0.5]))

    def test_bad_eval_reports_fail(self):
        row = {"id": "c1", "dice": 0.9, "sensitivity": 0.8,
               "specificity": 1.0, "precision": 0.95, "f1": 0.9}
        agg = {k: v for k, v in row.items() if k != "id"}
        good = {"per_patient": [row], "aggregate": agg}
        self.assertEqual(workloads.check_eval_report(good, ["c1"]), [])
        self.assertTrue(workloads.check_eval_report(good, ["c1", "c2"]))
        bad = {"per_patient": [{**row, "dice": 1.5}], "aggregate": agg}
        self.assertTrue(workloads.check_eval_report(bad, ["c1"]))

    def test_rate_is_work_over_median_unit_times(self):
        tally = workloads.Tally()
        for seconds in (1.0, 3.0, 2.0):
            tally.timed("gradcheck", "a", 10, seconds)
        for seconds in (5.0, 1.0):
            tally.timed("gradcheck", "b", 30, seconds)
        tally.timed("eval", "eval", 1, 4.0)
        e2e = workloads.end_to_end(tally)
        # one of each case: 10 + 30 checks in median 2 s + median 3 s
        self.assertAlmostEqual(e2e["gradcheck_checks_per_s"], 40 / 5.0)
        self.assertAlmostEqual(e2e["eval_cases_per_s"], 0.25)
        self.assertTrue(math.isnan(e2e["train_es_samples_per_s"]))
        self.assertEqual(tally.totals()[0]["gradcheck"], 90)

    def test_shares_favour_the_own_paths(self):
        for name, path in workloads.WORKLOADS.items():
            shares = workloads.shares(name)
            self.assertAlmostEqual(sum(shares.values()), 1.0)
            own = workloads.TIMED[path]
            for p, share in shares.items():
                other = min(shares[q] for q in shares if q not in own)
                self.assertAlmostEqual(
                    share, workloads.OWN_WEIGHT * other if p in own else other)

    def test_failed_operations_are_counted(self):
        tally = workloads.Tally()
        tally.operation([])
        tally.operation(["broken"])
        self.assertEqual((tally.attempted, tally.failed), (2, 1))


class TracedPaths(unittest.TestCase):
    def test_every_per_layer_metric_is_observed(self):
        tracer = tracing.Tracer()
        with tempfile.TemporaryDirectory(dir=ROOT) as d:
            bench = workloads.setup(Path(d), seed=0, tracer=tracer)
            tally = workloads.Tally()
            for head in workloads.HEADS:
                workloads.train_call(bench, head, 0, tally, tracer)
            workloads.eval_call(bench, tally, tracer)
            for name in gc.CASES:
                workloads.gradcheck_call(name, tally, tracer)
        self.assertEqual(tally.failed, 0, tally.problems)
        e2e = workloads.end_to_end(tally)
        values, sources = report.per_layer(report.Trace(tracer), "train-desk",
                                           e2e, e2e)
        self.assertEqual(set(values), set(report.PER_LAYER))
        missing = [n for n, v in values.items() if not math.isfinite(v)]
        self.assertEqual(missing, [])
        self.assertEqual(values["metrics.windows"], 8)
        self.assertEqual(values["gradcheck.checks"], workloads.EXPECTED_CHECKS)
        # the tracer restored every function it wrapped
        from evidseg import backbone_unet, tensor_core, trainer
        self.assertIs(backbone_unet.conv3d, tensor_core.conv3d)
        self.assertNotIn("wrapped", trainer.adam_step.__qualname__)


if __name__ == "__main__":
    unittest.main()
