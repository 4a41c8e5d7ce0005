"""Acceptance gate: one test per release criterion.

Criteria 4-6 consume the reference experiment's artifacts: six 50-epoch
desk-scale runs, three seeds each for the evidential and softmax heads,
as `evidseg reproduce` (`cli.reproduce`) defines them. Those runs take
hours on one CPU core, so the tests look for precomputed artifacts in
$EVIDSEG_RUNS or ./results. If neither is complete the fixture runs
`reproduce` into a temporary directory, which is slow but self-contained.
"""

import json
import os
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from evidseg import gradcheck as gc
from evidseg.cli import SEEDS, reproduce
from evidseg.evidential_head import es_forward, fuse_mass_arrays
from evidseg.metrics import ConfusionCounts, compute_metrics
from evidseg.objectives import dice_loss, uncertainty_loss
from evidseg.tensor_core import Tensor
from evidseg.trainer import (HEADS, Model, TrainConfig, load_checkpoint,
                             save_checkpoint)
from evidseg.backbone_unet import BackboneConfig
from evidseg.volume_io import Volume, read_volume, write_volume
from helpers import powerset_fuse, random_es_params, random_simple_bba


def test_criterion_1_mass_validity():
    # 10,000 random (features, parameters) instances within one minute
    rng = np.random.default_rng(101)
    start = time.time()
    checked = 0
    for _ in range(100):
        es = random_es_params(rng, prototypes=int(rng.integers(1, 25)),
                              feature_dim=4)
        f = rng.uniform(-4, 4, size=(100, 4))
        masses = es_forward(Tensor(f.T.reshape(1, 4, 10, 10, 1).copy()), es)
        m = masses.data
        assert np.all(m >= 0.0)
        np.testing.assert_allclose(m.sum(axis=1), 1.0, atol=1e-9)
        checked += 100
    assert checked == 10_000
    assert time.time() - start < 60.0


def test_criterion_2_dempster_oracle():
    rng = np.random.default_rng(202)
    for _ in range(1000):
        count = int(rng.integers(1, 7))
        masses = np.stack([random_simple_bba(rng) for _ in range(count)])
        closed_form = fuse_mass_arrays(masses[None])[0]
        np.testing.assert_allclose(closed_form, powerset_fuse(masses),
                                   atol=1e-10)
    worked = fuse_mass_arrays(np.array([[[0.35, 0.15, 0.5],
                                         [0.35, 0.15, 0.5]]]))[0]
    np.testing.assert_allclose(worked, [0.527933, 0.192737, 0.279330],
                               atol=5e-7)


def test_criterion_3_gradient_gate():
    cases = ("distance_activation", "bba", "dempster_fuse", "es_forward",
             "dice_loss_pignistic", "dice_loss_singleton",
             "uncertainty_loss", "total_loss", "backbone_tiny")
    # the step and tolerance the specification fixes
    assert (gc.STEP, gc.TOL) == (1e-3, 1e-4)
    start = time.time()
    failures = []
    for name in cases:
        result = gc.run_case(name, instances=20)
        if not result.passed:
            failures.append((name, result.max_error))
    assert not failures, f"gradient check failed: {failures}"
    assert time.time() - start < 300.0


# -- training-dependent criteria -------------------------------------------

def _runs_complete(root: Path) -> bool:
    # what criteria 4-6 read: every run's log and the evidential eval
    # reports (the committed results/ keeps no softmax eval or checkpoint)
    for head in HEADS:
        for seed in SEEDS:
            run = root / f"{head}_s{seed}"
            if not (run / "train_log.jsonl").exists():
                return False
            if head == "evidential" and not (run / "eval"
                                             / "report.json").exists():
                return False
    return True


@pytest.fixture(scope="module")
def runs_dir(tmp_path_factory):
    candidates = []
    if os.environ.get("EVIDSEG_RUNS"):
        candidates.append(Path(os.environ["EVIDSEG_RUNS"]))
    candidates.append(Path(__file__).resolve().parent.parent / "results")
    for root in candidates:
        if _runs_complete(root):
            return root
    root = tmp_path_factory.mktemp("desk_runs")
    reproduce(root)
    return root


def _epoch_log(runs_dir, head, seed):
    path = runs_dir / f"{head}_s{seed}" / "train_log.jsonl"
    return [json.loads(line) for line in path.read_text().splitlines()]


def test_criterion_4_desk_scale_dice(runs_dir):
    dices = []
    for seed in SEEDS:
        report = json.loads((runs_dir / f"evidential_s{seed}" / "eval"
                             / "report.json").read_text())
        dices.append(report["aggregate"]["dice"])
    passing = sum(d >= 0.85 for d in dices)
    assert passing >= 2, f"test-set dice per seed: {dices}"


def test_criterion_5_uncertainty_halves(runs_dir):
    # The trend is asserted on every seed that trained successfully, i.e.
    # every seed meeting the criterion-4 Dice bar; a diverged seed has no
    # learning trend to test (see the converged/diverged split in
    # criterion 4's report).
    converged = []
    for seed in SEEDS:
        report = json.loads((runs_dir / f"evidential_s{seed}" / "eval"
                             / "report.json").read_text())
        if report["aggregate"]["dice"] >= 0.85:
            converged.append(seed)
    assert len(converged) >= 2, f"converged seeds: {converged}"
    for seed in converged:
        log = _epoch_log(runs_dir, "evidential", seed)
        assert len(log) == 50
        first = log[0]["val_mean_ignorance"]
        last = log[-1]["val_mean_ignorance"]
        assert last < 0.5 * first, (
            f"seed {seed}: epoch-50 ignorance {last:.6f} vs "
            f"epoch-1 {first:.6f}")


def test_criterion_6_convergence_no_slower_than_softmax(runs_dir):
    def epochs_to_dice(log, target=0.80):
        for record in log:
            if record["val_dice"] >= target:
                return record["epoch"]
        return None

    wins = 0
    detail = []
    for seed in SEEDS:
        es = epochs_to_dice(_epoch_log(runs_dir, "evidential", seed))
        sm = epochs_to_dice(_epoch_log(runs_dir, "softmax", seed))
        detail.append((seed, es, sm))
        if es is not None and (sm is None or es <= sm):
            wins += 1
    assert wins >= 2, f"(seed, es epochs, softmax epochs): {detail}"


# -- remaining oracle criteria ---------------------------------------------

def test_criterion_7_metrics_oracle():
    rng = np.random.default_rng(707)
    for _ in range(1000):
        n = int(rng.integers(1, 200))
        pred = (rng.random(n) < rng.random()).astype(np.int64)
        truth = (rng.random(n) < rng.random()).astype(np.int64)
        tp = int(np.sum((pred == 1) & (truth == 1)))
        fp = int(np.sum((pred == 1) & (truth == 0)))
        tn = int(np.sum((pred == 0) & (truth == 0)))
        fn = int(np.sum((pred == 0) & (truth == 1)))
        m = compute_metrics(ConfusionCounts(tp, fp, tn, fn))

        def exact(num, den):
            return 1.0 if den == 0 else float(Fraction(num, den))

        assert m["dice"] == exact(2 * tp, 2 * tp + fp + fn)
        assert m["sensitivity"] == exact(tp, tp + fn)
        assert m["specificity"] == exact(tn, tn + fp)
        assert m["precision"] == exact(tp, tp + fp)
        # f1 from shared voxel counts is algebraically dice
        assert m["f1"] == pytest.approx(m["dice"], abs=1e-12)


def test_criterion_8_format_round_trips(tmp_path):
    rng = np.random.default_rng(808)
    for i in range(100):
        dims = tuple(int(d) for d in rng.integers(2, 9, size=3))
        voxels = rng.standard_normal(dims).astype(np.float32)
        v = Volume(dims, tuple(rng.uniform(0.5, 5.0, 3)), "PET", voxels)
        path = tmp_path / f"v{i}.evol"
        write_volume(v, path)
        back = read_volume(path)
        assert back.voxels.tobytes() == voxels.tobytes()
        rewrite = tmp_path / f"w{i}.evol"
        write_volume(back, rewrite)
        assert path.read_bytes() == rewrite.read_bytes()

    model = Model.create(BackboneConfig(channels=(2, 4)), "evidential",
                         TrainConfig(prototypes=3), seed=3)
    ckpt = tmp_path / "m.evckpt"
    save_checkpoint(ckpt, model, TrainConfig(prototypes=3), epoch=1)
    back, _, _ = load_checkpoint(ckpt)
    for name in model.params:
        assert back.params[name].tobytes() == model.params[name].tobytes()


def test_criterion_9_loss_point_checks():
    d = float(dice_loss(np.array([[1.0, 0.0]]), np.array([[1.0, 1.0]])).data)
    assert abs(d - 1.0 / 3.0) <= 1e-6
    u = float(uncertainty_loss(np.array([0.5, 0.3])).data)
    assert abs(u - 0.17) <= 1e-12
