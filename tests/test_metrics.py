"""Evaluation indices, per-patient averaging, sliding-window inference."""

import numpy as np
import pytest

from evidseg.metrics import (ConfusionCounts, METRIC_NAMES, compute_metrics,
                             confusion, evaluate_cases, format_table,
                             sliding_window_masses, window_starts)
from evidseg.volume_io import generate_phantom


def brute_counts(pred, truth):
    """Independent elementwise recount of the confusion matrix."""
    tp = fp = tn = fn = 0
    for p, g in zip(pred.ravel(), truth.ravel()):
        if p and g:
            tp += 1
        elif p and not g:
            fp += 1
        elif not p and g:
            fn += 1
        else:
            tn += 1
    return tp, fp, tn, fn


class TestConfusion:
    def test_all_zero_maps(self):
        c = confusion(np.zeros((2, 2, 2)), np.zeros((2, 2, 2)))
        assert (c.tp, c.fp, c.tn, c.fn) == (0, 0, 8, 0)

    def test_complement_prediction(self):
        truth = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=float)
        c = confusion(1.0 - truth, truth)
        assert (c.tp, c.fp, c.tn, c.fn) == (0, 4, 0, 4)

    def test_perfect_prediction_no_errors(self):
        rng = np.random.default_rng(0)
        truth = (rng.random((4, 4, 4)) < 0.3).astype(float)
        c = confusion(truth, truth)
        assert c.fp == 0 and c.fn == 0

    def test_counts_cover_volume(self):
        rng = np.random.default_rng(1)
        pred = (rng.random((4, 4, 4)) < 0.5).astype(float)
        truth = (rng.random((4, 4, 4)) < 0.5).astype(float)
        c = confusion(pred, truth)
        assert c.tp + c.fp + c.tn + c.fn == 64

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            confusion(np.zeros(4), np.zeros(5))

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError, match="binary"):
            confusion(np.full(4, 0.5), np.zeros(4))


class TestComputeMetrics:
    def test_perfect_segmentation_all_ones(self):
        m = compute_metrics(ConfusionCounts(tp=4, fp=0, tn=4, fn=0))
        assert all(m[k] == 1.0 for k in METRIC_NAMES)

    def test_hand_arithmetic(self):
        m = compute_metrics(ConfusionCounts(tp=2, fp=1, tn=4, fn=1))
        assert m["dice"] == pytest.approx(4 / 6)
        assert m["sensitivity"] == pytest.approx(2 / 3)
        assert m["specificity"] == pytest.approx(4 / 5)
        assert m["precision"] == pytest.approx(2 / 3)
        assert m["f1"] == pytest.approx(2 / 3)

    def test_degenerate_denominators_default_to_one(self):
        m = compute_metrics(ConfusionCounts(tp=0, fp=0, tn=8, fn=0))
        assert m["sensitivity"] == 1.0
        assert m["precision"] == 1.0
        assert m["dice"] == 1.0

    def test_matches_brute_force_recount(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            pred = (rng.random(40) < rng.random()).astype(float)
            truth = (rng.random(40) < rng.random()).astype(float)
            tp, fp, tn, fn = brute_counts(pred, truth)
            c = confusion(pred, truth)
            assert (c.tp, c.fp, c.tn, c.fn) == (tp, fp, tn, fn)

    def test_f1_equals_dice_from_shared_counts(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            tp, fp, tn, fn = rng.integers(0, 50, size=4)
            m = compute_metrics(ConfusionCounts(int(tp), int(fp), int(tn),
                                                int(fn)))
            assert m["f1"] == pytest.approx(m["dice"], abs=1e-12)

    def test_spatial_permutation_invariance(self):
        rng = np.random.default_rng(4)
        pred = (rng.random(60) < 0.5).astype(float)
        truth = (rng.random(60) < 0.5).astype(float)
        perm = rng.permutation(60)
        a = compute_metrics(confusion(pred, truth))
        b = compute_metrics(confusion(pred[perm], truth[perm]))
        assert a == b


class FakeCase:
    def __init__(self, cid, mask):
        self.id = cid
        self.mask = type("V", (), {"voxels": mask})()


class TestEvaluateCases:
    def test_single_case_aggregate_equals_case(self):
        rng = np.random.default_rng(5)
        mask = (rng.random((4, 4, 4)) < 0.3).astype(float)
        report = evaluate_cases(lambda c: c.mask.voxels,
                                [FakeCase("only", mask)])
        for name in METRIC_NAMES:
            assert report["aggregate"][name] == report["per_patient"][0][name]

    def test_mean_of_perfect_and_total_miss(self):
        ones = np.ones((2, 2, 2))
        predict = lambda c: ones if c.id == "hit" else np.zeros((2, 2, 2))
        report = evaluate_cases(predict, [FakeCase("hit", ones),
                                          FakeCase("miss", ones)])
        assert report["aggregate"]["dice"] == pytest.approx(0.5)

    def test_case_order_invariance(self):
        rng = np.random.default_rng(6)
        cases = [FakeCase(f"c{i}", (rng.random((2, 2, 2)) < 0.5)
                          .astype(float)) for i in range(4)]
        predict = lambda c: c.mask.voxels
        a = evaluate_cases(predict, cases)
        b = evaluate_cases(predict, cases[::-1])
        assert a == b

    def test_empty_case_list(self):
        with pytest.raises(ValueError):
            evaluate_cases(lambda c: None, [])

    def test_table_contains_all_columns(self):
        report = {
            "per_patient": [{"id": "c0", **{m: 1.0 for m in METRIC_NAMES}}],
            "aggregate": {m: 1.0 for m in METRIC_NAMES}}
        table = format_table(report)
        for name in METRIC_NAMES:
            assert name in table
        assert "mean" in table


class TestSlidingWindow:
    def test_window_starts_cover_extent(self):
        starts = window_starts(40, 32)
        assert starts == [0, 8]
        assert starts[-1] + 32 == 40

    def test_exact_fit_single_window(self):
        assert window_starts(32, 32) == [0]

    def test_patch_larger_than_extent_rejected(self):
        with pytest.raises(ValueError):
            window_starts(16, 32)

    def test_reference_patch_steps_by_16(self):
        assert window_starts(48, 32) == [0, 16]

    def test_stride_equal_to_patch_tiles_extent(self):
        # the stride is half the patch, rounded up, at every patch size
        assert window_starts(48, 16) == [0, 8, 16, 24, 32]
        assert window_starts(10, 3) == [0, 2, 4, 6, 7]

    @staticmethod
    def window_shapes(dims, patch_dims):
        """The input shape of each `forward_fn` call on a (2, *dims) input."""
        calls = []

        def forward(patch):
            calls.append(patch.shape)
            return np.full(patch.shape[0:1] + patch.shape[2:] + (3,), 1 / 3)

        out = sliding_window_masses(forward, np.zeros((2,) + dims),
                                    patch_dims)
        assert out.shape == dims + (3,)
        return calls

    def test_reference_geometry_runs_eight_windows(self):
        assert self.window_shapes((48, 48, 48), (32, 32, 32)) == [
            (1, 2, 32, 32, 32)] * 8

    def test_patch_cut_to_volume(self):
        assert self.window_shapes((16, 48, 16), (32, 32, 32)) == [
            (1, 2, 16, 32, 16)] * 2

    def test_constant_forward_reproduced(self):
        mass = np.array([0.6, 0.3, 0.1])

        def forward(patch):
            shape = patch.shape[0:1] + patch.shape[2:] + (3,)
            return np.broadcast_to(mass, shape)

        x = np.zeros((2, 48, 32, 32))
        out = sliding_window_masses(forward, x, patch_dims=(32, 32, 32))
        assert out.shape == (48, 32, 32, 3)
        np.testing.assert_allclose(out, np.broadcast_to(mass, out.shape),
                                   atol=1e-12)

    def test_output_masses_remain_valid(self):
        rng = np.random.default_rng(7)

        def forward(patch):
            shape = patch.shape[0:1] + patch.shape[2:] + (3,)
            raw = rng.uniform(0.01, 1.0, size=shape)
            return raw / raw.sum(axis=-1, keepdims=True)

        x = np.zeros((2, 48, 48, 32))
        out = sliding_window_masses(forward, x, patch_dims=(32, 32, 32))
        assert np.all(out >= 0)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)

    def test_channel_first_sums_match_channel_last_bit_for_bit(self):
        # the former channel-last accumulation, against random float32
        # masses over overlapping windows cut to a non-cubic volume
        rng = np.random.default_rng(8)

        def forward(patch):
            shape = patch.shape[0:1] + patch.shape[2:] + (3,)
            raw = rng.uniform(0.01, 1.0, size=shape).astype(np.float32)
            return raw / raw.sum(axis=-1, keepdims=True)

        x, patch_dims = np.zeros((2, 40, 24, 33)), (32, 32, 16)
        state = rng.bit_generator.state
        got = sliding_window_masses(forward, x, patch_dims)
        rng.bit_generator.state = state
        dims = x.shape[1:]
        acc = np.zeros(dims + (3,))
        for sx in window_starts(40, 32):
            for sy in window_starts(24, 24):
                for sz in window_starts(33, 16):
                    sl = (slice(sx, sx + 32), slice(sy, sy + 24),
                          slice(sz, sz + 16))
                    acc[sl] += forward(x[(slice(None),) + sl][None])[0]
        want = acc / acc.sum(axis=-1, keepdims=True)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.uint64),
                                      want.view(np.uint64))

    def test_end_to_end_on_phantom_identity_predictor(self):
        case = generate_phantom(9, (48, 32, 32), (1, 2))
        mask = case.mask.voxels

        def forward(patch):
            # emit fully committed masses copying the PET channel threshold
            hot = patch[0, 0] > 0.25  # normalized PET above background
            m = np.zeros(patch.shape[2:] + (3,))
            m[..., 0] = hot
            m[..., 1] = ~hot
            return m[None]

        from evidseg.trainer import prepare_case
        x, _ = prepare_case(case)
        out = sliding_window_masses(forward, x, patch_dims=(32, 32, 32))
        binary = (out[..., 0] + 0.5 * out[..., 2]) > 0.5
        assert binary.shape == mask.shape
