"""Input encoding, initialization constants, Adam behavior, checkpoints, the
epoch loop."""

import json
import math

import numpy as np
import pytest

from evidseg import gradcheck
from evidseg.backbone_unet import DESK_CHANNELS, FULL_CHANNELS, BackboneConfig
from evidseg.evidential_head import LESION, memberships, strengths
from evidseg.objectives import dice_loss, lesion_map, total_loss
from evidseg.trainer import (ADAM, HEADS, LESION_PATCH_FRACTION, Model,
                             TrainConfig, TrainingError, adam_init,
                             adam_step, init_es_params,
                             load_checkpoint, param_shapes, prepare_case,
                             sample_patch, save_checkpoint, train)
from evidseg.volume_io import PatientCase, Volume, generate_phantom
from helpers import rewrite_header


def tiny_config(**kw):
    defaults = dict(epochs=2, prototypes=3, patch_dims=(16, 16, 16),
                    batch_size=2, seed=0)
    defaults.update(kw)
    return TrainConfig(**defaults)


def tiny_model(head="evidential", seed=0, config=None):
    return Model.create(BackboneConfig(channels=(2, 4)), head,
                        config or tiny_config(), seed)


def tiny_cases(n, start_seed=0):
    return [generate_phantom(start_seed + i, (16, 16, 16), (1, 2))
            for i in range(n)]


class TestConfig:
    def test_paper_defaults(self):
        c = TrainConfig()
        assert (c.lr, c.epochs, c.lam, c.prototypes) == (1e-3, 50, 1e-5, 20)
        assert (c.alpha_init, c.gamma_init) == (0.5, 0.01)
        assert ADAM == (0.9, 0.999, 1e-8)
        assert LESION_PATCH_FRACTION == 0.5

    @pytest.mark.parametrize("kw", [dict(lr=0.0), dict(epochs=0),
                                    dict(prototypes=0), dict(alpha_init=1.0),
                                    dict(gamma_init=-0.1)])
    def test_invalid_values_rejected(self, kw):
        with pytest.raises(ValueError):
            TrainConfig(**kw)

    @pytest.mark.parametrize("name,value", [
        ("lr", math.nan), ("lr", math.inf), ("lam", math.nan),
        ("lam", math.inf), ("lam", -1e-5), ("gamma_init", math.nan),
        ("gamma_init", math.inf), ("gamma_init", 1e40), ("batch_size", 0),
        ("alpha_init", math.nan), ("alpha_init", math.inf),
        ("alpha_init", 0.0), ("alpha_init", -0.5), ("alpha_init", True),
        ("alpha_init", None), ("prototypes", True), ("batch_size", True),
        ("lr", -1e-3), ("patch_dims", (0, 0, 0)),
        ("patch_dims", (16, -1, 16)), ("patch_dims", (16, 16)),
        ("epochs", 1.5), ("epochs", True), ("batch_size", 1.5),
        ("prototypes", 2.5), ("seed", True), ("seed", 1.5),
        ("patch_dims", (16.7, 16, 16)), ("patch_dims", (16, True, 16)),
        ("lr", True), ("lam", True), ("gamma_init", True), ("lr", "0.001")])
    def test_untrainable_value_named_in_error(self, name, value):
        with pytest.raises(ValueError, match=name):
            TrainConfig(**{name: value})

    def test_numpy_integers_accepted_as_ints(self):
        c = TrainConfig(epochs=np.int64(3), seed=np.uint8(1),
                        patch_dims=np.array([16, 16, 16]))
        assert (c.epochs, c.seed, c.patch_dims) == (3, 1, (16, 16, 16))
        assert type(c.epochs) is int and type(c.seed) is int
        assert all(type(d) is int for d in c.patch_dims)

    def test_numpy_reals_become_floats(self):
        c = TrainConfig(lr=np.float32(0.5), lam=np.int64(0), gamma_init=1)
        assert (type(c.lr), type(c.lam), type(c.gamma_init)) == (float, float,
                                                                 int)
        json.dumps(c.__dict__)  # what save_checkpoint writes

    def test_largest_gamma_init_squares_finite(self):
        config = TrainConfig(gamma_init=float(np.finfo(np.float32).max))
        roots = init_es_params(config, 4, seed=0)["es.gamma_roots"]
        assert np.all(np.isfinite(roots ** 2))


class TestInitEsParams:
    def test_alpha_squashes_to_half(self):
        es = init_es_params(TrainConfig(), feature_dim=4, seed=0)
        np.testing.assert_allclose(strengths(es["es.alpha_logits"]), 0.5,
                                   atol=1e-7)

    def test_gamma_is_squared_root(self):
        es = init_es_params(TrainConfig(), feature_dim=4, seed=0)
        np.testing.assert_allclose(es["es.gamma_roots"] ** 2, 0.01,
                                   atol=1e-7)

    def test_prototypes_in_unit_box(self):
        es = init_es_params(TrainConfig(), feature_dim=4, seed=0)
        assert np.all(np.abs(es["es.prototypes"]) <= 1.0)
        assert np.all(np.abs(es["es.membership_logits"]) <= 0.1)

    def test_determinism(self):
        a = init_es_params(TrainConfig(), 4, seed=5)
        b = init_es_params(TrainConfig(), 4, seed=5)
        np.testing.assert_array_equal(a["es.prototypes"], b["es.prototypes"])
        np.testing.assert_array_equal(a["es.membership_logits"],
                                      b["es.membership_logits"])


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        config = tiny_config()
        params = {"w": np.ones(4)}
        state = adam_init(params)
        adam_step(params, {"w": np.zeros(4)}, state, 1, config)
        np.testing.assert_array_equal(params["w"], np.ones(4))

    def test_first_step_magnitude_near_lr(self):
        # bias correction makes the first step lr/(1+eps) for unit gradient
        config = tiny_config(lr=1e-3)
        params = {"w": np.array([1.0])}
        state = adam_init(params)
        adam_step(params, {"w": np.array([1.0])}, state, 1, config)
        assert params["w"][0] == pytest.approx(1.0 - 1e-3, abs=1e-8)

    def test_constant_gradient_step_approaches_lr_sign(self):
        config = tiny_config(lr=1e-3)
        params = {"w": np.array([0.0])}
        state = adam_init(params)
        g = {"w": np.array([-2.5])}
        prev = params["w"][0]
        for t in range(1, 1001):
            prev = params["w"][0]
            adam_step(params, g, state, t, config)
        last_step = params["w"][0] - prev
        assert last_step == pytest.approx(1e-3, rel=1e-3)

    def test_parameter_groups_independent(self):
        config = tiny_config()
        params = {"a": np.zeros(2), "b": np.zeros(3)}
        state = adam_init(params)
        adam_step(params, {"a": np.ones(2), "b": np.zeros(3)}, state, 1,
                  config)
        assert params["a"].any()
        assert not params["b"].any()

    def test_shape_mismatch_rejected(self):
        config = tiny_config()
        params = {"w": np.zeros(3)}
        with pytest.raises(ValueError):
            adam_step(params, {"w": np.zeros(4)}, adam_init(params), 1,
                      config)

    def test_step_index_starts_at_one(self):
        config = tiny_config()
        params = {"w": np.zeros(3)}
        with pytest.raises(ValueError):
            adam_step(params, {"w": np.zeros(3)}, adam_init(params), 0,
                      config)


def encoded(pet, ct):
    """prepare_case's input for a case with these PET and CT voxels."""
    dims = np.shape(pet)
    vol = lambda modality, w: Volume(dims, (1, 1, 1), modality, w)
    return prepare_case(PatientCase("c", vol("PET", pet), vol("CT", ct),
                                    vol("MASK", np.zeros(dims))))[0]


class TestInputEncoding:
    def test_ct_lower_bound_maps_to_zero(self):
        x = encoded(np.zeros((2, 2, 2)), np.full((2, 2, 2), -1000.0))
        assert np.all(x[1] == 0.0)

    def test_ct_upper_bound_maps_to_one(self):
        x = encoded(np.zeros((2, 2, 2)), np.full((2, 2, 2), 1000.0))
        np.testing.assert_allclose(x[1], 1.0)

    def test_pet_suv_five_maps_to_half(self):
        x = encoded(np.full((2, 2, 2), 5.0), np.zeros((2, 2, 2)))
        np.testing.assert_allclose(x[0], 0.5)

    def test_affine_offset_identity(self):
        # enc(v) + enc(u) - enc(v + u) is the CT shift times its scale, 0.5,
        # up to the float32 rounding of the three encodings
        rng = np.random.default_rng(1)
        v, u = rng.uniform(-500, 500, size=(2, 4, 4, 4))
        zeros = np.zeros_like(v)
        residual = (encoded(zeros, v)[1] + encoded(zeros, u)[1]
                    - encoded(zeros, v + u)[1])
        np.testing.assert_allclose(residual, 0.5,
                                   atol=4 * np.finfo(np.float32).eps)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_encoding_is_exact(self, dtype):
        # each term in the voxels' dtype, then one cast to float32
        rng = np.random.default_rng(2)
        pet = rng.uniform(0.0, 20.0, (4, 4, 4)).astype(dtype)
        ct = rng.uniform(-1000.0, 2000.0, (4, 4, 4)).astype(dtype)
        x = encoded(pet, ct)
        assert x.dtype == np.float32
        np.testing.assert_array_equal(
            x[0], ((pet + 0.0) * 0.1).astype(np.float32))
        np.testing.assert_array_equal(
            x[1], ((ct + 1000.0) * (1.0 / 2000.0)).astype(np.float32))


class TestData:
    def test_prepare_case_shapes_and_channels(self):
        # PET in channel 0, CT in channel 1, the mask as float32 truth
        case = tiny_cases(1)[0]
        x, g = prepare_case(case)
        assert x.shape == (2, 16, 16, 16)
        assert g.shape == (16, 16, 16) and g.dtype == np.float32
        np.testing.assert_array_equal(x[0], case.pet.voxels * 0.1)
        np.testing.assert_array_equal(
            x[1], (case.ct.voxels + 1000.0) * (1.0 / 2000.0))
        np.testing.assert_array_equal(g, case.mask.voxels)

    def test_sample_patch_full_volume_passthrough(self):
        case = tiny_cases(1)[0]
        x, g = prepare_case(case)
        px, pg = sample_patch(x, g, (16, 16, 16),
                              np.random.default_rng(0), False)
        np.testing.assert_array_equal(px, x)
        np.testing.assert_array_equal(pg, g)

    def test_sample_patch_lesion_centered(self):
        case = generate_phantom(3, (32, 32, 32), (1, 1))
        x, g = prepare_case(case)
        rng = np.random.default_rng(0)
        for _ in range(10):
            _, pg = sample_patch(x, g, (16, 16, 16), rng, True)
            assert pg.shape == (16, 16, 16)
            assert pg.any()


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        model = tiny_model()
        config = tiny_config()
        path = tmp_path / "m.evckpt"
        save_checkpoint(path, model, config, epoch=7)
        back, back_config, epoch = load_checkpoint(path)
        assert epoch == 7
        assert back.head == model.head
        assert back_config == config
        assert back.params.keys() == model.params.keys()
        for k in model.params:
            np.testing.assert_array_equal(back.params[k], model.params[k])

    def test_truncated_blob_rejected(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "m.evckpt"
        save_checkpoint(path, model, tiny_config(), epoch=1)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(ValueError, match="truncated|length"):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.evckpt"
        path.write_bytes(b"WRONGMAG" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_missing_tensor_named(self, tmp_path):
        model = tiny_model()
        del model.params["enc0.conv1.w"]
        path = tmp_path / "m.evckpt"
        save_checkpoint(path, model, tiny_config(), epoch=1)
        with pytest.raises(ValueError, match="enc0.conv1.w"):
            load_checkpoint(path)

    def test_missing_head_tensor_named(self, tmp_path):
        model = tiny_model()
        del model.params["es.gamma_roots"]
        path = tmp_path / "m.evckpt"
        save_checkpoint(path, model, tiny_config(), epoch=1)
        with pytest.raises(ValueError, match="es.gamma_roots"):
            load_checkpoint(path)

    def test_extra_tensor_named(self, tmp_path):
        model = tiny_model()
        model.params["head.w"] = np.zeros((2, 2, 1, 1, 1), np.float32)
        path = tmp_path / "m.evckpt"
        save_checkpoint(path, model, tiny_config(), epoch=1)
        with pytest.raises(ValueError, match="head.w"):
            load_checkpoint(path)

    def test_misshapen_head_tensor_named(self, tmp_path):
        model = tiny_model(head="softmax")
        model.params["head.w"] = np.zeros((2, 5, 1, 1, 1), np.float32)
        path = tmp_path / "m.evckpt"
        save_checkpoint(path, model, tiny_config(), epoch=1)
        with pytest.raises(ValueError, match="head.w"):
            load_checkpoint(path)

    def test_unknown_head_rejected(self, tmp_path):
        model = tiny_model(head="softmax")
        model.head = "bayesian"
        path = tmp_path / "m.evckpt"
        save_checkpoint(path, model, tiny_config(), epoch=1)
        with pytest.raises(ValueError, match="bayesian"):
            load_checkpoint(path)

    @pytest.fixture
    def ckpt(self, tmp_path):
        path = tmp_path / "m.evckpt"
        save_checkpoint(path, tiny_model(), tiny_config(), epoch=1)
        return path

    @pytest.mark.parametrize("key", ["head", "version"])
    def test_missing_header_key_rejected(self, ckpt, key):
        rewrite_header(ckpt, lambda h: h.pop(key))
        with pytest.raises(ValueError, match="m.evckpt"):
            load_checkpoint(ckpt)

    @pytest.mark.parametrize("version", [1, 2])
    def test_old_checkpoint_version_refused_as_unsupported(self, ckpt,
                                                           version):
        # an old config holds fields that TrainConfig no longer has; the
        # version check comes first, so the header is not malformed
        retired = {1: {"retired_field": "pignistic"},
                   2: {"beta1": 0.9, "beta2": 0.999, "eps": 1e-8,
                       "lesion_patch_fraction": 0.5}}[version]

        def to_old(header):
            header["version"] = version
            header["config"].update(retired)

        rewrite_header(ckpt, to_old)
        with pytest.raises(ValueError,
                           match=f"unsupported checkpoint version {version}"):
            load_checkpoint(ckpt)

    def test_unknown_config_key_rejected(self, ckpt):
        rewrite_header(ckpt, lambda h: h["config"].update(warmup=3))
        with pytest.raises(ValueError, match="warmup"):
            load_checkpoint(ckpt)

    @pytest.mark.parametrize("size", [8, 10])
    def test_file_shorter_than_twelve_bytes_rejected(self, ckpt, size):
        ckpt.write_bytes(ckpt.read_bytes()[:size])
        with pytest.raises(ValueError, match="m.evckpt"):
            load_checkpoint(ckpt)

    def test_swapped_equal_size_offsets_rejected(self, ckpt):
        def swap(header):
            by_name = {t["name"]: t for t in header["tensors"]}
            a, b = by_name["enc0.conv0.b"], by_name["enc0.conv1.b"]
            assert a["shape"] == b["shape"]
            a["offset"], b["offset"] = b["offset"], a["offset"]

        rewrite_header(ckpt, swap)
        with pytest.raises(ValueError, match="offset"):
            load_checkpoint(ckpt)

    def test_duplicate_tensor_name_rejected(self, ckpt):
        # the first tensor listed twice and the blob grown by its 8 bytes,
        # so that only the repeated name is wrong
        def duplicate(header):
            tensors = header["tensors"]
            assert tensors[0]["shape"] == [2]
            tensors.insert(1, dict(tensors[0], offset=8))
            for t in tensors[2:]:
                t["offset"] += 8

        rewrite_header(ckpt, duplicate)
        ckpt.write_bytes(ckpt.read_bytes() + bytes(8))
        with pytest.raises(ValueError,
                           match=r"tensors\[1\] is \{'name': 'dec0.conv0.b'"):
            load_checkpoint(ckpt)

    def test_negative_offset_rejected(self, ckpt):
        rewrite_header(ckpt, lambda h: h["tensors"][-1].update(offset=-4))
        with pytest.raises(ValueError, match="'offset': -4"):
            load_checkpoint(ckpt)

    def test_other_input_channel_count_rejected(self, ckpt):
        rewrite_header(ckpt, lambda h: h.update(in_channels=3))
        with pytest.raises(ValueError, match="m.evckpt: in_channels 3"):
            load_checkpoint(ckpt)

    def test_reordered_manifest_rejected(self, ckpt):
        # offsets recomputed for the reversed order, so that the entries
        # tile the payload and each tensor would read another's bytes
        def reverse(header):
            offset = 0
            for t in header["tensors"][::-1]:
                t["offset"] = offset
                offset += 4 * math.prod(t["shape"])
            header["tensors"].reverse()

        rewrite_header(ckpt, reverse)
        with pytest.raises(ValueError,
                           match=r"m.evckpt: tensors\[0\] is .*'final.w'"):
            load_checkpoint(ckpt)

    def test_entry_with_extra_key_rejected(self, ckpt):
        # the payload is float32 whatever an entry claims
        rewrite_header(ckpt, lambda h: h["tensors"][0].update(dtype="f16"))
        with pytest.raises(ValueError,
                           match=r"m.evckpt: tensors\[0\] .*'dtype': 'f16'"):
            load_checkpoint(ckpt)

    @pytest.mark.parametrize("tensors", [
        None, 5, "enc0.conv0.w", {"enc0.conv0.w": [2, 2, 3, 3, 3]}])
    def test_tensors_not_a_list_is_malformed(self, ckpt, tensors):
        rewrite_header(ckpt, lambda h: h.update(tensors=tensors))
        with pytest.raises(ValueError,
                           match="m.evckpt: malformed checkpoint header"):
            load_checkpoint(ckpt)

    @pytest.mark.parametrize("edit, fault", [
        (lambda h: h.update(epoch="three"), "epoch 'three'"),
        (lambda h: h.update(epoch=-4), "epoch -4"),
        (lambda h: h.update(epoch=True), "epoch True"),
        (lambda h: h.update(version=3.0), "version 3.0"),
        (lambda h: h.update(in_channels=2.0), "in_channels 2.0"),
        (lambda h: h["tensors"][0].update(offset=0.0), "offset': 0.0")],
        ids=["epoch-string", "epoch-negative", "epoch-bool", "version-float",
             "in-channels-float", "offset-float"])
    def test_ill_typed_number_is_refused(self, ckpt, edit, fault):
        # each compares equal to a valid value, or passes a bare int
        # check, but the header holds only exact non-negative ints
        rewrite_header(ckpt, edit)
        with pytest.raises(ValueError, match=f"m.evckpt: .*{fault}"):
            load_checkpoint(ckpt)

    @pytest.mark.parametrize("head", HEADS)
    def test_loaded_checkpoint_saves_byte_identical(self, tmp_path, head):
        path, again = tmp_path / "a.evckpt", tmp_path / "b.evckpt"
        save_checkpoint(path, tiny_model(head), tiny_config(), epoch=3)
        save_checkpoint(again, *load_checkpoint(path))
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("channels", [DESK_CHANNELS, FULL_CHANNELS])
    @pytest.mark.parametrize("head", HEADS)
    def test_create_makes_param_shapes(self, head, channels):
        # the layout that load_checkpoint requires is the one init makes
        backbone = BackboneConfig(channels=channels)
        model = Model.create(backbone, head, tiny_config(), seed=0)
        assert ({k: v.shape for k, v in model.params.items()}
                == param_shapes(backbone, head, tiny_config().prototypes))


class TestTrainLoop:
    def test_short_run_logs_and_improves_constraints(self):
        model = tiny_model()
        config = tiny_config()
        cases = tiny_cases(4)
        best, best_epoch, log = train(model, cases[:3], cases[3:], config,
                                      gradcheck_gate=False)
        assert len(log) == config.epochs
        assert 1 <= best_epoch <= config.epochs
        for record in log:
            assert list(record) == ["epoch", "loss_d", "loss_u", "loss_reg",
                                    "total", "val_dice", "val_mean_ignorance"]
        u = memberships(model.params["es.membership_logits"])
        np.testing.assert_allclose(u.sum(axis=1), 1.0, atol=1e-5)
        alphas = strengths(model.params["es.alpha_logits"])
        assert np.all(alphas > 0) and np.all(alphas < 1)

    @pytest.mark.parametrize("split", ["train", "val"])
    def test_patch_larger_than_volume_rejected(self, split):
        # 32^3 cases fit a 20^3 patch, the 16^3 ones do not
        small = tiny_cases(1, start_seed=7)[0]
        large = [generate_phantom(s, (32, 32, 32), (1, 2)) for s in range(2)]
        train_cases, val_cases = ([small], large) if split == "train" \
            else (large, [small])
        model = tiny_model()
        before = {k: v.copy() for k, v in model.params.items()}
        with pytest.raises(ValueError, match=r"patch_dims \(20, 20, 20\).*"
                           + small.id + r".*\(16, 16, 16\)"):
            train(model, train_cases, val_cases,
                  tiny_config(patch_dims=(20, 20, 20)), gradcheck_gate=False)
        for k, v in model.params.items():
            np.testing.assert_array_equal(v, before[k])

    def test_patch_the_backbone_cannot_pool_rejected(self, monkeypatch):
        # the desk backbone pools twice, so patch sizes must divide by 4;
        # the check comes before the gradient-check gate does any work
        def gate():
            raise AssertionError("gradient-check gate ran")

        monkeypatch.setattr(gradcheck, "run_gate", gate)
        config = tiny_config(patch_dims=(14, 14, 14))
        model = Model.create(BackboneConfig(), "evidential", config, 0)
        cases = tiny_cases(2)
        with pytest.raises(ValueError, match="patch_dims.*divisible by 4"):
            train(model, cases[:1], cases[1:], config)

    def test_validation_case_the_backbone_cannot_pool_rejected(
            self, monkeypatch):
        # validation runs the whole 18^3 volume through a backbone whose
        # sizes must divide by 4; the check names the case and comes before
        # the gradient-check gate or any training step
        def gate():
            raise AssertionError("gradient-check gate ran")

        monkeypatch.setattr(gradcheck, "run_gate", gate)
        config = tiny_config(patch_dims=(16, 16, 16))
        model = Model.create(BackboneConfig(), "evidential", config, 0)
        odd = generate_phantom(9, (18, 18, 18), (1, 2))
        with pytest.raises(ValueError, match=odd.id + ".*divisible by 4"):
            train(model, tiny_cases(1), [odd], config)

    def test_fixed_seed_reproduces_epoch_log(self):
        cases = tiny_cases(4)
        logs = []
        for _ in range(2):
            model = tiny_model()
            _, _, log = train(model, cases[:3], cases[3:], tiny_config(),
                              gradcheck_gate=False)
            logs.append(log)
        assert logs[0] == logs[1]

    def test_softmax_head_trains(self):
        config = tiny_config(epochs=1)
        model = tiny_model(head="softmax", config=config)
        cases = tiny_cases(3)
        _, _, log = train(model, cases[:2], cases[2:], config,
                          gradcheck_gate=False)
        assert len(log) == 1
        assert log[0]["loss_u"] == 0.0

    @pytest.mark.parametrize("reference", [
        "pignistic", "singleton"])
    def test_softmax_objective_is_plain_dice(self, reference):
        # m(Omega) = 0, so the shared objective reduces exactly to the
        # Dice loss of m({a}), whether the reference Dice is scored on the
        # pignistic map or on the bare lesion mass; gradients must match
        # bit for bit
        model = tiny_model(head="softmax")
        model.params = {k: v.astype(np.float64)
                        for k, v in model.params.items()}
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 2, 16, 16, 16))
        g = (rng.random((2, 16, 16, 16)) < 0.2).astype(np.float64)
        out, leaves = model.forward(x, trainable=True)
        total, br = total_loss(out, g, None, lam=1e-3)
        assert br["loss_u"] == br["loss_reg"] == 0.0
        assert br["total"] == br["loss_d"] == float(total.data)
        total.backward()
        ref_out, ref_leaves = model.forward(x, trainable=True)
        ref_map = (lesion_map(ref_out) if reference == "pignistic"
                   else ref_out[:, LESION])
        ref = dice_loss(ref_map.reshape(2, -1), g.reshape(2, -1))
        assert float(ref.data) == br["loss_d"]
        ref.backward()
        for name in ("head.w", "head.b", "enc0.conv0.w"):
            np.testing.assert_array_equal(leaves[name].grad,
                                          ref_leaves[name].grad)

    def test_softmax_log_ignores_lambda(self):
        cases = tiny_cases(3)
        logs = []
        for kw in ({}, {"lam": 0.1}):
            config = tiny_config(epochs=1, **kw)
            model = tiny_model(head="softmax", config=config)
            logs.append(train(model, cases[:2], cases[2:], config,
                              gradcheck_gate=False)[2])
        assert logs[0] == logs[1]

    def test_nonfinite_gradient_stops_training(self):
        # gamma_root 1e20 squares to an infinite gamma in float32: every
        # distance activation is 0, the masses vacuous and the loss finite,
        # but the derivative through -gamma * d^2 is 0 * inf, NaN
        config = tiny_config(epochs=1)
        model = tiny_model(config=config)
        model.params["es.gamma_roots"][:] = 1e20
        cases = tiny_cases(3)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingError,
                               match="epoch 1, step 1: .*es.prototypes"):
                train(model, cases[:2], cases[2:], config,
                      gradcheck_gate=False)

    def test_saturated_float32_alpha_trains(self):
        # alpha logit 18 rounds alpha to 1.0 in float32; with every feature
        # on prototype 0 that prototype's m(Omega) was 1 - 1 * 1 = 0, and the
        # prototype, alpha and gamma gradients NaN
        config = tiny_config(epochs=1)
        model = tiny_model(config=config)
        p = model.params
        p["es.alpha_logits"][:] = 18.0
        p["es.gamma_roots"][:] = 0.1
        p["final.w"][:] = 0.0
        p["final.b"][:] = p["es.prototypes"][0]
        cases = tiny_cases(3)
        _, _, log = train(model, cases[:2], cases[2:], config,
                          gradcheck_gate=False)
        assert all(np.isfinite(v) for v in log[0].values())
        masses = model.predict_masses(prepare_case(cases[2])[0][None])
        assert np.all(np.isfinite(masses))
        assert np.all(masses[..., 2] > 0)

    def test_empty_split_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train(tiny_model(), [], tiny_cases(1), tiny_config(),
                  gradcheck_gate=False)

    def test_softmax_masses_are_probability_like(self):
        model = tiny_model(head="softmax")
        x = np.random.default_rng(0).standard_normal((1, 2, 16, 16, 16))
        masses = model.predict_masses(x.astype(np.float32))
        np.testing.assert_allclose(masses.sum(axis=-1), 1.0, atol=1e-5)
        np.testing.assert_array_equal(masses[..., 2], 0.0)
