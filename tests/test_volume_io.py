"""Volume format, phantom generation, dataset splitting."""

import json
import os
import re
import struct

import numpy as np
import pytest

from evidseg import volume_io
from evidseg.volume_io import (PEAK_SUV, PatientCase, Volume,
                               VolumeFormatError, generate_phantom, read_case,
                               read_dataset, read_volume, split_dataset,
                               write_case, write_dataset, write_framed,
                               write_volume)


def make_volume(rng, dims=(8, 8, 8), modality="PET"):
    voxels = rng.uniform(0, 10, size=dims).astype(np.float32)
    if modality == "MASK":
        voxels = (voxels > 5).astype(np.float32)
    return Volume(dims, (4.0, 4.0, 4.0), modality, voxels)


def evol_bytes(header, payload=b"\0" * 32):
    """A .evol file built by hand, so headers the writer never makes can be
    fed to the reader."""
    head = json.dumps(header).encode("utf-8")
    return b"EVIDVOL1" + struct.pack("<I", len(head)) + head + payload


GOOD_HEADER = {"dims": [2, 2, 2], "spacing": [1.0, 1.0, 1.0],
               "modality": "PET", "dtype": "f32"}


class TestVolume:
    def test_mask_must_be_binary(self):
        with pytest.raises(VolumeFormatError):
            Volume((2, 2, 2), (1, 1, 1), "MASK", np.full((2, 2, 2), 0.5))

    def test_shape_must_match_dims(self):
        with pytest.raises(VolumeFormatError):
            Volume((2, 2, 2), (1, 1, 1), "PET", np.zeros((2, 2, 3)))

    def test_unknown_modality(self):
        with pytest.raises(VolumeFormatError):
            Volume((2, 2, 2), (1, 1, 1), "MRI", np.zeros((2, 2, 2)))

    @pytest.mark.parametrize("spacing", [(-4, 0, 4), (np.nan, 1, 1),
                                         (np.inf, 1, 1), (1, 1)])
    def test_spacing_must_be_three_finite_positive(self, spacing):
        with pytest.raises(VolumeFormatError, match="spacing"):
            Volume((2, 2, 2), spacing, "PET", np.zeros((2, 2, 2)))

    def test_case_requires_equal_dims(self):
        rng = np.random.default_rng(0)
        with pytest.raises(VolumeFormatError):
            PatientCase("c", make_volume(rng), make_volume(rng, modality="CT"),
                        make_volume(rng, dims=(4, 4, 4), modality="MASK"))


class TestEvolFormat:
    def test_round_trip_zero_volume_identical_bytes(self, tmp_path):
        v = Volume((2, 2, 2), (1.0, 1.0, 1.0), "PET",
                   np.zeros((2, 2, 2), dtype=np.float32))
        p1, p2 = tmp_path / "a.evol", tmp_path / "b.evol"
        write_volume(v, p1)
        write_volume(read_volume(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_random_volume_bit_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        v = make_volume(rng)
        path = tmp_path / "v.evol"
        write_volume(v, path)
        back = read_volume(path)
        assert back.dims == v.dims
        assert back.modality == v.modality
        np.testing.assert_array_equal(back.voxels, v.voxels)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.evol"
        path.write_bytes(b"NOTEVOL1" + b"\x00" * 32)
        with pytest.raises(VolumeFormatError, match="magic"):
            read_volume(path)

    def test_truncated_payload(self, tmp_path):
        rng = np.random.default_rng(3)
        path = tmp_path / "trunc.evol"
        write_volume(make_volume(rng), path)
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(VolumeFormatError, match="payload length"):
            read_volume(path)

    def test_hand_built_file_reads(self, tmp_path):
        path = tmp_path / "v.evol"
        path.write_bytes(evol_bytes(GOOD_HEADER))
        assert read_volume(path).dims == (2, 2, 2)

    @pytest.mark.parametrize("raw", [
        evol_bytes({**GOOD_HEADER, "dims": [2.0, 2, 2]}),
        evol_bytes({**GOOD_HEADER, "dims": [-2, -2, 2]}),
        evol_bytes({**GOOD_HEADER, "dims": [4, 2]}),
        evol_bytes({k: v for k, v in GOOD_HEADER.items() if k != "dims"}),
        evol_bytes([2, 2, 2]),
        evol_bytes({**GOOD_HEADER, "dtype": "f64"}),
        b"EVIDVOL1\x05",
        b"EVIDVOL1" + struct.pack("<I", 3) + b"{x}" + b"\0" * 32,
        b"EVIDVOL1" + struct.pack("<I", 2) + b"\xff\xfe" + b"\0" * 32,
        evol_bytes(GOOD_HEADER, np.array([0, 0, np.nan, 0, 0, np.inf, 0, 0],
                                         dtype="<f4").tobytes()),
        evol_bytes({**GOOD_HEADER, "spacing": [-4, 0, 4]}),
        evol_bytes({**GOOD_HEADER, "spacing": [float("nan"), 1, 1]}),
        evol_bytes({**GOOD_HEADER, "spacing": [float("inf"), 1, 1]}),
    ], ids=["float-dims", "negative-dims", "two-axis-dims", "missing-dims",
            "list-header", "dtype-f64", "nine-byte-file", "bad-json",
            "bad-utf8", "nonfinite-voxels", "nonpositive-spacing",
            "nan-spacing", "infinite-spacing"])
    def test_malformed_header_is_format_error(self, tmp_path, raw):
        path = tmp_path / "bad.evol"
        path.write_bytes(raw)
        with pytest.raises(VolumeFormatError, match="bad.evol"):
            read_volume(path)

    def test_failed_write_keeps_old_file(self, tmp_path):
        class Unreadable:
            def __array__(self, dtype=None, copy=None):
                raise OSError("disk went away")

        path = tmp_path / "v.evol"
        write_volume(make_volume(np.random.default_rng(0)), path)
        before = path.read_bytes()
        with pytest.raises(OSError, match="disk went away"):
            write_framed(path, b"EVIDVOL1", {"dims": [2, 2, 2]},
                         [np.zeros(4), Unreadable()])
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["v.evol"]

    def test_case_round_trip(self, tmp_path):
        case = generate_phantom(5, (16, 16, 16), (1, 2))
        write_case(case, tmp_path / case.id)
        back = read_case(tmp_path / case.id)
        assert back.id == case.id
        np.testing.assert_array_equal(back.pet.voxels, case.pet.voxels)
        np.testing.assert_array_equal(back.mask.voxels, case.mask.voxels)


class TestPhantom:
    def test_zero_lesions_empty_mask(self):
        case = generate_phantom(0, (16, 16, 16), (0, 0))
        assert not case.mask.voxels.any()

    def test_determinism(self):
        a = generate_phantom(7, (16, 16, 16), (1, 3))
        b = generate_phantom(7, (16, 16, 16), (1, 3))
        np.testing.assert_array_equal(a.pet.voxels, b.pet.voxels)
        np.testing.assert_array_equal(a.ct.voxels, b.ct.voxels)
        np.testing.assert_array_equal(a.mask.voxels, b.mask.voxels)

    def test_foreground_fraction_moderate(self):
        case = generate_phantom(1, (32, 32, 32), (1, 3))
        frac = case.mask.voxels.mean()
        assert 0.0 < frac < 0.3

    def test_mask_voxels_reach_lesion_threshold(self):
        # every mask voxel carries at least 40% of the minimum lesion peak
        # on top of the body background of SUV 1, far more than the noise
        # takes away
        for seed in range(5):
            case = generate_phantom(seed, (24, 24, 24), (1, 3))
            mask = case.mask.voxels.astype(bool)
            if mask.any():
                threshold = 0.4 * PEAK_SUV[0]
                assert case.pet.voxels[mask].min() >= threshold

    def test_small_dims_rejected(self):
        with pytest.raises(ValueError):
            generate_phantom(0, (8, 8, 8), (1, 2))

    def test_bad_lesion_range_rejected(self):
        with pytest.raises(ValueError):
            generate_phantom(0, (16, 16, 16), (3, 1))


class TestSplit:
    def test_paper_ratios_on_ten_cases(self):
        train, val, test = split_dataset(list(range(10)), (0.8, 0.1, 0.1), 0)
        assert (len(train), len(val), len(test)) == (8, 1, 1)

    def test_degenerate_all_train(self):
        train, val, test = split_dataset(list(range(5)), (1.0, 0.0, 0.0), 0)
        assert len(train) == 5 and not val and not test

    def test_determinism(self):
        a = split_dataset(list(range(20)), (0.8, 0.1, 0.1), 3)
        b = split_dataset(list(range(20)), (0.8, 0.1, 0.1), 3)
        assert a == b

    def test_partition_property(self):
        cases = list(range(37))
        train, val, test = split_dataset(cases, (0.8, 0.1, 0.1), 11)
        combined = train + val + test
        assert sorted(combined) == cases
        assert len(set(combined)) == len(cases)

    def test_ratios_must_sum_to_one(self):
        with pytest.raises(ValueError):
            split_dataset(list(range(10)), (0.5, 0.2, 0.2), 0)
        # these sum to 1, but a ratio outside [0, 1] would make splits
        # overlap, and a split needs three
        for ratios in [(1.2, -0.1, -0.1), (0.5, 0.5)]:
            with pytest.raises(ValueError, match=re.escape(str(ratios))):
                split_dataset(list(range(10)), ratios, 0)

    def test_empty_case_list(self):
        with pytest.raises(ValueError):
            split_dataset([], (0.8, 0.1, 0.1), 0)

    def test_too_few_cases_for_nonzero_ratio(self):
        with pytest.raises(ValueError):
            split_dataset([1, 2], (0.8, 0.1, 0.1), 0)


class TestDatasetDir:
    def test_write_read_dataset(self, tmp_path):
        cases = [generate_phantom(s, (16, 16, 16), (1, 2)) for s in range(4)]
        for i, c in enumerate(cases):
            c.id = f"case_{i}"
        splits = {"train": ["case_0", "case_1"], "val": ["case_2"],
                  "test": ["case_3"]}
        write_dataset(cases, splits, tmp_path / "ds")
        back = {name: read_dataset(tmp_path / "ds", name) for name in splits}
        assert {name: [c.id for c in split]
                for name, split in back.items()} == splits
        for case, again in zip(cases, back["train"] + back["val"]
                               + back["test"]):
            np.testing.assert_array_equal(again.pet.voxels, case.pet.voxels)

    def test_case_directories_hold_only_volumes(self, tmp_path):
        cases = [generate_phantom(s, (16, 16, 16), (1, 2)) for s in range(2)]
        cases[0].id, cases[1].id = "a", "b"
        write_dataset(cases, {"train": ["a"], "test": ["b"]}, tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "a", "b", "splits.json"]
        for cid in ("a", "b"):
            assert sorted(p.name for p in (tmp_path / cid).iterdir()) == [
                "ct.evol", "mask.evol", "pet.evol"]

    def test_case_json_of_older_datasets_ignored(self, tmp_path):
        # datasets once carried each id in a case.json beside the volumes;
        # the directory name is the id, whatever that file says
        cases = [generate_phantom(s, (16, 16, 16), (1, 2)) for s in range(2)]
        cases[0].id, cases[1].id = "a", "b"
        write_dataset(cases, {"train": ["a", "b"]}, tmp_path)
        (tmp_path / "a" / "case.json").write_text(json.dumps({"id": "a"}))
        (tmp_path / "b" / "case.json").write_text(json.dumps({"id": "z"}))
        assert [c.id for c in read_dataset(tmp_path, "train")] == ["a", "b"]

    @pytest.mark.parametrize("name,damage", [
        ("splits.json",
         lambda ds, c: (ds / "splits.json").write_text(json.dumps([c]))),
        ("splits.json", lambda ds, c: (ds / "splits.json").write_text(
            json.dumps({"train": c}))),
        ("splits.json",
         lambda ds, c: (ds / "splits.json").write_bytes(b"\xff{")),
        ("pet.evol", lambda ds, c: (ds / c / "pet.evol").write_bytes(
            (ds / c / "ct.evol").read_bytes())),
        ("mask.evol", lambda ds, c: (ds / c / "mask.evol").write_bytes(
            (ds / c / "pet.evol").read_bytes())),
        ("splits.json: case 'c' .*'train' .*'val'",
         lambda ds, c: (ds / "splits.json").write_text(
             json.dumps({"train": [c], "val": [c], "test": [c]}))),
        ("splits.json: case 'c' .*'train' .*'train'",
         lambda ds, c: (ds / "splits.json").write_text(
             json.dumps({"train": [c, c]}))),
        # the path leads back to the case, but from outside the dataset
        ("splits.json: case id '../.*' is not a plain directory name",
         lambda ds, c: (ds / "splits.json").write_text(
             json.dumps({"train": [f"../{ds.name}/{c}"]}))),
        # every split is checked, not only the one read
        ("splits.json: lists case 'ghost'",
         lambda ds, c: (ds / "splits.json").write_text(
             json.dumps({"train": [c], "test": ["ghost"]}))),
        ("splits.json: lists no split 'train'",
         lambda ds, c: (ds / "splits.json").write_text(
             json.dumps({"test": [c]}))),
    ], ids=["splits-list", "split-string", "splits-undecodable",
            "ct-as-pet", "pet-as-mask", "splits-overlap",
            "case-twice-in-split", "case-id-outside-dataset",
            "other-split-case-missing", "split-not-listed"])
    def test_malformed_dataset_names_file(self, tmp_path, name, damage):
        case = generate_phantom(0, (16, 16, 16), (1, 2))
        case.id = "c"
        write_dataset([case], {"train": ["c"]}, tmp_path)
        damage(tmp_path, "c")
        with pytest.raises(VolumeFormatError, match=name):
            read_dataset(tmp_path, "train")

    def test_overlapping_splits_not_written(self, tmp_path):
        case = generate_phantom(0, (16, 16, 16), (1, 2))
        case.id = "c"
        with pytest.raises(VolumeFormatError,
                           match="splits.json: case 'c' .*'train' .*'val'"):
            write_dataset([case], {"train": ["c"], "val": ["c"]},
                          tmp_path / "ds")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("cid", ["../escaped", "", ".."])
    def test_unlisted_case_with_path_id_not_written(self, tmp_path, cid):
        # the splits name only "c"; the other case's id would put its
        # directory outside the dataset
        a, b = (generate_phantom(s, (16, 16, 16), (1, 2)) for s in (0, 1))
        a.id, b.id = "c", cid
        with pytest.raises(VolumeFormatError,
                           match=f"case id {re.escape(repr(cid))} is not a "
                                 f"plain directory name"):
            write_dataset([a, b], {"train": ["c"]}, tmp_path / "root" / "ds")
        assert list(tmp_path.iterdir()) == []

    def test_repeated_case_id_not_written(self, tmp_path):
        # the second case would replace the first in its directory
        a, b = (generate_phantom(s, (16, 16, 16), (1, 2)) for s in (0, 1))
        a.id = b.id = "c"
        with pytest.raises(VolumeFormatError,
                           match="ds: case id 'c' given to two cases"):
            write_dataset([a, b], {"train": ["c"]}, tmp_path / "ds")
        assert list(tmp_path.iterdir()) == []

    def test_split_of_unwritten_case_not_written(self, tmp_path):
        case = generate_phantom(0, (16, 16, 16), (1, 2))
        case.id = "c"
        with pytest.raises(VolumeFormatError,
                           match="splits.json: .*not being written: 'ghost'"):
            write_dataset([case], {"train": ["c", "ghost"]}, tmp_path / "ds")
        assert list(tmp_path.iterdir()) == []

    def test_split_of_missing_case_names_manifest(self, tmp_path):
        case = generate_phantom(0, (16, 16, 16), (1, 2))
        case.id = "c"
        write_dataset([case], {"train": ["c"]}, tmp_path)
        (tmp_path / "splits.json").write_text(
            json.dumps({"train": ["c", "ghost"]}))
        with pytest.raises(VolumeFormatError,
                           match="splits.json: lists case 'ghost'"):
            read_dataset(tmp_path, "train")

    def test_failed_json_write_keeps_old_file(self, tmp_path, monkeypatch):
        case = generate_phantom(0, (16, 16, 16), (1, 2))
        case.id = "c"
        write_dataset([case], {"train": ["c"]}, tmp_path)
        before = (tmp_path / "splits.json").read_bytes()
        replace = os.replace

        def failing_replace(src, dst):
            if os.path.basename(dst) == "splits.json":
                raise OSError("disk went away")
            replace(src, dst)

        monkeypatch.setattr(volume_io.os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk went away"):
            write_dataset([case], {"test": ["c"]}, tmp_path)
        assert (tmp_path / "splits.json").read_bytes() == before
        assert not [p for p in tmp_path.rglob("*") if p.suffix == ".tmp"]

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(VolumeFormatError, match="splits.json"):
            read_dataset(tmp_path, "train")
