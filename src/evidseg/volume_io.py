"""Volume data model, the framed file format, phantoms, splits.

A volume is a 3D scalar grid stored row-major with index (x*Y + y)*Z + z.
PET values are in SUV units, CT in Hounsfield units, masks are binary.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

MAGIC = b"EVIDVOL1"
# MAP carries derived outputs (three-way codes, ignorance masses) that are
# mask-shaped but not binary
MODALITIES = ("PET", "CT", "MASK", "MAP")


class VolumeFormatError(ValueError):
    """Malformed .evol or .evckpt file, or invalid volume contents."""


@dataclass
class Volume:
    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    modality: str
    voxels: np.ndarray  # shape dims, float32 or float64

    def __post_init__(self):
        self.voxels = np.asarray(self.voxels)
        if self.voxels.shape != tuple(self.dims):
            raise VolumeFormatError(
                f"voxel array shape {self.voxels.shape} != dims {self.dims}")
        if self.modality not in MODALITIES:
            raise VolumeFormatError(f"unknown modality {self.modality!r}")
        if not (len(self.spacing) == 3
                and all(0 < s < np.inf for s in self.spacing)):
            raise VolumeFormatError(
                f"spacing must be three finite positive numbers, "
                f"got {self.spacing}")
        if self.modality == "MASK":
            vals = np.unique(self.voxels)
            if not np.all(np.isin(vals, (0.0, 1.0))):
                raise VolumeFormatError("MASK volume must be binary 0/1")


@dataclass
class PatientCase:
    id: str
    pet: Volume
    ct: Volume
    mask: Volume

    def __post_init__(self):
        if not (self.pet.dims == self.ct.dims == self.mask.dims):
            raise VolumeFormatError(
                f"case {self.id}: PET/CT/mask dims differ "
                f"({self.pet.dims}, {self.ct.dims}, {self.mask.dims})")


# -- framed files: .evol volumes and .evckpt checkpoints -------------------

def _write_atomic(path, chunks):
    """Write the byte strings `chunks` to a temporary file in `path`'s
    directory, sync it and rename it onto `path`; so `path` holds either its
    old contents or the whole new file, and a failed write leaves no
    temporary file behind."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_framed(path, magic: bytes, header: dict, arrays):
    """Write `magic`, a little-endian u32 header length, the UTF-8 JSON
    header, then each array as contiguous little-endian float32, atomically.
    """
    head = json.dumps(header).encode("utf-8")
    _write_atomic(path, chain(
        (magic, len(head).to_bytes(4, "little"), head),
        (np.ascontiguousarray(a, dtype="<f4").tobytes() for a in arrays)))


def read_framed(path, magic: bytes):
    """(header dict, payload bytes) of a file written by `write_framed`."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:8] != magic:
        raise VolumeFormatError(f"{path}: bad magic")
    # u32 header length; a file cut inside it fails the next check too
    hlen = int.from_bytes(raw[8:12], "little")
    if len(raw) < 12 + hlen:
        raise VolumeFormatError(f"{path}: truncated header")
    try:
        header = json.loads(raw[12:12 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise VolumeFormatError(f"{path}: undecodable header: {e}") from None
    if not isinstance(header, dict):
        raise VolumeFormatError(f"{path}: header is not a JSON object")
    return header, raw[12 + hlen:]


def _triple(value, types) -> bool:
    # exact types, so that 2.0 and true do not pass as integers
    return (isinstance(value, list) and len(value) == 3
            and all(type(v) in types for v in value))


def write_volume(v: Volume, path):
    write_framed(path, MAGIC, {
        "dims": list(v.dims),
        "spacing": list(v.spacing),
        "modality": v.modality,
        "dtype": "f32",
    }, [v.voxels])


def read_volume(path) -> Volume:
    header, payload = read_framed(path, MAGIC)
    dims, spacing = header.get("dims"), header.get("spacing")
    if not (_triple(dims, (int,)) and min(dims) > 0
            and _triple(spacing, (int, float)) and header.get("dtype") == "f32"
            and header.get("modality") in MODALITIES):
        raise VolumeFormatError(
            f"{path}: header needs three positive integer dims, three "
            f"spacings, a modality in {MODALITIES} and dtype f32; got {header}")
    count = dims[0] * dims[1] * dims[2]
    if len(payload) != 4 * count:
        raise VolumeFormatError(
            f"{path}: payload length mismatch "
            f"(expected {4 * count} bytes, got {len(payload)})")
    voxels = np.frombuffer(payload, dtype="<f4").reshape(dims).copy()
    bad = np.count_nonzero(~np.isfinite(voxels))
    if bad:
        raise VolumeFormatError(f"{path}: {bad} non-finite voxel(s)")
    try:
        return Volume(tuple(dims), tuple(spacing), header["modality"], voxels)
    except VolumeFormatError as e:
        raise VolumeFormatError(f"{path}: {e}") from None


# PatientCase field -> the modality of its <field>.evol file in a case dir
CASE_VOLUMES = {"pet": "PET", "ct": "CT", "mask": "MASK"}


def write_case(case: PatientCase, case_dir):
    """Write the case's three volumes into `case_dir`, whose name is the
    case's id when `read_case` reads it back."""
    case_dir = Path(case_dir)
    case_dir.mkdir(parents=True, exist_ok=True)
    for name in CASE_VOLUMES:
        write_volume(getattr(case, name), case_dir / f"{name}.evol")


def read_case_volume(case_dir, name) -> Volume:
    """`case_dir`'s `<name>.evol`, of the modality CASE_VOLUMES names."""
    path = Path(case_dir) / f"{name}.evol"
    v = read_volume(path)
    if v.modality != CASE_VOLUMES[name]:
        raise VolumeFormatError(
            f"{path}: {v.modality} volume, expected {CASE_VOLUMES[name]}")
    return v


def read_case(case_dir) -> PatientCase:
    return PatientCase(id=Path(case_dir).name, **{
        name: read_case_volume(case_dir, name) for name in CASE_VOLUMES})


# -- synthetic PET/CT phantom ---------------------------------------------

# peak SUV and per-axis radius in voxels of each lesion, drawn uniformly
PEAK_SUV = (4.0, 15.0)
LESION_RADII = (2.0, 5.0)
# with falloff exp(-K*rho^2), intensity hits 40% of peak exactly at rho=1,
# so the mask is the unit ellipsoid of each lesion
_FALLOFF = float(np.log(1.0 / 0.4))


def generate_phantom(seed: int, dims: tuple[int, int, int],
                     lesion_count_range: tuple[int, int]) -> PatientCase:
    """Deterministic synthetic PET/CT case with ellipsoidal hot lesions.

    CT: 40 HU soft tissue plus a smooth 30 HU wobble in an ellipsoidal body,
    -1000 HU air outside, noise sd 20 HU. PET: SUV 1 in the body, 0.05
    outside, plus each lesion's Gaussian bump; noise sd 0.05 SUV.
    """
    dims = tuple(int(d) for d in dims)
    if any(d < 16 for d in dims):
        raise ValueError(f"phantom dims must be >= 16 per axis, got {dims}")
    lo, hi = lesion_count_range
    if not (0 <= lo <= hi <= 20):
        raise ValueError(f"lesion_count_range must lie in [0, 20], got {lesion_count_range}")
    rng = np.random.default_rng(seed)
    x, y, z = np.meshgrid(*(np.arange(d, dtype=np.float64) for d in dims),
                          indexing="ij")
    center = np.array([(d - 1) / 2.0 for d in dims])
    # body: axis-aligned ellipsoid filling ~80% of the grid
    body_radii = np.array([0.4 * d for d in dims])
    body = (((x - center[0]) / body_radii[0]) ** 2
            + ((y - center[1]) / body_radii[1]) ** 2
            + ((z - center[2]) / body_radii[2]) ** 2) <= 1.0

    # smooth CT background: low-frequency cosine perturbation of soft tissue
    phase = rng.uniform(0, 2 * np.pi, size=3)
    wobble = 30.0 * (np.cos(2 * np.pi * x / dims[0] + phase[0])
                     * np.cos(2 * np.pi * y / dims[1] + phase[1])
                     * np.cos(2 * np.pi * z / dims[2] + phase[2]))
    ct = np.where(body, 40.0 + wobble, -1000.0)
    ct = ct + rng.normal(0.0, 20.0, size=dims)

    pet_clean = np.where(body, 1.0, 0.05)
    mask = np.zeros(dims, dtype=bool)
    n_lesions = int(rng.integers(lo, hi + 1))
    for _ in range(n_lesions):
        radii = rng.uniform(*LESION_RADII, size=3)
        # keep the lesion core inside the body
        c = center + rng.uniform(-0.6, 0.6, size=3) * body_radii
        peak = rng.uniform(*PEAK_SUV)
        rho2 = (((x - c[0]) / radii[0]) ** 2
                + ((y - c[1]) / radii[1]) ** 2
                + ((z - c[2]) / radii[2]) ** 2)
        pet_clean = pet_clean + peak * np.exp(-_FALLOFF * rho2)
        mask |= rho2 <= 1.0
    pet = pet_clean + rng.normal(0.0, 0.05, size=dims)

    spacing = (4.0, 4.0, 4.0)
    return PatientCase(
        id=f"phantom-{seed:06d}",
        pet=Volume(dims, spacing, "PET", pet.astype(np.float32)),
        ct=Volume(dims, spacing, "CT", ct.astype(np.float32)),
        mask=Volume(dims, spacing, "MASK", mask.astype(np.float32)),
    )


# -- dataset directories ---------------------------------------------------

def _check_case_id(cid, where):
    # a case id names a directory inside the dataset directory
    if cid in ("", ".", "..") or "/" in cid or "\\" in cid:
        raise VolumeFormatError(
            f"{where}: case id {cid!r} is not a plain directory name")


def _check_splits(splits, manifest):
    """The case ids of `splits`, a {split name: [case id]} map whose splits
    are disjoint and list each case once; else VolumeFormatError naming
    `manifest`."""
    if not (isinstance(splits, dict) and all(
            isinstance(ids, list) and all(isinstance(c, str) for c in ids)
            for ids in splits.values())):
        raise VolumeFormatError(
            f"{manifest}: must map each split name to a list of case ids")
    split_of = {}  # case id -> the split that lists it
    for name, ids in splits.items():
        for cid in ids:
            _check_case_id(cid, manifest)
            if cid in split_of:
                raise VolumeFormatError(
                    f"{manifest}: case {cid!r} is listed in split "
                    f"{split_of[cid]!r} and again in split {name!r}")
            split_of[cid] = name
    return list(split_of)


def write_dataset(cases: list, splits: dict, out_dir):
    """Write case directories plus a split manifest (splits.json); every
    case id must be a plain directory name given to one case only, and the
    splits are checked as `read_dataset` checks them and must list only ids
    of `cases`, before anything is written."""
    out_dir = Path(out_dir)
    ids = set()
    for case in cases:
        _check_case_id(case.id, out_dir)
        if case.id in ids:
            raise VolumeFormatError(
                f"{out_dir}: case id {case.id!r} given to two cases")
        ids.add(case.id)
    listed = _check_splits(splits, out_dir / "splits.json")
    unknown = sorted(set(listed) - ids)
    if unknown:
        raise VolumeFormatError(
            f"{out_dir / 'splits.json'}: lists cases not being written: "
            f"{', '.join(map(repr, unknown))}")
    out_dir.mkdir(parents=True, exist_ok=True)
    for case in cases:
        write_case(case, out_dir / case.id)
    _write_atomic(out_dir / "splits.json",
                  [json.dumps(splits, indent=1).encode("utf-8")])


def read_dataset(data_dir, split):
    """The cases of `split`, in manifest order. All of splits.json is
    checked: its splits must be disjoint, list each case once and list only
    cases present in `data_dir`, each in the directory named by its id."""
    data_dir = Path(data_dir)
    manifest = data_dir / "splits.json"
    if not manifest.exists():
        raise VolumeFormatError(f"{data_dir}: missing splits.json")
    try:
        splits = json.loads(manifest.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise VolumeFormatError(
            f"{manifest}: undecodable JSON: {e}") from None
    for cid in _check_splits(splits, manifest):
        if not (data_dir / cid).is_dir():
            raise VolumeFormatError(
                f"{manifest}: lists case {cid!r}, but {data_dir / cid} "
                f"is not a directory")
    if split not in splits:
        raise VolumeFormatError(f"{manifest}: lists no split {split!r}")
    return [read_case(data_dir / cid) for cid in splits[split]]


# -- dataset splits --------------------------------------------------------

def split_dataset(cases: list, ratios, seed: int):
    """Disjoint (train, val, test) partition with a seed-deterministic shuffle."""
    if not cases:
        raise ValueError("empty case list")
    if len(ratios) != 3 or not all(0.0 <= r <= 1.0 for r in ratios):
        raise ValueError(f"ratios must be three values in [0, 1], "
                         f"got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {ratios}")
    order = np.random.default_rng(seed).permutation(len(cases))
    shuffled = [cases[i] for i in order]
    n = len(cases)
    n_train = int(round(ratios[0] * n))
    n_val = int(round(ratios[1] * n))
    n_val = min(n_val, n - n_train)
    for size, ratio in ((n_train, ratios[0]), (n_val, ratios[1]),
                        (n - n_train - n_val, ratios[2])):
        if ratio > 0 and size == 0:
            raise ValueError("not enough cases for a nonzero split ratio")
    return (shuffled[:n_train],
            shuffled[n_train:n_train + n_val],
            shuffled[n_train + n_val:])
