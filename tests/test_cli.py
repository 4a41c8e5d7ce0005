"""Run configuration parsing and the command-line pipeline end to end."""

import json
import re
import shlex
import shutil
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from evidseg import gradcheck as gc
from evidseg import volume_io as vio
from evidseg.backbone_unet import BackboneConfig
from evidseg.cli import (EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, SEEDS,
                         build_parser, main, reproduce)
from evidseg.config import SECTIONS, ConfigError, RunConfig
from evidseg.trainer import (HEADS, TrainConfig, load_checkpoint,
                             save_checkpoint)
from evidseg.volume_io import read_dataset, read_volume, write_volume
from helpers import rewrite_header

# a valid value other than the default for every accepted key
NON_DEFAULT = {
    "channels": [2, 4], "head": "softmax", "prototypes": 3,
    "alpha_init": 0.25, "gamma_init": 0.04, "lambda": 1e-4, "lr": 1e-2,
    "epochs": 3, "batch_size": 4, "patch_dims": [16, 16, 16], "seed": 1,
}


def resolved(config):
    return config.train_config(), config.backbone_config(), config.head


class TestRunConfig:
    def test_defaults_reproduce_paper_settings(self):
        config = RunConfig({})
        train = config.train_config()
        assert (train.prototypes, train.lr, train.epochs) == (20, 1e-3, 50)
        assert (train.lam, train.alpha_init, train.gamma_init) == (1e-5, 0.5,
                                                                   0.01)

    def test_defaults_are_the_dataclass_defaults(self):
        config = RunConfig({})
        assert config.train_config() == TrainConfig()
        assert config.backbone_config() == BackboneConfig()

    @pytest.mark.parametrize("section,key", [
        (section, key) for section, keys in SECTIONS.items() for key in keys])
    def test_every_key_changes_the_run(self, section, key):
        config = RunConfig({section: {key: NON_DEFAULT[key]}})
        assert resolved(config) != resolved(RunConfig({}))

    def test_every_field_is_set_by_exactly_one_key(self):
        default = resolved(RunConfig({}))[:2]
        setters = {}  # field name -> the keys that changed it
        for section, keys in SECTIONS.items():
            for key in keys:
                config = RunConfig({section: {key: NON_DEFAULT[key]}})
                for built, base in zip(resolved(config)[:2], default):
                    for f in fields(built):
                        if getattr(built, f.name) != getattr(base, f.name):
                            setters.setdefault(f.name, []).append(key)
        names = [f.name for cls in (TrainConfig, BackboneConfig)
                 for f in fields(cls)]
        assert {name: len(setters.get(name, [])) for name in names} == \
            dict.fromkeys(names, 1)

    @pytest.mark.parametrize("section,key", [
        ("es", "prototypes"), ("es", "alpha_init"), ("es", "gamma_init"),
        ("loss", "lambda")])
    def test_softmax_head_rejects_evidential_keys(self, section, key):
        doc = {"es": {"head": "softmax"}}
        doc.setdefault(section, {})[key] = NON_DEFAULT[key]
        with pytest.raises(ConfigError, match=re.escape(f"{section}.{key}")):
            RunConfig(doc)

    @pytest.mark.parametrize("section,key", [
        ("train", "learnig_rate"), ("backbone", "in_channels"),
        ("train", "adam"), ("train", "lesion_patch_fraction")])
    def test_unknown_key_named_in_error(self, section, key):
        with pytest.raises(ConfigError, match=key):
            RunConfig({section: {key: 1}})

    @pytest.mark.parametrize("section,key,value", [
        ("train", "epochs", 1.5), ("train", "batch_size", 1.5),
        ("train", "seed", True), ("train", "patch_dims", [16.7, 16, 16]),
        ("es", "prototypes", 2.5), ("backbone", "channels", [2.5, 4]),
        # sizes below 1, too few levels, and bare numbers in place of lists
        ("backbone", "channels", [0, 4]), ("backbone", "channels", [-2, 4]),
        ("backbone", "channels", [4]), ("backbone", "channels", 4),
        ("train", "patch_dims", 32)])
    def test_non_integer_count_named_in_error(self, section, key, value):
        config = RunConfig({section: {key: value}})
        with pytest.raises(ConfigError, match=key):
            resolved(config)

    @pytest.mark.parametrize("section", ["optimizer", "data", "eval"])
    def test_unknown_section_rejected(self, section):
        with pytest.raises(ConfigError, match=section):
            RunConfig({section: {}})

    def test_unknown_head_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig({"es": {"head": "bayesian"}}).head

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            RunConfig.from_file(path)

    def test_undecodable_file_named_in_error(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_bytes(b"\xff{}")
        with pytest.raises(ConfigError, match=re.escape(str(path))):
            RunConfig.from_file(path)

    def test_overrides_merge_with_defaults(self):
        config = RunConfig({"train": {"epochs": 3}})
        train = config.train_config()
        assert train.epochs == 3
        assert train.lr == 1e-3

    def test_gradcheck_takes_no_config(self, capsys):
        assert main(["gradcheck", "--config", "x"]) == EXIT_CONFIG


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "ds"
    code = main(["phantom", "--out", str(out), "--count", "6",
                 "--dims", "16,16,16", "--seed", "1",
                 "--ratios", "0.5", "0.25", "0.25"])
    assert code == EXIT_OK
    return out


def split_sizes(data):
    """The train, val and test case counts of the dataset `data`."""
    return [len(read_dataset(data, split))
            for split in ("train", "val", "test")]


@pytest.fixture(scope="module")
def tiny_run(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    config = out / "config.json"
    config.write_text(json.dumps({
        "backbone": {"channels": [2, 4]},
        "es": {"prototypes": 3},
        "train": {"epochs": 2, "patch_dims": [16, 16, 16], "seed": 0},
    }))
    code = main(["train", "--config", str(config), "--data", str(dataset),
                 "--out", str(out / "model"), "--skip-gradcheck"])
    assert code == EXIT_OK
    return out


@pytest.fixture(scope="module")
def nonfinite_train(dataset, tmp_path_factory):
    """`train` argv, less `--out`, whose first step's gradient is not
    finite."""
    # one PET voxel of each train case at 3e38, finite in float32: the
    # squared feature distances there overflow to inf, the activations
    # are 0 and the loss finite, but the gamma gradient is 0 * inf
    tmp = tmp_path_factory.mktemp("nonfinite")
    data = tmp / "ds"
    shutil.copytree(dataset, data)
    for case in read_dataset(data, "train"):
        path = data / case.id / "pet.evol"
        pet = read_volume(path)
        pet.voxels[0, 0, 0] = 3e38
        write_volume(pet, path)
    config = tmp / "config.json"
    config.write_text(json.dumps({
        "backbone": {"channels": [2, 4]},
        "es": {"prototypes": 3},
        "train": {"epochs": 1, "patch_dims": [16, 16, 16]},
    }))
    return ["train", "--config", str(config), "--data", str(data),
            "--skip-gradcheck"]


# every way a command ends, each by a real failure: argv (from a fresh
# directory and the non-finite `train` argv), exit code, start of stderr
EXIT_TABLE = {
    "usage error": (
        lambda tmp, nonfinite: ["train", "--data", str(tmp),
                                "--out", str(tmp / "m")],
        EXIT_CONFIG, "usage: "),
    "help": (lambda tmp, nonfinite: ["train", "--help"], EXIT_OK, ""),
    "missing file": (
        lambda tmp, nonfinite: ["predict", "--ckpt", str(tmp / "missing"),
                                "--case", str(tmp), "--out", str(tmp / "o")],
        EXIT_CONFIG, "error: "),
    "failed gradient check": (
        lambda tmp, nonfinite: ["gradcheck", "--instances", "1",
                                "--inject-fault", "affine"],
        EXIT_NUMERIC, "numerical failure: gradient check failed"),
    "non-finite training step": (
        lambda tmp, nonfinite: nonfinite + ["--out", str(tmp / "m")],
        EXIT_NUMERIC, "numerical failure: "),
}


@pytest.mark.parametrize("row", EXIT_TABLE)
def test_exit_code_table(row, nonfinite_train, tmp_path, capsys):
    argv, code, prefix = EXIT_TABLE[row]
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(argv(tmp_path, nonfinite_train)) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix) if prefix else err == ""


class TestPhantomCommand:
    def test_writes_cases_and_split(self, dataset):
        assert split_sizes(dataset) == [3, 2, 1]

    def test_paper_default_split_sizes(self, tmp_path):
        out = tmp_path / "ds10"
        assert main(["phantom", "--out", str(out), "--count", "10",
                     "--dims", "16,16,16", "--seed", "1"]) == EXIT_OK
        assert split_sizes(out) == [8, 1, 1]

    def test_rerun_same_seed_identical_bytes(self, dataset, tmp_path):
        out = tmp_path / "again"
        assert main(["phantom", "--out", str(out), "--count", "6",
                     "--dims", "16,16,16", "--seed", "1",
                     "--ratios", "0.5", "0.25", "0.25"]) == EXIT_OK
        for sub in sorted(p.name for p in dataset.iterdir()):
            a, b = dataset / sub, out / sub
            if a.is_file():
                assert a.read_bytes() == b.read_bytes()
            else:
                for f in sorted(q.name for q in a.iterdir()):
                    assert (a / f).read_bytes() == (b / f).read_bytes()

    def test_small_dims_exit_code(self, tmp_path, capsys):
        code = main(["phantom", "--out", str(tmp_path / "x"),
                     "--count", "2", "--dims", "8,8,8"])
        assert code == EXIT_CONFIG

    def test_refuses_nonempty_out_dir(self, dataset, capsys):
        code = main(["phantom", "--out", str(dataset), "--count", "2",
                     "--dims", "16,16,16"])
        assert code == EXIT_CONFIG


def failing_suite(name):
    """A `gradcheck.run_suite` stand-in whose results fail case `name`, so
    that the real gate raises."""
    return lambda *args, **kwargs: [gc.CaseResult(
        name=name, passed=False, max_error=1.0, reports=[])]


class TestTrainCommand:
    def test_log_has_one_line_per_epoch(self, tiny_run):
        lines = (tiny_run / "model" / "train_log.jsonl").read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            record = json.loads(line)
            assert {"epoch", "loss_d", "loss_u", "loss_reg", "total",
                    "val_dice"} <= set(record)

    def test_checkpoint_written(self, tiny_run):
        assert (tiny_run / "model" / "checkpoint.evckpt").exists()

    def test_unknown_config_key_exit_code(self, dataset, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"train": {"learning_rat": 1e-3}}))
        code = main(["train", "--config", str(config), "--data",
                     str(dataset), "--out", str(tmp_path / "m"),
                     "--skip-gradcheck"])
        assert code == EXIT_CONFIG
        assert "learning_rat" in capsys.readouterr().err

    def test_nonfinite_gradient_exit_code(self, nonfinite_train, tmp_path,
                                          capsys):
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(nonfinite_train + ["--out", str(tmp_path / "m")])
        assert code == EXIT_NUMERIC
        assert "non-finite gradient" in capsys.readouterr().err

    def test_failed_rerun_leaves_no_stale_checkpoint(self, dataset, tiny_run,
                                                     tmp_path):
        # 32^3 patches do not fit the 16^3 cases, which fails training after
        # the log is opened
        run = tmp_path / "model"
        shutil.copytree(tiny_run / "model", run)
        assert (run / "checkpoint.evckpt").exists()
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"train": {"epochs": 1}}))
        code = main(["train", "--config", str(config), "--data",
                     str(dataset), "--out", str(run), "--skip-gradcheck"])
        assert code == EXIT_CONFIG
        assert (run / "train_log.jsonl").read_text() == ""
        assert not (run / "checkpoint.evckpt").exists()

    def test_gate_runs_unless_skipped(self, dataset, tiny_run, tmp_path,
                                      monkeypatch, capsys):
        monkeypatch.setattr(gc, "run_suite", failing_suite("bba"))
        code = main(["train", "--config", str(tiny_run / "config.json"),
                     "--data", str(dataset), "--out", str(tmp_path / "m")])
        assert code == EXIT_NUMERIC
        assert "gradient-check gate failed: bba" in capsys.readouterr().err

    def test_rerun_same_seed_identical_log(self, dataset, tiny_run,
                                           tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "backbone": {"channels": [2, 4]},
            "es": {"prototypes": 3},
            "train": {"epochs": 2, "patch_dims": [16, 16, 16], "seed": 0},
        }))
        assert main(["train", "--config", str(config), "--data",
                     str(dataset), "--out", str(tmp_path / "model"),
                     "--skip-gradcheck"]) == EXIT_OK
        first = (tiny_run / "model" / "train_log.jsonl").read_text()
        second = (tmp_path / "model" / "train_log.jsonl").read_text()
        assert first == second


class TestPredictCommand:
    def test_three_volumes_with_valid_payloads(self, dataset, tiny_run,
                                               tmp_path):
        case_dir = dataset / read_dataset(dataset, "test")[0].id
        out = tmp_path / "pred"
        code = main(["predict", "--ckpt",
                     str(tiny_run / "model" / "checkpoint.evckpt"),
                     "--case", str(case_dir), "--out", str(out)])
        assert code == EXIT_OK
        binary = read_volume(out / "binary.evol")
        three_way = read_volume(out / "threeway.evol")
        uncertainty = read_volume(out / "uncertainty.evol")
        assert set(np.unique(binary.voxels)) <= {0.0, 1.0}
        assert set(np.unique(three_way.voxels)) <= {0.0, 1.0, 2.0}
        assert uncertainty.voxels.min() >= 0.0
        assert uncertainty.voxels.max() <= 1.0

    def test_case_without_mask_gives_the_same_volumes(self, dataset,
                                                      tiny_run, tmp_path):
        # a case to segment has no ground truth: PET and CT suffice
        full = dataset / read_dataset(dataset, "test")[0].id
        bare = tmp_path / "bare"
        bare.mkdir()
        for name in ("pet.evol", "ct.evol"):
            shutil.copy(full / name, bare / name)
        for case in (full, bare):
            assert main(["predict", "--ckpt",
                         str(tiny_run / "model" / "checkpoint.evckpt"),
                         "--case", str(case),
                         "--out", str(tmp_path / case.name)]) == EXIT_OK
        for name in ("binary.evol", "threeway.evol", "uncertainty.evol"):
            assert ((tmp_path / full.name / name).read_bytes()
                    == (tmp_path / "bare" / name).read_bytes())


@pytest.mark.parametrize("command", ["train", "eval"])
def test_case_without_mask_refused_naming_the_file(dataset, tiny_run,
                                                   tmp_path, capsys, command):
    data = tmp_path / "ds"
    shutil.copytree(dataset, data)
    for mask in data.glob("*/mask.evol"):
        mask.unlink()
    argv = {"train": ["train", "--config", str(tiny_run / "config.json"),
                      "--skip-gradcheck"],
            "eval": ["eval", "--ckpt",
                     str(tiny_run / "model" / "checkpoint.evckpt")]}
    code = main(argv[command] + ["--data", str(data),
                                 "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert re.search(r"^error: .*ds/\w+/mask\.evol", capsys.readouterr().err)


class TestEvalCommand:
    def test_report_files_written(self, dataset, tiny_run, tmp_path):
        out = tmp_path / "eval"
        code = main(["eval", "--ckpt",
                     str(tiny_run / "model" / "checkpoint.evckpt"),
                     "--data", str(dataset), "--split", "test",
                     "--out", str(out)])
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert set(report) == {"per_patient", "aggregate"}
        for value in report["aggregate"].values():
            assert 0.0 <= value <= 1.0
        assert (out / "report.txt").read_text().startswith("case")

    def test_missing_split_exit_code(self, dataset, tiny_run, tmp_path,
                                     capsys):
        code = main(["eval", "--ckpt",
                     str(tiny_run / "model" / "checkpoint.evckpt"),
                     "--data", str(dataset), "--split", "holdout",
                     "--out", str(tmp_path / "e")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "splits.json" in err and "'holdout'" in err

    def test_reads_only_the_scored_split(self, dataset, tiny_run, tmp_path,
                                         monkeypatch):
        # the 3/2/1 dataset: the one test case's three volumes, not all 18
        paths = []
        read = vio.read_volume

        def counting_read(path):
            paths.append(path)
            return read(path)

        monkeypatch.setattr(vio, "read_volume", counting_read)
        code = main(["eval", "--ckpt",
                     str(tiny_run / "model" / "checkpoint.evckpt"),
                     "--data", str(dataset), "--split", "test",
                     "--out", str(tmp_path / "e")])
        assert code == EXIT_OK
        assert len(paths) == 3

    def test_missing_head_tensor_exit_code(self, dataset, tiny_run, tmp_path,
                                           capsys):
        model, config, epoch = load_checkpoint(
            tiny_run / "model" / "checkpoint.evckpt")
        del model.params["es.gamma_roots"]
        ckpt = tmp_path / "partial.evckpt"
        save_checkpoint(ckpt, model, config, epoch)
        code = main(["eval", "--ckpt", str(ckpt), "--data", str(dataset),
                     "--out", str(tmp_path / "e")])
        assert code == EXIT_CONFIG
        assert "es.gamma_roots" in capsys.readouterr().err

    def test_checkpoint_without_head_exit_code(self, dataset, tiny_run,
                                               tmp_path, capsys):
        ckpt = tmp_path / "headless.evckpt"
        ckpt.write_bytes(
            (tiny_run / "model" / "checkpoint.evckpt").read_bytes())
        rewrite_header(ckpt, lambda h: h.pop("head"))
        code = main(["eval", "--ckpt", str(ckpt), "--data", str(dataset),
                     "--out", str(tmp_path / "e")])
        assert code == EXIT_CONFIG
        assert "headless.evckpt" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "train", "predict"])
def test_missing_file_exit_code(dataset, tmp_path, capsys, command):
    missing = str(tmp_path / "missing")
    case = str(dataset / read_dataset(dataset, "test")[0].id)
    argv = {"eval": ["eval", "--ckpt", missing, "--data", str(dataset)],
            "train": ["train", "--config", missing, "--data", str(dataset)],
            "predict": ["predict", "--ckpt", missing, "--case", case]}
    code = main(argv[command] + ["--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and missing in err


class TestGradcheckCommand:
    def test_small_clean_run_passes(self, capsys):
        code = main(["gradcheck", "--instances", "1"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        # seed 0, one instance per case: the counts perfbench also pins
        assert "2,298 element checks, 266 kink skips" in out

    def test_injected_fault_detected(self, capsys):
        code = main(["gradcheck", "--instances", "1",
                     "--inject-fault", "conv3d"])
        assert code == EXIT_NUMERIC
        out = capsys.readouterr().out
        assert "FAIL  conv3d" in out

    @pytest.mark.parametrize("instances", ["0", "-3"])
    def test_fewer_than_one_instance_rejected(self, capsys, instances):
        # a gate that checks nothing must not pass
        code = main(["gradcheck", "--instances", instances])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert f"got {instances}" in captured.err

    def test_unknown_injected_fault_rejected(self, capsys):
        code = main(["gradcheck", "--instances", "1",
                     "--inject-fault", "nosuchop"])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert "'nosuchop'" in captured.err and "conv3d" in captured.err


class TestReproduceCommand:
    def test_tiny_scale_protocol(self, tmp_path, monkeypatch):
        gate_calls = []
        run_gate = gc.run_gate

        def spy():
            gate_calls.append(1)
            return run_gate()

        monkeypatch.setattr(gc, "run_gate", spy)
        out = tmp_path / "exp"
        reproduce(out, cases=10, epochs=1)
        assert len(gate_calls) == 1
        assert split_sizes(out / "data") == [8, 1, 1]
        runs = [(head, seed) for head in HEADS for seed in SEEDS]
        assert sorted(p.name for p in out.iterdir()) == sorted(
            ["data"] + [f"{head}_s{seed}" for head, seed in runs])
        for head, seed in runs:
            run = out / f"{head}_s{seed}"
            assert json.loads((run / "config.json").read_text()) == {
                "es": {"head": head}, "train": {"seed": seed, "epochs": 1}}
            log = (run / "train_log.jsonl").read_text().splitlines()
            assert [json.loads(line)["epoch"] for line in log] == [1]
            model, train_cfg, _ = load_checkpoint(run / "checkpoint.evckpt")
            assert (model.head, train_cfg.seed) == (head, seed)
            report = json.loads((run / "eval" / "report.json").read_text())
            assert len(report["per_patient"]) == 1

    def test_failed_gate_exit_code(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(gc, "run_suite", failing_suite("dempster_fuse"))
        out = tmp_path / "exp"
        assert main(["reproduce", "--out", str(out)]) == EXIT_NUMERIC
        assert "gradient-check gate failed: dempster_fuse" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_refuses_nonempty_out_dir(self, dataset, monkeypatch):
        def gate():
            raise AssertionError("gradient-check gate ran")

        monkeypatch.setattr(gc, "run_gate", gate)
        assert main(["reproduce", "--out", str(dataset)]) == EXIT_CONFIG

    def test_takes_only_out(self, tmp_path):
        assert main(["reproduce", "--out", str(tmp_path),
                     "--count", "10"]) == EXIT_CONFIG


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_blocks(info):
    """The bodies of the README's fenced blocks whose info string matches
    the regular expression `info`."""
    readme = README.read_text()
    return re.findall(rf"^```{info}\n(.*?)^```", readme, flags=re.M | re.S)


def test_readme_config_example_parses():
    blocks = readme_blocks("json")
    assert blocks
    for block in blocks:
        resolved(RunConfig(json.loads(block)))


def test_readme_keys_are_the_accepted_keys():
    # the README's bullet list of accepted keys names exactly the keys of
    # config.SECTIONS, section by section
    listing = README.read_text().split(
        "These are the accepted keys:\n\n", 1)[1].split("\n\n", 1)[0]
    documented = {}
    for item in re.split(r"^- ", listing, flags=re.M)[1:]:
        section, rest = item.split(":", 1)
        # a parenthesis holds a key's values, not keys
        documented[section.strip("`")] = tuple(
            re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", rest)))
    assert documented == SECTIONS


def test_readme_flags_exist():
    # every `--flag` the README's prose or blocks name in backticks is an
    # option of some subcommand, so a deleted flag cannot stay documented
    readme = README.read_text()
    named = set(re.findall(r"`(--[a-z][\w-]*)", readme))
    subparsers = build_parser()._subparsers._group_actions[0].choices
    options = {flag for sub in subparsers.values()
               for action in sub._actions for flag in action.option_strings}
    assert named and named <= options, sorted(named - options)


def test_readme_commands_parse():
    # every `evidseg ...` line in the README's fenced blocks, in either the
    # installed or the plain-checkout form, names flags the parser accepts
    commands = set()
    for block in readme_blocks(r"[^\n]*"):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line) if "evidseg" in line else []
            for program in ("evidseg", "evidseg.cli"):
                if program in words:
                    argv = words[words.index(program) + 1:]
                    commands.add(build_parser().parse_args(argv).command)
    assert commands == {"phantom", "train", "predict", "eval", "gradcheck",
                        "reproduce"}
