"""Command-line pipeline: phantom generation, training, prediction,
evaluation, gradient checking, and `reproduce`, the one definition of the
reference experiment that chains the others.

`main` alone turns a failure into an exit code, from the exception's type:
an `ArithmeticError` is a numerical failure (exit 2, `numerical failure: `
on stderr); a `ValueError` or `OSError` is invalid input (exit 1,
`error: `), as is an argparse usage error; success and `--help` exit 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import gradcheck as gc
from . import metrics as mx
from . import trainer as tr
from . import volume_io as vio
from .config import RunConfig
from .evidential_head import decide
from .seeding import derive_seed

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2


# -- phantom ---------------------------------------------------------------

def _require_empty(out):
    out = Path(out)
    if out.exists() and any(out.iterdir()):
        raise ValueError(f"{out} exists and is not empty")
    return out


def cmd_phantom(args):
    out = _require_empty(args.out)
    dims = _parse_dims(args.dims)
    lo, hi = args.lesions
    cases = []
    for i in range(args.count):
        case = vio.generate_phantom(derive_seed(args.seed, f"case:{i}"),
                                    dims, (lo, hi))
        case.id = f"case_{i:04d}"
        cases.append(case)
    ids = [c.id for c in cases]
    train, val, test = vio.split_dataset(
        ids, ratios=tuple(args.ratios), seed=derive_seed(args.seed, "split"))
    vio.write_dataset(cases, {"train": train, "val": val, "test": test}, out)
    print(f"wrote {len(cases)} cases to {out} "
          f"(split {len(train)}/{len(val)}/{len(test)})")


# -- train -----------------------------------------------------------------

def cmd_train(args):
    config = RunConfig.from_file(args.config)
    train_cases = vio.read_dataset(args.data, "train")
    val_cases = vio.read_dataset(args.data, "val")
    train_cfg = config.train_config()
    model = tr.Model.create(config.backbone_config(), config.head,
                            train_cfg, train_cfg.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # a checkpoint beside the new log would pass for this run's if it fails
    ckpt_path = out / "checkpoint.evckpt"
    ckpt_path.unlink(missing_ok=True)
    with open(out / "train_log.jsonl", "w") as log_file:
        def log_fn(record):
            log_file.write(json.dumps(record) + "\n")
            log_file.flush()
            print(f"epoch {record['epoch']:3d}  total {record['total']:.4f}  "
                  f"val_dice {record['val_dice']:.4f}  "
                  f"val_ignorance {record['val_mean_ignorance']:.4f}")

        best_params, best_epoch, _ = tr.train(
            model, train_cases, val_cases, train_cfg,
            gradcheck_gate=not args.skip_gradcheck, log_fn=log_fn)
    model.params = best_params
    tr.save_checkpoint(ckpt_path, model, train_cfg, best_epoch)
    print(f"best checkpoint (epoch {best_epoch}) -> {ckpt_path}")


# -- predict ---------------------------------------------------------------

def _predict_masses_for_case(model, train_cfg, case):
    x, _ = tr.prepare_case(case)
    return mx.sliding_window_masses(model.predict_masses, x,
                                    train_cfg.patch_dims)


def cmd_predict(args):
    model, train_cfg, _ = tr.load_checkpoint(args.ckpt)
    case = vio.read_case(args.case)
    masses = _predict_masses_for_case(model, train_cfg, case)
    binary, three_way, uncertainty = decide(masses)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dims, spacing = case.pet.dims, case.pet.spacing
    vio.write_volume(vio.Volume(dims, spacing, "MASK", binary),
                     out / "binary.evol")
    vio.write_volume(vio.Volume(dims, spacing, "MAP", three_way),
                     out / "threeway.evol")
    vio.write_volume(vio.Volume(dims, spacing, "MAP", uncertainty),
                     out / "uncertainty.evol")
    print(f"wrote binary/threeway/uncertainty volumes to {out}")


# -- eval ------------------------------------------------------------------

def cmd_eval(args):
    model, train_cfg, _ = tr.load_checkpoint(args.ckpt)
    cases = vio.read_dataset(args.data, args.split)

    def predict_binary(case):
        return decide(_predict_masses_for_case(model, train_cfg, case))[0]

    report = mx.evaluate_cases(predict_binary, cases)
    table = mx.format_table(report)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(json.dumps(report, indent=1))
    (out / "report.txt").write_text(table + "\n")
    print(table)


# -- gradcheck -------------------------------------------------------------

def cmd_gradcheck(args):
    results = gc.run_suite(instances=args.instances,
                           inject_fault=args.inject_fault)
    failed = False
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name:<30} max_rel_err {r.max_error:.3e}")
        failed = failed or not r.passed
    if failed:
        raise ArithmeticError("gradient check failed")
    reports = [rep for r in results for rep in r.reports]
    print(f"all {len(results)} op kinds pass "
          f"(step {gc.STEP:g}, tol {gc.TOL:g}): "
          f"{sum(rep.checked for rep in reports):,} element checks, "
          f"{sum(rep.skipped_at_kink for rep in reports):,} kink skips")


# -- reproduce -------------------------------------------------------------

SEEDS = (0, 1, 2)  # training seeds of the reference experiment, per head


def reproduce(out, cases=200, epochs=None):
    """Run the reference experiment into `out`.

    `out/data` gets `cases` phantoms at 32^3 (seed 0, 1-3 lesions, 80/10/10
    split). After one gradient-check gate, every head in `trainer.HEADS`
    trains from every seed in `SEEDS` with the reference config into
    `out/{head}_s{seed}`, and `eval` scores its best checkpoint on the test
    split into `.../eval`. `epochs` overrides the reference epoch count;
    it and `cases` exist so that a test can run the protocol at tiny scale.
    """
    out = _require_empty(out)
    gc.run_gate()
    data = str(out / "data")
    _run(["phantom", "--out", data, "--count", str(cases),
          "--dims", "32,32,32", "--seed", "0", "--lesions", "1", "3",
          "--ratios", "0.8", "0.1", "0.1"])
    for head in tr.HEADS:
        for seed in SEEDS:
            run = out / f"{head}_s{seed}"
            run.mkdir()
            train = {"seed": seed}
            if epochs is not None:
                train["epochs"] = epochs
            config = run / "config.json"
            config.write_text(json.dumps({"es": {"head": head},
                                          "train": train}))
            _run(["train", "--config", str(config), "--data", data,
                  "--out", str(run), "--skip-gradcheck"])
            _run(["eval", "--ckpt", str(run / "checkpoint.evckpt"),
                  "--data", data, "--split", "test",
                  "--out", str(run / "eval")])


def _run(argv):
    args = build_parser().parse_args(argv)
    args.fn(args)


# -- argument parsing ------------------------------------------------------

def _parse_dims(text):
    try:
        dims = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"bad dims {text!r}; expected X,Y,Z")
    if len(dims) != 3:
        raise ValueError(f"bad dims {text!r}; expected three extents")
    return dims


def build_parser():
    parser = argparse.ArgumentParser(
        prog="evidseg",
        description="Evidential 3D PET/CT segmentation with uncertainty maps")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--dims", default="32,32,32")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lesions", type=int, nargs=2, default=(1, 3),
                   metavar=("MIN", "MAX"))
    p.add_argument("--ratios", type=float, nargs=3, default=(0.8, 0.1, 0.1))
    p.set_defaults(fn=cmd_phantom)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--skip-gradcheck", action="store_true")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("predict", help="predict maps for one case")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--case", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--out", default="eval_out")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("gradcheck", help="run the finite-difference suite")
    p.add_argument("--instances", type=int, default=20)
    p.add_argument("--inject-fault", default=None, metavar="OP",
                   help="corrupt one gradient of OP to prove the check bites")
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("reproduce",
                       help="run the reference experiment: data, six "
                            "trainings and their evals")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=lambda args: reproduce(args.out))
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        args.fn(args)
    except SystemExit as e:
        # argparse has printed the usage message or the help
        return EXIT_CONFIG if e.code else EXIT_OK
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except ArithmeticError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
