"""Run one evidseg benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 10 --trace 0

Run from a checkout of the repository; the package is imported from
`src/`. The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` every unit of work runs
twice in a row, untraced and traced, and the run reports the per-layer
metrics, tracing overhead included.

An untraced run also starts three short child processes of this script,
one after another: two that only set up (`--child setup`), so `setup_s`
is the median of three cold set-ups, its own and theirs, and one that
sets up and runs one pass of the workload's own path alone
(`--child rss`), so `peak_rss_mb` belongs to that path.

A fuller record (machine, provenance, per-layer sources, check failures)
is written under `.perfbench/results/`, and the traced run's spans under
`.perfbench/traces/`.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

STDLIB_S = time.perf_counter() - T0

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# OpenBLAS would otherwise start one thread per core; one thread measured no
# slower on these shapes and keeps runs independent of other load
BLAS_THREADS = 1
WORKLOAD_NAMES = ("train-desk", "eval-full", "gradcheck-suite")
SETUP_CHILDREN = 2
CHILD_TIMEOUT_S = 60
# glibc's adaptive mmap threshold made the rss child's high-water mark
# settle on one of two levels 10% apart from run to run; with a fixed
# threshold every large array goes back to the system when freed, so the
# mark follows the memory the path holds live
RSS_CHILD_ENV = {"MALLOC_MMAP_THRESHOLD_": "65536"}
# By default glibc hands every freed array above 128 KiB back to the system
# and raises that threshold only as it sees larger arrays freed. A gradcheck
# case then page-faults about 900 MB in and out on every call for its first
# ten or so calls, longer than a run, and those faults made the case's time
# swing by a third from run to run on a shared host. The measuring processes
# start from the state glibc adapts to: the largest dynamic mmap threshold
# (32 MiB on 64-bit) and a trim threshold of twice that.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MALLOC_TUNING = {"mmap_threshold": 32 << 20, "trim_threshold": 64 << 20}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", choices=("setup", "rss"),
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def tune_malloc():
    """Apply MALLOC_TUNING through glibc's mallopt; returns the settings
    applied, or None where the C library has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    ok = (mallopt(M_MMAP_THRESHOLD, MALLOC_TUNING["mmap_threshold"])
          and mallopt(M_TRIM_THRESHOLD, MALLOC_TUNING["trim_threshold"]))
    return dict(MALLOC_TUNING) if ok else None


def provenance(args, malloc):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    src = hashlib.sha256()
    for p in sorted((ROOT / "src" / "evidseg").glob("*.py")):
        src.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS, "malloc": malloc or "default",
        "git_commit": _git_commit(), "source_sha256": src.hexdigest(),
    }


def _git_commit():
    """HEAD of the checkout, or "unknown" outside a git work tree."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode or len(lines) != 2 or Path(lines[0]) != ROOT:
        return "unknown"
    return lines[1]


def expected_names(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ([w["name"] for w in spec["workloads"]],
            {m["name"]: m["unit"]
             for m in spec["per_layer" if trace else "end_to_end"]})


def cold_setup(args, workdir, paths=None):
    """Import the program and set up; returns (Bench, tracer or None,
    seconds since start).

    The seconds leave out any time this process spent before the imports,
    such as waiting for child processes.
    """
    t0 = time.perf_counter()
    import workloads
    from tracing import Tracer
    tracer = Tracer() if args.trace else None
    bench = workloads.setup(workdir, args.seed, tracer=tracer,
                            paths=paths or workloads.PATHS)
    return bench, tracer, STDLIB_S + time.perf_counter() - t0


def child(args, workdir):
    """`--child setup`: the seconds of one cold set-up. `--child rss`: the
    high-water mark of setting up and running one pass of the workload's
    own path, and that pass's checks."""
    if args.child == "setup":
        _, _, seconds = cold_setup(args, workdir)
        return {"setup_s": seconds}
    import workloads
    own = workloads.WORKLOADS[args.workload]
    bench, _, _ = cold_setup(args, workdir, paths=(own,))
    tally = workloads.one_pass(bench, own)
    return {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF)
            .ru_maxrss / 1024.0, "attempted": tally.attempted,
            "failed": tally.failed, "problems": tally.problems}


def run_children(args):
    """Run the set-up and rss children one after another; returns their
    results and the problems of any child that did not finish cleanly."""
    results, problems = [], []
    for kind in ["setup"] * SETUP_CHILDREN + ["rss"]:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--child", kind]
        try:
            env = {**os.environ, **(RSS_CHILD_ENV if kind == "rss" else {})}
            out = subprocess.run(cmd, capture_output=True, text=True,
                                 env=env, timeout=CHILD_TIMEOUT_S)
            if out.returncode:
                raise ValueError(f"exit code {out.returncode}: "
                                 f"{out.stderr.strip()[-500:]}")
            results.append(json.loads(out.stdout.strip().splitlines()[-1]))
        except (subprocess.TimeoutExpired, ValueError, IndexError) as e:
            problems.append(f"--child {kind}: {e!r}")
    return results, problems


def measure(args, workdir, children=()):
    bench, tracer, setup_s = cold_setup(args, workdir)
    import report
    import workloads

    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    tallies = workloads.run(bench, args.workload, args.seconds, tracer)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    e2e = workloads.end_to_end(tallies[0])
    work, seconds = tallies[0].totals()
    record = {"setup_s": setup_s, "children": list(children),
              "work": work, "seconds": seconds,
              "unit_seconds": tallies[0].units,
              "minor_page_faults_measured": faults,
              "max_rss_all_paths_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if args.trace:
        trace = report.Trace(tracer)
        values, sources = report.per_layer(
            trace, args.workload, e2e, workloads.end_to_end(tallies[1]))
        units = {n: u for n, (u, _, _) in report.PER_LAYER.items()}
        traced_work, traced_seconds = tallies[1].totals()
        record.update(traced_work=traced_work,
                      traced_seconds=traced_seconds, sources=sources,
                      step_breakdown_s=trace.step_breakdown("train-es"))
        trace_dir = ROOT / ".perfbench" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.dump(trace_dir / f"{args.workload}-seed{args.seed}.json")
    else:
        values = dict(e2e)
        values["setup_s"] = statistics.median(
            [setup_s] + [c["setup_s"] for c in children if "setup_s" in c])
        values["peak_rss_mb"] = next((c["peak_rss_mb"] for c in children
                                      if "peak_rss_mb" in c), math.nan)
        units = {n: u for n, u, _, _ in report.END_TO_END}
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    problems = [p for t in tallies for p in t.problems]
    for c in children:
        attempted += c.get("attempted", 0)
        failed += c.get("failed", 0)
        problems += c.get("problems", [])

    # the printed names must be the ones BENCHMARK.json declares
    attempted += 1
    names, declared = expected_names(args.trace)
    mismatch = []
    if sorted(names) != sorted(WORKLOAD_NAMES):
        mismatch.append(f"workloads {names} != {list(WORKLOAD_NAMES)}")
    if declared != units:
        mismatch.append(f"metrics {sorted(declared.items())} "
                        f"!= {sorted(units.items())}")
    bad = [n for n, v in values.items() if not math.isfinite(v)]
    if bad:
        mismatch.append(f"metrics not observed or not finite: {bad}")
    if mismatch:
        failed += 1
        problems += mismatch
    metrics = {n: {"value": values[n] if n not in bad else None,
                   "unit": units[n]} for n in units}
    record.update(attempted=attempted, failed=failed, problems=problems)
    return metrics, record


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "evidseg" / "__init__.py").is_file():
        print(f"error: no evidseg sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    # the rss child keeps its own fixed threshold, set through RSS_CHILD_ENV
    malloc = tune_malloc() if args.child != "rss" else None
    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    if args.child:
        try:
            print(json.dumps(child(args, workdir)))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    children, child_problems = [], []
    if not args.trace:
        children, child_problems = run_children(args)
    try:
        metrics, record = measure(args, workdir, children)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["attempted"] += len(child_problems)
    record["failed"] += len(child_problems)
    record["problems"] += child_problems
    record["provenance"] = provenance(args, malloc)
    record["metrics"] = metrics
    out_dir = ROOT / ".perfbench" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / f"{args.workload}-trace{args.trace}-seed{args.seed}.json"
    out.write_text(json.dumps(record, indent=1))

    for p in record["problems"]:
        print(f"FAILED: {p}")
    print("provenance " + json.dumps(record["provenance"]))
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
