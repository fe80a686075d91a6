"""Run one chainsentry benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pipeline-default --seed 7 --seconds 45 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory, never from an installed copy.  ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` makes the traced run and reports per-layer
metrics (see ``spans.py``).  Every metric is printed by name with its unit;
the last line of standard output is the JSON result.  The exit status is 0
only when every correctness check passed; without the sources it is 2.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUPS = 3
MIN_PASSES = 2
# Untraced and traced passes of a traced run, alternated, for the overhead.
TRACED_PAIRS = 2

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "addr_hours_per_s": "1/s",
    "peak_rss_mb": "MB",
}

TIER1_BASELINE = (
    "188 passed, 2 known failures: test_criterion_10b_parallel_speedup "
    "(needs 8 cores for a 4x speedup), test_module_entrypoint_subprocess "
    "(hard-codes a working directory that does not exist)")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("pipeline-default", "featurize-1k", "trace-deep"))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's reference seed)")
    parser.add_argument("--seconds", type=float, default=45.0,
                        help="time budget for the timed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for smoke tests")
    return parser.parse_args(argv)


def git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def blas_threads() -> int | None:
    """Threads of numpy's bundled OpenBLAS, asked from the library itself."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_metadata(args, loadavg: float) -> dict:
    import numpy as np
    import scipy

    import workloads

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "git_sha": git_sha(),
        "src_sha256": {p.relative_to(SRC).as_posix(): workloads.sha256_file(p)[:16]
                       for p in sorted((SRC / "chainsentry").rglob("*.py"))},
        "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas_threads": blas_threads(),
        "loadavg_1m_at_start": loadavg,
        "reference_seeds": {n: w.reference_seed for n, w in workloads.WORKLOADS.items()},
        "tier1_baseline": TIER1_BASELINE,
    }


def median(values) -> float:
    return float(statistics.median(values))


def run_untraced(wl, seconds: float, run_dir: Path):
    """Several set-ups, then timed passes until the budget is spent."""
    from workloads import CheckResult

    setup_s, out_dir = [], None
    for k in range(SETUPS):
        if out_dir is not None:
            shutil.rmtree(out_dir)
        out_dir = run_dir / f"setup{k}"
        t0 = time.perf_counter()
        wl.setup(out_dir)
        setup_s.append(time.perf_counter() - t0)
    wl.use(out_dir)

    passes, check = [], CheckResult()
    while True:
        result = wl.run_pass()
        passes.append(result)
        check.merge(wl.check_pass(len(passes) - 1, result))
        # At least MIN_PASSES, so every metric is a median of passes; after
        # that, stop once another pass would overrun the budget by over half.
        spent = sum(p.wall_s for p in passes)
        typical = median([p.wall_s for p in passes])
        if len(passes) >= MIN_PASSES and spent + typical / 2 >= seconds:
            break

    metrics = {
        "setup_s": median(setup_s),
        "wall_s": median([p.wall_s for p in passes]),
        "cpu_s": median([p.cpu_s for p in passes]),
        "addr_hours_per_s": median([wl.features_rate(p) for p in passes]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extras = wl.extra_metrics(passes)
    extras["failed_share"] = (check.failed / check.attempted, "ratio")
    details = {"passes": len(passes), "setups": len(setup_s),
               "pass_wall_s": [round(p.wall_s, 4) for p in passes],
               "setup_s": [round(s, 4) for s in setup_s]}
    return {k: (v, END_TO_END[k]) for k, v in metrics.items()}, extras, check, details


def run_traced(wl, run_dir: Path, trace_path: Path):
    """One traced set-up, then untraced and traced passes in turn.

    Layer metrics come from the set-up and the first traced pass; the
    overhead is the median traced pass minus the median untraced pass."""
    import spans
    from workloads import CheckResult

    tracer = spans.Tracer()
    out_dir = run_dir / "setup0"
    with spans.instrumented(tracer):
        wl.setup(out_dir)
    wl.use(out_dir)
    check, untraced, traced = CheckResult(), [], []
    for k in range(TRACED_PAIRS):
        untraced.append(wl.run_pass())
        check.merge(wl.check_pass(2 * k, untraced[-1]))
        with spans.instrumented(tracer if k == 0 else spans.Tracer()):
            traced.append(wl.run_pass())
        check.merge(wl.check_pass(2 * k + 1, traced[-1]))

    untraced_s = [p.wall_s for p in untraced]
    traced_s = [p.wall_s for p in traced]
    layers = tracer.layer_metrics()
    layers["trace.overhead_s"] = median(traced_s) - median(untraced_s)
    tracer.write(trace_path)
    metrics = {k: (layers[k], unit) for k, unit in spans.COMMON_LAYER_METRICS.items()}
    extras = {k: (layers[k], unit) for k, unit in spans.WORKLOAD_LAYER_METRICS.items()
              if k in layers}
    extras["trace.overhead_share"] = (layers["trace.overhead_s"] / median(untraced_s), "ratio")
    # The untraced passes' own spread, to read the overhead against.
    extras["trace.untraced_range_s"] = (max(untraced_s) - min(untraced_s), "s")
    details = {"untraced_wall_s": untraced_s, "traced_wall_s": traced_s,
               "spans": len(tracer.names), "trace_file": str(trace_path.relative_to(ROOT)),
               "self_time_top": [[n, round(s, 4)] for n, s in tracer.self_time_ranking()[:12]]}
    return metrics, extras, check, details


def main(argv=None) -> int:
    args = parse_args(argv)
    loadavg = os.getloadavg()[0]
    if not (SRC / "chainsentry" / "__init__.py").is_file():
        print(f"perfbench: no chainsentry sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import chainsentry

    if Path(chainsentry.__file__).resolve().parent != SRC / "chainsentry":
        print(f"perfbench: imported chainsentry from {chainsentry.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    wl_cls = workloads.WORKLOADS[args.workload]
    if args.seed is None:
        args.seed = wl_cls.reference_seed
    wl = wl_cls(args.seed, tiny=args.size == "tiny")
    meta = run_metadata(args, loadavg)
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            metrics, extras, check, details = run_traced(
                wl, run_dir, WORK / f"trace-{args.workload}")
        else:
            metrics, extras, check, details = run_untraced(wl, args.seconds, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    correct = check.failed == 0
    print(f"{args.workload} seed={args.seed} trace={args.trace} correct={correct} "
          f"attempted={check.attempted} failed={check.failed}")
    for name, (value, unit) in {**metrics, **extras}.items():
        print(f"  {name:<34} {value:>14.6g} {unit}")
    for problem in check.problems:
        print(f"  FAILED: {problem}")
    print("# details " + json.dumps(details, sort_keys=True))
    print("# info " + json.dumps(wl.info, sort_keys=True))
    print("# digests " + json.dumps(wl.digests, sort_keys=True))
    print("# meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
