"""The simulator's benchmark: end-to-end walls, or a separate traced run.

    python3 perfbench/run.py --workload ams_uniform_p16k --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

Each workload runs in its own single-threaded process on the numpy backend.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  The exit code is 0 only when
every output check passed.  README.md beside this file describes the
workloads, the metrics and the protocol.
"""

from __future__ import annotations

import os

# Single-threaded numpy: set before anything imports it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
# The program's own switches (backend, arena, chaos, scale) stay at defaults.
for _var in [v for v in os.environ if v.startswith("REPRO_")]:
    del os.environ[_var]

import argparse
import gc
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("ams_uniform_p16k", "rlm_zipf_p8k", "campaign_quick")


def _git_commit():
    """The checked-out commit, or None in a checkout without ``.git``."""
    # Without its own .git, git would report an enclosing repository's commit.
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def fingerprint(seed: int) -> dict:
    """The host and program a result belongs to: compare results only within one."""
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "cores": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


def time_setups(case, seed, count, samples, tracer=None):
    """Times ``count`` set-ups of ``case``, each from a clean state, into ``samples``."""
    from cases import maybe_span

    for _ in range(count):
        case.release()
        gc.collect()
        start = perf_counter()
        with maybe_span(tracer, "bench", "setup"):
            case.setup(seed, tracer)
        samples.append(perf_counter() - start)


def repeats(case, tally, deadline, minimum, seed, setups, tracer=None):
    """Calls until the next one would end after ``deadline`` (at least ``minimum``).

    Before each call, ``case.setup_between`` more set-ups are timed into
    ``setups``, so that their mean spans the window as the calls do.
    """
    from cases import maybe_span

    walls, cpus, longest = [], [], 0.0
    while len(walls) < minimum or perf_counter() + longest <= deadline:
        start = perf_counter()
        time_setups(case, seed, case.setup_between, setups, tracer)
        with maybe_span(tracer, "bench", "repeat"):
            wall, cpu = case.repeat(tally, tracer)
        if wall is None:
            break
        walls.append(wall)
        cpus.append(cpu)
        longest = max(longest, perf_counter() - start)
    return walls, cpus


def run_one(args) -> int:
    from cases import WORKLOADS as CASES
    from repro.dist.workspace import get_arena
    from tracer import KERNELS, PHASES, Tracer, kernel_table, phase_kernel_metrics, write_chrome_trace

    host = fingerprint(args.seed)
    case = CASES[args.workload]()
    tracer = Tracer() if args.trace else None
    tally = [0, 0]  # operations attempted, failed

    setup = []
    time_setups(case, args.seed, case.setup_repeats, setup, tracer)
    case.prepare()

    window_start = perf_counter()
    first = case.warmup(tally)
    if not args.trace:
        walls, _ = repeats(case, tally, window_start + args.seconds, case.min_repeats,
                           args.seed, setup)
        host["backend_used"] = case.backend_used()
        wall = statistics.median(walls) if walls else None
        metrics = {
            "wall_s": (wall, "s"),
            "melem_per_s": (case.elements / wall / 1e6 if wall else None, "Melem/s"),
            # The mean, not the median: on a host that switches between two
            # speeds, the median of short samples jumps from one speed to the
            # other as the share of slow time passes one half, while the mean
            # moves in proportion to it, as the multi-second calls' walls do.
            "setup_s": (statistics.fmean(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "modelled_time_s": (case.modelled_time if walls else None, "s"),
        }
        print(f"repeats: {len(walls)} warm after 1 cold; wall_s samples {walls}")
        print(f"set-ups: {len(setup)} timed")
    else:
        untraced, _ = repeats(case, tally, window_start + args.seconds / 2, 1,
                              args.seed, setup)
        host["backend_used"] = case.backend_used()
        arena = get_arena().stats()
        case.start_trace()
        traced, cpus = repeats(case, tally, window_start + args.seconds, 1,
                               args.seed, setup, tracer)
        if not (untraced and traced):
            metrics = {}
        else:
            n = len(traced)
            after = get_arena().stats()
            metrics = {
                **case.layer_metrics(tracer, n),
                "core.sort_s": (statistics.median(traced), "s"),
                "core.sort_cpu_s": (statistics.median(cpus), "s"),
                "core.first_wall_s": (first, "s"),
                **phase_kernel_metrics(tracer, case.profiles, traced),
                "arena.high_water_mb": (after["high_water_bytes"] / 2**20, "MB"),
                "arena.hits": (round((after["hits"] - arena["hits"]) / n), "count"),
                "arena.misses": (round((after["misses"] - arena["misses"]) / n), "count"),
                "trace.overhead_share": (
                    statistics.median(traced) / statistics.median(untraced) - 1, "ratio"),
            }
            table = kernel_table(tracer)
            print(f"repeats: {len(untraced)} untraced, {n} traced; per traced call:")
            print(f"  {'phase':18s} {'kernel':24s} {'calls':>7s} {'busy_s':>9s}")
            for ph in PHASES:
                for kernel in KERNELS:
                    row = table.get((ph, kernel))
                    if row:
                        print(f"  {ph:18s} {kernel:24s} {row[0] / n:7.0f} {row[1] / n:9.4f}")
            out = HERE / "out"
            out.mkdir(exist_ok=True)
            path = out / f"trace-{args.workload}-seed{args.seed}.json"
            write_chrome_trace(path, tracer, {
                "host": host,
                "metrics": {k: v[0] for k, v in metrics.items()},
                "phase_kernel": [[ph, k, *row] for (ph, k), row in sorted(table.items())],
            })
            print(f"trace: {path.relative_to(ROOT)}")

    print("host: " + json.dumps(host, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value!s:>24s} {unit}")
    complete = bool(metrics) and all(v is not None for v, _ in metrics.values())
    result = {
        "correct": tally[1] == 0 and complete,
        "attempted": tally[0],
        "failed": tally[1],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload, each in its own process; prints one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        print(f"[{name}] exit {proc.returncode}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        combined["correct"] = combined["correct"] and result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update(
            {f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="measuring window after set-up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run that reports the per-layer metrics")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's source is missing: no {SRC / 'repro'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
