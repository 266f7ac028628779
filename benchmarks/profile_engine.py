"""Per-phase wall-time profiler for the flat execution engine.

Answers "where does the *simulator* spend its wall time?" — not modelled PE
time — by running one algorithm configuration with the machine's wall-clock
phase profile enabled (``SimulatedMachine.enable_wall_profile``): every
phase transition attributes the elapsed host time to the innermost open
phase, so the run decomposes into the paper's four phases (splitter
selection / sampling, bucket processing / routing, data delivery, local
sorting) plus ``other`` (conversion, validation, bookkeeping outside any
phase).

This is the regression trajectory for engine-performance PRs: run it before
and after a change and compare the per-phase seconds, e.g. ::

    python benchmarks/profile_engine.py --p 32768 --levels 3
    python benchmarks/profile_engine.py --p 4096 --algorithm rlm --repeat 5

(``PYTHONPATH=src`` is optional: the script puts the in-repo ``src`` tree on
``sys.path`` itself.)  ``--repeat N`` reports the per-phase *median* over N
runs so before/after comparisons are stable against machine noise;
``--cprofile`` additionally dumps the top functions by internal time for
drilling into a phase.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import json
import pstats
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from repro.core.config import AMSConfig, RLMConfig
from repro.core.runner import run_on_machine
from repro.dist.array import DistArray
from repro.sim.machine import SimulatedMachine


def profile_run(
    p: int,
    n_per_pe: int = 1000,
    levels: int = 3,
    algorithm: str = "ams",
    seed: int = 0,
    engine: str = "flat",
):
    """One profiled run; returns ``(wall_seconds, phase_wall, SortResult)``."""
    rng = np.random.default_rng(1)
    data = rng.integers(0, 2 ** 62, size=p * n_per_pe, dtype=np.int64)
    dist = DistArray.from_sizes(data, np.full(p, n_per_pe, dtype=np.int64))
    machine = SimulatedMachine(p, seed=seed)
    machine.enable_wall_profile()
    if algorithm == "rlm":
        config = RLMConfig(levels=levels)
    else:
        config = AMSConfig(levels=levels)
    t0 = time.perf_counter()
    result = run_on_machine(
        machine, dist, algorithm=algorithm, config=config,
        validate=False, engine=engine,
    )
    wall = time.perf_counter() - t0
    return wall, dict(machine.wall_profile), result


def format_profile(wall: float, phase_wall: dict) -> str:
    """Render the per-phase wall attribution as an aligned table."""
    attributed = sum(phase_wall.values())
    lines = []
    for phase, seconds in sorted(phase_wall.items(), key=lambda kv: -kv[1]):
        lines.append(
            f"  {phase:22s} {seconds:8.2f} s  ({100 * seconds / max(wall, 1e-12):5.1f}%)"
        )
    lines.append(
        f"  {'(outside phases)':22s} {max(wall - attributed, 0.0):8.2f} s"
    )
    lines.append(f"  {'total wall':22s} {wall:8.2f} s")
    return "\n".join(lines)


def median_profile(walls, phase_walls):
    """Per-phase medians over repeated runs (phases missing in a run count 0)."""
    phases = sorted({ph for pw in phase_walls for ph in pw})
    return statistics.median(walls), {
        ph: statistics.median([pw.get(ph, 0.0) for pw in phase_walls])
        for ph in phases
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--p", type=int, default=4096, help="simulated PEs")
    parser.add_argument("--n-per-pe", type=int, default=1000)
    parser.add_argument("--levels", type=int, default=3)
    parser.add_argument("--algorithm", default="ams", choices=("ams", "rlm"))
    parser.add_argument("--engine", default="flat", choices=("flat", "reference"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="run N times and report the per-phase median "
                             "(stabilises before/after comparisons)")
    parser.add_argument("--cprofile", action="store_true",
                        help="also dump the top functions by internal time "
                             "(first run only)")
    parser.add_argument("--cprofile-limit", type=int, default=25)
    parser.add_argument("--json", type=Path, default=None,
                        help="append the profile as one JSON line to this file")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    profiler = cProfile.Profile() if args.cprofile else None
    walls, phase_walls = [], []
    result = None
    for rep in range(args.repeat):
        if profiler is not None and rep == 0:
            profiler.enable()
        wall_i, phase_i, result = profile_run(
            args.p, n_per_pe=args.n_per_pe, levels=args.levels,
            algorithm=args.algorithm, seed=args.seed, engine=args.engine,
        )
        if profiler is not None and rep == 0:
            profiler.disable()
        walls.append(wall_i)
        phase_walls.append(phase_i)
    wall, phase_wall = median_profile(walls, phase_walls)

    label = "median of %d runs" % args.repeat if args.repeat > 1 else "1 run"
    print(
        f"{args.algorithm} p={args.p} n/p={args.n_per_pe} levels={args.levels} "
        f"engine={args.engine}: "
        f"modelled={result.total_time:.5f}s ({label})"
    )
    print(format_profile(wall, phase_wall))

    if profiler is not None:
        stream = io.StringIO()
        pstats.Stats(profiler, stream=stream).sort_stats("tottime").print_stats(
            args.cprofile_limit
        )
        print(stream.getvalue())

    if args.json is not None:
        record = {
            "p": args.p,
            "n_per_pe": args.n_per_pe,
            "levels": args.levels,
            "algorithm": args.algorithm,
            "engine": args.engine,
            "repeat": args.repeat,
            "wall_s": wall,
            "phase_wall_s": phase_wall,
            "modelled_time_s": result.total_time,
        }
        args.json.parent.mkdir(parents=True, exist_ok=True)
        with args.json.open("a") as fh:
            fh.write(json.dumps(record) + "\n")
        print(f"appended profile to {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
