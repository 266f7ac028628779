"""Benchmark: flat DistArray engine vs the seed per-PE path, p up to 2^15.

The flat engine (``repro.dist``) replaces the per-PE ``for i in range(p)``
loops of the seed implementation with whole-machine vectorised numpy; since
the full-lockstep recursion every level (not just the final one) runs as one
batch of segmented operations, which is what makes ``p = 2^15 = 32768`` —
the largest configuration evaluated in the paper — simulable.  The
benchmark, on AMS-sort with ``n/p = 1000``:

* runs the flat engine at ``p`` in {64, 256, 1024, 4096, 32768} (two-level
  plan up to 4096, the paper's three-level plan at 2^15),
* runs the seed per-PE reference at ``p`` up to 1024 and verifies the two
  engines produce **identical sorted output and modelled makespan**,
* at larger ``p`` (where the per-PE reference is infeasible) verifies
  **seeded determinism** instead: the flat engine runs twice with the same
  seed and must reproduce identical outputs and makespan,
* reports the wall-clock speedup (the acceptance bar is >= 5x at p=1024),
* records the process peak RSS per row (``peak_rss_mb``, a lifetime
  high-water mark — see :func:`_peak_rss_mb`; ``--rss-budget`` turns it
  into a hard memory assert for CI),
* archives the measurements as JSON (``BENCH_engine.json``).

Standalone usage (used by the CI perf smoke job)::

    PYTHONPATH=src python benchmarks/bench_engine_scaling.py \
        --p-list 1024 --output BENCH_engine.json

``--profile`` additionally attributes the flat engine's wall time to the
paper's four phases (``SimulatedMachine.enable_wall_profile``) and stores
the attribution in each row — the trajectory future perf PRs regress
against.  Under pytest the module runs a reduced-scale version through the
pytest-benchmark harness like the other benchmarks in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX
    resource = None

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from repro.core.config import AMSConfig
from repro.core.runner import distribute_array, run_on_machine
from repro.dist.array import DistArray
from repro.sim.machine import SimulatedMachine

DEFAULT_P_LIST = (64, 256, 1024, 4096, 32768)
N_PER_PE = 1000
LEVELS = 2  # the paper's default two-level plan


def _levels_for(p: int) -> int:
    """Recursion depth per machine size: the paper's Table 1 uses three
    levels for its largest (2^15 PE) configuration and two below that."""
    return 3 if p > 4096 else LEVELS


def _peak_rss_mb():
    """Process high-water RSS in MB (``ru_maxrss`` is KB on Linux).

    This is a *lifetime* high-water mark, so within one bench process the
    values are monotone non-decreasing across rows: a row's figure is the
    peak of everything run so far, dominated by the largest ``p`` yet.  The
    CI memory assert runs a single row per process, where the number is
    exactly that configuration's peak.
    """
    if resource is None:  # pragma: no cover - non-POSIX
        return None
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cores() -> int:
    """CPU cores this process may use (host provenance for each row)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _run_once(p: int, n_per_pe: int, engine: str, seed: int = 0,
              profile: bool = False, levels=None):
    """One timed AMS-sort run; returns (wall, SortResult, phase_wall)."""
    rng = np.random.default_rng(1)
    data = rng.integers(0, 2 ** 62, size=p * n_per_pe, dtype=np.int64)
    machine = SimulatedMachine(p, seed=seed)
    if engine == "flat":
        # The flat engine consumes the CSR layout natively; handing it the
        # flat buffer skips a p-way split + concatenate at the boundary.
        local = DistArray.from_sizes(data, np.full(p, n_per_pe, dtype=np.int64))
    else:
        local = distribute_array(data, p)
    if profile:
        machine.enable_wall_profile()
    t0 = time.perf_counter()
    result = run_on_machine(
        machine, local, algorithm="ams",
        config=AMSConfig(levels=levels if levels else _levels_for(p)),
        validate=False, engine=engine,
    )
    wall = time.perf_counter() - t0
    phase_wall = dict(machine.wall_profile) if profile else None
    return wall, result, phase_wall


def _best_of(p: int, n_per_pe: int, engine: str, repeats: int,
             profile: bool = False, levels=None):
    """Best wall of ``repeats`` runs.

    Returns ``(wall, results, phase_wall)`` where ``results``
    holds the first two runs' :class:`SortResult`\\ s — the second one is
    what the large-``p`` seeded-determinism check compares against, so the
    check costs no extra run.
    """
    walls = []
    results = []
    phase_wall = None
    for _ in range(max(1, repeats)):
        wall, result, pw = _run_once(
            p, n_per_pe, engine, profile=profile, levels=levels,
        )
        if not walls or wall < min(walls):
            phase_wall = pw
        walls.append(wall)
        if len(results) < 2:
            results.append(result)
    return min(walls), results, phase_wall


def run_comparison(
    p_list=DEFAULT_P_LIST,
    n_per_pe: int = N_PER_PE,
    reference_max: int = 1024,
    repeats: int = 3,
    profile: bool = False,
    levels=None,
):
    """Run the flat/reference comparison; returns a list of row dicts.

    ``levels`` overrides the per-``p`` recursion-depth policy when set.
    """
    rows = []
    cores = _cores()
    for p in p_list:
        compared = p <= reference_max
        # Compared points use the same best-of-N on both engines; flat-only
        # points at large p run twice — the second same-seed run doubles as
        # the determinism check that replaces the per-PE comparison there.
        flat_repeats = repeats if (compared or p <= 1024) else 2
        wall_flat, flat_results, phase_wall = _best_of(
            p, n_per_pe, "flat", flat_repeats, profile=profile, levels=levels,
        )
        res_flat = flat_results[0]
        row_levels = levels if levels else _levels_for(p)
        row = {
            "p": int(p),
            "n_per_pe": int(n_per_pe),
            "levels": row_levels,
            "plan": [int(r) for r in AMSConfig(levels=row_levels).plan_for(p)],
            "cores": cores,
            "wall_flat_s": wall_flat,
            "peak_rss_mb": _peak_rss_mb(),
            "modelled_time_s": res_flat.total_time,
            "imbalance": res_flat.imbalance,
            "max_startups": res_flat.traffic.get("max_startups_per_pe", 0),
        }
        if profile and phase_wall is not None:
            row["phase_wall_s"] = phase_wall
        if compared:
            wall_ref, (res_ref, *_rest), _ = _best_of(
                p, n_per_pe, "reference", repeats, levels=levels
            )
            identical_output = all(
                np.array_equal(a, b)
                for a, b in zip(res_flat.output, res_ref.output)
            )
            identical_makespan = res_flat.total_time == res_ref.total_time
            row.update({
                "wall_reference_s": wall_ref,
                "speedup": wall_ref / wall_flat,
                "identical_output": identical_output,
                "identical_makespan": identical_makespan,
            })
            if not (identical_output and identical_makespan):
                raise AssertionError(
                    f"flat and reference engines diverged at p={p}: "
                    f"output identical={identical_output}, "
                    f"makespan identical={identical_makespan}"
                )
        else:
            # The per-PE reference is infeasible at this scale; pin seeded
            # determinism instead: same seed, same machine, run twice —
            # byte-identical outputs and identical modelled makespan.  The
            # second best-of run above doubles as the re-run.
            res_again = flat_results[1]
            identical_output = all(
                np.array_equal(a, b)
                for a, b in zip(res_flat.output, res_again.output)
            )
            identical_makespan = res_flat.total_time == res_again.total_time
            row.update({
                "identical_output": identical_output,
                "identical_makespan": identical_makespan,
                "determinism_check": "flat-rerun",
            })
            if not (identical_output and identical_makespan):
                raise AssertionError(
                    f"flat engine is not seed-deterministic at p={p}: "
                    f"output identical={identical_output}, "
                    f"makespan identical={identical_makespan}"
                )
        rows.append(row)
        msg = f"p={p:5d}  n/p={n_per_pe}  flat={row['wall_flat_s']:.3f}s"
        if "speedup" in row:
            msg += (
                f"  reference={row['wall_reference_s']:.3f}s"
                f"  speedup={row['speedup']:.2f}x  identical=yes"
            )
        elif row.get("determinism_check"):
            msg += "  deterministic=yes"
        if row["peak_rss_mb"] is not None:
            msg += f"  rss={row['peak_rss_mb']:.0f}MB"
        msg += f"  modelled={row['modelled_time_s']:.5f}s"
        if profile and phase_wall is not None:
            top = sorted(phase_wall.items(), key=lambda kv: -kv[1])[:3]
            msg += "  wall[" + " ".join(
                f"{k}={v:.2f}s" for k, v in top
            ) + "]"
        print(msg, flush=True)
    return rows


def write_json(rows, path: Path) -> None:
    """Write the measurement rows as a JSON document.

    The recursion depth is a *per-row* property (``levels`` and ``plan`` in
    each row — the paper's largest machine runs three levels while the rest
    run two), so the document deliberately carries no global level count.
    """
    doc = {
        "benchmark": "engine_scaling",
        "algorithm": "ams",
        "config": {"spec": "supermuc-like"},
        "rows": rows,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {path}", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--p-list", type=int, nargs="+", default=list(DEFAULT_P_LIST),
                        help="simulated PE counts to run (default: 64 256 1024 4096)")
    parser.add_argument("--n-per-pe", type=int, default=N_PER_PE)
    parser.add_argument("--reference-max", type=int, default=1024,
                        help="largest p for which the per-PE seed path also runs")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repetitions (best-of); p=4096 always runs once")
    parser.add_argument("--output", type=Path,
                        default=Path(__file__).parent / "results" / "BENCH_engine.json")
    parser.add_argument("--require-speedup", type=float, default=None,
                        help="fail unless the speedup at the largest compared p "
                             "reaches this factor (e.g. 5.0)")
    parser.add_argument("--levels", type=int, default=None,
                        help="override the per-p recursion-depth policy "
                             "(default: 3 levels above p=4096, else 2)")
    parser.add_argument("--profile", action="store_true",
                        help="attribute flat-engine wall time to algorithm "
                             "phases and record it per row")
    parser.add_argument("--budget", type=float, default=None,
                        help="fail if any flat run exceeds this wall-clock "
                             "budget in seconds")
    parser.add_argument("--rss-budget", type=float, default=None,
                        help="fail if the process peak RSS exceeds this "
                             "budget in MB (ru_maxrss high-water)")
    args = parser.parse_args(argv)

    rows = run_comparison(
        p_list=args.p_list,
        n_per_pe=args.n_per_pe,
        reference_max=args.reference_max,
        repeats=args.repeats,
        profile=args.profile,
        levels=args.levels,
    )
    write_json(rows, args.output)

    if args.budget is not None:
        over = [r for r in rows if r["wall_flat_s"] > args.budget]
        if over:
            print(
                "FAIL: wall-clock budget exceeded: " + ", ".join(
                    f"p={r['p']} {r['wall_flat_s']:.2f}s > {args.budget:.0f}s"
                    for r in over
                ),
                file=sys.stderr,
            )
            return 1
        print(f"wall-clock budget check passed (<= {args.budget:.0f}s)")

    if args.rss_budget is not None:
        peak = _peak_rss_mb()
        if peak is None:
            print("ru_maxrss unavailable; cannot check RSS budget",
                  file=sys.stderr)
            return 2
        if peak > args.rss_budget:
            print(
                f"FAIL: peak RSS {peak:.0f}MB exceeds budget "
                f"{args.rss_budget:.0f}MB",
                file=sys.stderr,
            )
            return 1
        print(f"peak-RSS budget check passed: {peak:.0f}MB "
              f"<= {args.rss_budget:.0f}MB")

    if args.require_speedup is not None:
        compared = [r for r in rows if "speedup" in r]
        if not compared:
            print("no engine comparison ran; cannot check speedup", file=sys.stderr)
            return 2
        top = max(compared, key=lambda r: r["p"])
        if top["speedup"] < args.require_speedup:
            print(
                f"FAIL: speedup {top['speedup']:.2f}x at p={top['p']} below "
                f"required {args.require_speedup:.2f}x",
                file=sys.stderr,
            )
            return 1
        print(f"speedup check passed: {top['speedup']:.2f}x at p={top['p']}")
    return 0


# ----------------------------------------------------------------------
# pytest-benchmark entry point (reduced scale, like the other benchmarks)
# ----------------------------------------------------------------------
def test_engine_scaling(benchmark, profile):
    from conftest import publish

    p_values = profile["p_values"]
    rows = benchmark.pedantic(
        run_comparison,
        kwargs={
            "p_list": p_values,
            "n_per_pe": min(1000, max(profile["n_per_pe_values"])),
            # The per-PE seed path is impractical past ~1024 PEs; larger
            # profile points run the flat engine only.
            "reference_max": min(1024, max(p_values)),
            "repeats": 1,
        },
        rounds=1,
        iterations=1,
    )
    lines = ["Flat DistArray engine vs seed per-PE path (AMS-sort, 2 levels)"]
    for row in rows:
        lines.append(
            f"  p={row['p']:5d}  flat={row['wall_flat_s']:.3f}s  "
            f"reference={row.get('wall_reference_s', float('nan')):.3f}s  "
            f"speedup={row.get('speedup', float('nan')):.2f}x  "
            f"modelled={row['modelled_time_s']:.5f}s"
        )
    publish("engine_scaling", "\n".join(lines))

    # Identity is enforced inside run_comparison; at benchmark scale the
    # speedup must at least not regress below parity.
    assert all(row.get("identical_output", True) for row in rows)
    assert max(row.get("speedup", 1.0) for row in rows) >= 1.0


if __name__ == "__main__":
    raise SystemExit(main())
