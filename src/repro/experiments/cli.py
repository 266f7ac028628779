"""Command-line entry point for the experiments.

Usage::

    python -m repro.experiments.cli table1
    python -m repro.experiments.cli table2 --scale quick --workload zipf
    python -m repro.experiments.cli fig7 fig8 fig10 fig11 fig12 sec73
    python -m repro.experiments.cli all --scale medium
    python -m repro.experiments.cli faults --scale tiny --faults "" droprate:0.2

    # Sharded campaign: expand every experiment into cells, fan them over
    # worker processes, cache cell summaries on disk, aggregate the rows.
    python -m repro.experiments.cli campaign --profile quick --jobs 4

A serial name is a view of one section of the campaign: the experiments
behind the named views run as one serial, uncached campaign on a single
workload, so ``table2 fig8`` runs the weak-scaling sweep once.  Each
section is printed next to the paper's reference table where the paper
has one.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.analysis.tables import format_table
from repro.experiments import campaign as campaign_mod
from repro.experiments.harness import (
    PAPER_P_VALUES,
    PAPER_TABLE1,
    SCALE_PROFILES,
    paper_reference_rows,
)
from repro.workloads.generators import WORKLOADS


class View(NamedTuple):
    """A serial experiment name: one section of one campaign experiment."""

    experiment: str
    section: str


#: Serial experiment names, each the campaign section it prints.
EXPERIMENTS: Dict[str, View] = {
    "table1": View("level_table", "rows"),
    "table2": View("weak_scaling", "best"),
    "fig7": View("slowdown", "rows"),
    "fig8": View("weak_scaling", "rows"),
    "fig10": View("overpartitioning", "fig10"),
    "fig11": View("overpartitioning", "fig11"),
    "fig12": View("variance", "rows"),
    "sec73": View("comparison", "rows"),
    "faults": View("faults", "rows"),
}


#: The paper's tables, printed after the view of the same name.
_PAPER_REFERENCES: Dict[str, Tuple[str, List[Dict[str, object]]]] = {
    "table1": (
        "Paper Table 1 (SuperMUC, 16 PEs per node).  Its k=1 row lists the "
        "node size;\na single-level algorithm must split into r=p groups to "
        "finish in one level,\nwhich is what level_plan() returns for k=1.",
        [
            {
                "k": k,
                "level": level + 1,
                **{f"p={p}": by_p[p][level] for p in PAPER_P_VALUES},
            }
            for k, by_p in sorted(PAPER_TABLE1.items())
            for level in range(k)
        ],
    ),
    "table2": (
        "Paper Table 2 — AMS-sort median wall-times on SuperMUC, seconds "
        "(for comparison of shape only)",
        paper_reference_rows(),
    ),
}


def run_views(
    names: Sequence[str],
    scale: Optional[str] = None,
    workload: str = "uniform",
    fault_specs: Optional[Sequence[str]] = None,
) -> str:
    """Run the experiments behind the named views as one campaign; format them.

    The campaign is serial and uncached and runs ``workload`` alone, so it
    gets the profile's full grid; ``fault_specs`` is the ladder of the
    ``faults`` view.
    """
    experiments = tuple(dict.fromkeys(EXPERIMENTS[name].experiment for name in names))
    summary, stats = campaign_mod.run_campaign(
        scale, experiments=experiments, workloads=(workload,), jobs=1,
        cache_dir=None, fault_specs=fault_specs,
    )
    if stats["quarantined"]:
        print(
            f"warning: {stats['quarantined']} cells quarantined after "
            "repeated failures — their rows are missing",
            file=sys.stderr,
        )
    meta = summary["meta"]
    blocks = [
        f"profile={meta['profile']}  workload={workload}  "
        f"cells={meta['cells']}  rng={meta['rng_version']}\n"
    ]
    for name in names:
        view = EXPERIMENTS[name]
        rows = summary["experiments"].get(view.experiment, {}).get(view.section, [])
        block = [
            f"=== {name} ===",
            campaign_mod.format_section(view.experiment, view.section, rows),
        ]
        if name in _PAPER_REFERENCES:
            title, reference = _PAPER_REFERENCES[name]
            block.append(format_table(reference, title=title))
        blocks.append("\n".join(block))
    return "\n".join(blocks)


def campaign_main(argv: List[str] | None = None) -> int:
    """Run a sharded experiment campaign (``cli campaign ...``)."""
    parser = argparse.ArgumentParser(
        prog="repro.experiments campaign",
        description=(
            "Expand the experiments into (machine, algorithm, config, workload, "
            "repetition) cells, execute them sharded over worker processes with "
            "an on-disk resume cache, and aggregate the paper's tables/figures."
        ),
    )
    parser.add_argument(
        "--profile", default=None, choices=sorted(SCALE_PROFILES),
        help="scale profile (default: $REPRO_SCALE or 'quick'); "
             "'paper' reaches p=32768 on the flat engine",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (1 = serial; sharded output is byte-identical)",
    )
    parser.add_argument(
        "--experiments", nargs="+", default=None,
        choices=sorted(campaign_mod.CAMPAIGN_EXPERIMENTS),
        help="subset of experiments (default: all, or the profile's own list)",
    )
    parser.add_argument(
        "--workloads", nargs="+", default=None, choices=sorted(WORKLOADS),
        help="workload axis; the first named workload gets the full grid "
             "(default: uniform zipf nearly_sorted duplicates staggered)",
    )
    parser.add_argument(
        "--cache-dir", type=Path, default=None,
        help="cell summary cache directory (default: .campaign-cache/<profile>)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="run without any on-disk cache (no resume, nothing written)",
    )
    parser.add_argument(
        "--no-resume", action="store_true",
        help="ignore existing cached cells (they are overwritten as cells finish)",
    )
    parser.add_argument(
        "--output", type=Path, default=None,
        help="write the aggregated campaign summary as canonical JSON",
    )
    parser.add_argument(
        "--require-cached", action="store_true",
        help="fail if any cell had to execute (CI re-run assertion)",
    )
    parser.add_argument(
        "--faults", nargs="+", default=None, metavar="SPEC",
        help="fault-spec ladder for the 'faults' experiment, e.g. "
             "'stragglers:0.1' 'droprate:0.01' (the healthy '' baseline is "
             "always included; see repro.sim.faults for the grammar)",
    )
    parser.add_argument(
        "--retries", type=int, default=2,
        help="per-cell retry budget before quarantine (default: 2)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="fail fast on the first cell error instead of retry/quarantine",
    )
    parser.add_argument(
        "--cell-timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget per cell (default: the profile's "
             "cell_timeout_s, set for the 'beyond' tier)",
    )
    parser.add_argument(
        "--chaos", default=None, metavar="SPEC",
        help="deterministic chaos injection for the execution layer, e.g. "
             "'seed:7,corrupt:0.2,trunc:0.1' (exported as REPRO_CHAOS; see "
             "repro.chaos for the grammar — results stay byte-identical)",
    )
    parser.add_argument(
        "--stats-output", type=Path, default=None,
        help="write the run stats (cache hits, retries, quarantines, "
             "recovery counters) as JSON — the non-deterministic sibling "
             "of --output",
    )
    parser.add_argument("--quiet", action="store_true", help="no per-cell progress")
    args = parser.parse_args(argv)

    if args.faults is not None:
        from repro.sim.faults import parse_fault_spec

        for spec in args.faults:
            parse_fault_spec(spec)  # fail fast on bad grammar

    if args.chaos is not None:
        import os

        from repro.chaos import parse_chaos_spec

        parse_chaos_spec(args.chaos)  # fail fast on bad grammar
        os.environ["REPRO_CHAOS"] = args.chaos  # worker processes inherit

    if args.require_cached and (args.no_cache or args.no_resume):
        parser.error(
            "--require-cached cannot succeed with --no-cache/--no-resume: "
            "every cell would execute"
        )

    cache_dir = args.cache_dir
    if cache_dir is None and not args.no_cache:
        from repro.experiments.harness import scale_profile  # resolve default name
        import os

        name = args.profile or os.environ.get("REPRO_SCALE", "quick")
        scale_profile(name)  # validate early
        cache_dir = Path(".campaign-cache") / name

    progress = None if args.quiet else lambda msg: print(msg, file=sys.stderr, flush=True)
    summary, stats = campaign_mod.run_campaign(
        profile=args.profile,
        experiments=args.experiments,
        workloads=args.workloads,
        jobs=args.jobs,
        cache_dir=None if args.no_cache else cache_dir,
        resume=not args.no_resume,
        progress=progress,
        fault_specs=args.faults,
        retries=args.retries,
        strict=args.strict,
        cell_timeout_s=args.cell_timeout,
    )

    # Fold this process's chaos injections into the stats artifact so a
    # chaos run shows what was attacked next to what was recovered.
    from repro.chaos import get_chaos

    chaos = get_chaos()
    if chaos is not None:
        stats["chaos"] = dict(chaos.counters)

    print(campaign_mod.format_campaign(summary))
    print(
        f"\ncampaign stats: cells={stats['cells']} executed={stats['executed']} "
        f"cache_hits={stats['cache_hits']} "
        f"cache_corrupt={stats['cache_corrupt']} "
        f"retries={stats['cell_retries']} quarantined={stats['quarantined']}"
    )
    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(campaign_mod.campaign_to_json(summary))
        print(f"wrote {args.output}")
    if args.stats_output is not None:
        import json

        args.stats_output.parent.mkdir(parents=True, exist_ok=True)
        args.stats_output.write_text(
            json.dumps(stats, indent=2, sort_keys=True, default=str) + "\n"
        )
        print(f"wrote {args.stats_output}")
    if stats["quarantined"]:
        print(
            f"warning: {stats['quarantined']} cells quarantined after "
            "repeated failures — their rows are missing from the summary",
            file=sys.stderr,
        )
    if args.require_cached and stats["executed"] > 0:
        print(
            f"FAIL: --require-cached but {stats['executed']} cells executed "
            "(cache miss)",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv: List[str] | None = None) -> int:
    """Run the named experiments (or a campaign) and print formatted output."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "campaign":
        return campaign_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="repro.experiments",
        description="Reproduce the evaluation of 'Practical Massively Parallel Sorting'.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        help=f"experiment names ({', '.join(EXPERIMENTS)}), 'all', "
             "or 'campaign' (see 'campaign --help')",
    )
    parser.add_argument(
        "--scale",
        default=None,
        choices=sorted(SCALE_PROFILES),
        help="scale profile (default: $REPRO_SCALE or 'quick')",
    )
    parser.add_argument(
        "--workload",
        default="uniform",
        choices=sorted(WORKLOADS),
        help="input distribution fed to every experiment (default: uniform)",
    )
    parser.add_argument(
        "--faults", nargs="+", default=None, metavar="SPEC",
        help="fault-spec ladder for the 'faults' experiment, e.g. "
             "'stragglers:0.1' 'droprate:0.01' (the healthy '' baseline is "
             "always included)",
    )
    args = parser.parse_args(argv)

    names = list(args.experiments)
    if "all" in names:
        names = list(EXPERIMENTS)
    ordered = list(dict.fromkeys(names))
    # Every name is checked before the first experiment runs.
    for name in ordered:
        if name not in EXPERIMENTS:
            parser.error(f"unknown experiment {name!r}; known: {', '.join(EXPERIMENTS)}")

    if args.faults is not None:
        if "faults" not in ordered:
            parser.error("--faults is only valid with the 'faults' experiment")
        from repro.sim.faults import parse_fault_spec

        for spec in args.faults:
            parse_fault_spec(spec)  # fail fast on bad grammar

    print(run_views(
        ordered, scale=args.scale, workload=args.workload, fault_specs=args.faults,
    ))
    return 0


if __name__ == "__main__":  # pragma: no cover - manual invocation
    sys.exit(main())
