"""Benchmark / reproduction of Table 1: group counts r per recursion level.

Table 1 of the paper lists, for the weak-scaling experiments, how many groups
every level of AMS-sort splits the MPI processes into.  The reproduction
checks that :func:`repro.core.config.level_plan` generates exactly the
paper's choices (for the multi-level rows) and benchmarks the planning
routine itself.
"""

from conftest import publish

from repro.core.config import level_plan
from repro.experiments.cli import run_views
from repro.experiments.harness import PAPER_TABLE1


PAPER_P = (512, 2048, 8192, 32768)


def plan_all() -> dict:
    """Compute the level plan for every paper configuration."""
    return {
        (k, p): level_plan(p, k, node_size=16)
        for k in (1, 2, 3)
        for p in PAPER_P
    }


def test_table1_level_plan(benchmark):
    plans = benchmark(plan_all)
    # The multi-level rows must match the paper exactly.
    for k in (2, 3):
        for p in PAPER_P:
            assert plans[(k, p)] == PAPER_TABLE1[k][p], (k, p)
    publish("table1_level_config", run_views(["table1"]))
