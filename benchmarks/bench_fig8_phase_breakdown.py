"""Benchmark / reproduction of Figure 8: phase breakdown of AMS-sort, 1-3 levels.

Figure 8 stacks, for every ``(p, n/p)`` and level count, the time spent in
splitter selection, bucket processing, data delivery and local sorting
(accumulated over all recursion levels).  Expected shape (from the paper):

* splitter selection never dominates,
* data delivery is the largest communication phase and benefits from more
  levels at large ``p`` / small ``n/p``,
* local sorting dominates when ``n/p`` is large.
"""

from conftest import campaign_rows, publish

from repro.analysis.tables import format_table
from repro.machine.counters import (
    PHASE_DATA_DELIVERY,
    PHASE_LOCAL_SORT,
    PHASE_SPLITTER_SELECTION,
)

SPLITTER_SELECTION = f"phase_{PHASE_SPLITTER_SELECTION}"
LOCAL_SORT = f"phase_{PHASE_LOCAL_SORT}"
DATA_DELIVERY = f"phase_{PHASE_DATA_DELIVERY}"


def run_sweep(profile):
    return campaign_rows(profile, "weak_scaling", level_counts=(1, 2, 3))["rows"]


def test_fig8_phase_breakdown(benchmark, profile):
    rows = benchmark.pedantic(run_sweep, args=(profile,), rounds=1, iterations=1)
    text = format_table(
        rows,
        title=(
            "Figure 8 (scaled reproduction) — AMS-sort phase breakdown "
            "(splitter selection / bucket processing / data delivery / local sort), "
            "accumulated over recursion levels"
        ),
    )
    publish("fig8_phase_breakdown", text)

    largest_n = max(row["n_per_pe"] for row in rows)
    smallest_n = min(row["n_per_pe"] for row in rows)
    for row in rows:
        total = row["time_median_s"]
        # Splitter selection is never the dominant phase (paper, Section 7.2).
        assert row[SPLITTER_SELECTION] < 0.6 * total

    # The local-sorting share grows with n/p: compute (not communication)
    # dominates for large per-PE volumes (paper: n/p = 1e7 panels).
    def sort_share(n_per_pe, levels=1):
        matching = [r for r in rows if r["n_per_pe"] == n_per_pe and r["levels"] == levels]
        return sum(r[LOCAL_SORT] / r["time_median_s"] for r in matching) / len(matching)

    assert sort_share(largest_n) > sort_share(smallest_n)

    # More levels reduce the data-delivery phase at the largest p / smallest n/p
    # (the startup-bound regime the multi-level algorithms target).
    largest_p = max(row["p"] for row in rows)
    delivery = {
        row["levels"]: row[DATA_DELIVERY]
        for row in rows
        if row["p"] == largest_p and row["n_per_pe"] == smallest_n
    }
    if 1 in delivery and 2 in delivery:
        assert delivery[2] <= delivery[1] * 1.6
