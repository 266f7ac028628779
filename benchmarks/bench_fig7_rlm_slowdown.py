"""Benchmark / reproduction of Figure 7: slowdown of RLM-sort vs AMS-sort.

The paper observes that RLM-sort (best level choice) is slower than AMS-sort
(best level choice) in almost all configurations, with the gap widening for
small ``n/p`` and large ``p``.  The scaled reproduction checks the same
ordering and reports the slowdown series.
"""

from conftest import campaign_rows, publish

from repro.analysis.tables import format_table


def run_sweep(profile):
    return campaign_rows(profile, "slowdown", level_counts=(1, 2))["rows"]


def test_fig7_rlm_slowdown(benchmark, profile):
    rows = benchmark.pedantic(run_sweep, args=(profile,), rounds=1, iterations=1)
    text = format_table(
        rows,
        title=(
            "Figure 7 (scaled reproduction) — slowdown of RLM-sort vs AMS-sort "
            "(paper: slowdown > 1 almost everywhere, up to ~4 for small n/p at large p)"
        ),
    )
    publish("fig7_rlm_slowdown", text)

    # RLM-sort should essentially never be faster than AMS-sort by more than a
    # small margin, and for the smallest n/p it should be clearly slower.
    assert all(row["slowdown"] > 0.8 for row in rows)
    smallest_n = min(row["n_per_pe"] for row in rows)
    largest_p = max(row["p"] for row in rows)
    worst_case = [row for row in rows
                  if row["n_per_pe"] == smallest_n and row["p"] == largest_p]
    assert worst_case and worst_case[0]["slowdown"] > 1.0
