"""Benchmark / reproduction of Figure 12: spread of wall-times over repetitions.

Figure 12 shows the distribution of AMS-sort wall-times over repeated runs of
every weak-scaling configuration.  On the real machine the spread is caused
by network interference and by sampling noise; in the deterministic simulator
only the sampling noise remains (different random samples give different
splitters and hence different bucket/piece sizes).  The reproduction reports
the median/min/max per configuration and checks that the spread is modest
relative to the median — the same qualitative statement the paper makes for
small and mid p.
"""

from conftest import campaign_rows, publish

from repro.analysis.tables import format_table


REPETITIONS = 5


def run_sweep(profile):
    return campaign_rows(
        profile, "variance", level_counts=(1, 2), repetitions=REPETITIONS
    )["rows"]


def test_fig12_variance(benchmark, profile):
    rows = benchmark.pedantic(run_sweep, args=(profile,), rounds=1, iterations=1)
    text = format_table(
        rows,
        title=(
            "Figure 12 (scaled reproduction) — distribution of AMS-sort modelled "
            f"wall-times over {REPETITIONS} repetitions (sampling noise only; the "
            "paper's network-interference component has no analogue in the simulator)"
        ),
    )
    publish("fig12_variance", text)

    for row in rows:
        assert row["runs"] == REPETITIONS
        assert row["min_s"] <= row["median_s"] <= row["max_s"]
        # sampling noise alone produces a moderate spread
        assert row["relative_spread"] < 1.0
