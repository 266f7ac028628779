"""Benchmark / reproduction of Figure 11: wall-time vs samples per PE.

Figure 11 of the paper plots the total wall-time and the splitter-selection
("sampling") time of 1-level AMS-sort against the number of samples per
process, for oversampling factors ``a`` in {1, 8, 16}.  Expected shape: a
U-curve — too few samples hurt (imbalance makes delivery and local sorting
slower), too many samples hurt (sampling itself starts to dominate), and the
sampling share of the wall-time grows monotonically with the sample count.
"""

from conftest import campaign_rows, publish

from repro.analysis.tables import format_table


A_VALUES = (1.0, 8.0, 16.0)


def run_sweep(profile):
    return campaign_rows(profile, "overpartitioning")["fig11"]


def test_fig11_overpartitioning_walltime(benchmark, profile):
    rows = benchmark.pedantic(run_sweep, args=(profile,), rounds=1, iterations=1)
    text = format_table(
        rows,
        title=(
            "Figure 11 (scaled reproduction) — total wall-time and sampling time of "
            "1-level AMS-sort vs samples per PE (a*b), for a in {1, 8, 16}"
        ),
    )
    publish("fig11_overpartitioning", text)

    for a in A_VALUES:
        series = [row for row in rows if row["a"] == a]
        series.sort(key=lambda r: r["samples_per_pe"])
        sampling = [row["sampling_time_s"] for row in series]
        # Sampling cost grows with the number of samples drawn.
        assert sampling[-1] >= sampling[0]
        # The largest sample count should not be the fastest overall
        # configuration (the right branch of the U-curve).
        totals = [row["time_median_s"] for row in series]
        assert totals[-1] > min(totals)
