"""Benchmark / reproduction of Table 2: AMS-sort weak-scaling wall-times.

The paper's Table 2 reports the median wall-time of AMS-sort (best level
choice) for ``p`` in {512..32768} and ``n/p`` in {1e5..1e7} on SuperMUC.  The
reproduction runs the campaign's weak-scaling experiment at a reduced scale
on the simulated SuperMUC-like machine and reports the modelled times; the
expected *shape* is that the time per element stays within a small factor
as ``p`` grows (weak scalability), which the assertion checks.

The same sweep over the whole workload axis, sharded and cached, is
``python -m repro.experiments.cli campaign --experiments weak_scaling``.
"""

from conftest import campaign_rows, publish

from repro.analysis.tables import format_table
from repro.experiments.harness import paper_reference_rows


def run_sweep(profile):
    return campaign_rows(profile, "weak_scaling", level_counts=(1, 2))["best"]


def test_table2_weak_scaling(benchmark, profile):
    best = benchmark.pedantic(run_sweep, args=(profile,), rounds=1, iterations=1)

    text = format_table(
        best,
        title=(
            "Table 2 (scaled reproduction) — AMS-sort median modelled wall-times, "
            f"best level choice, machine=supermuc-like, scale p={profile['p_values']}, "
            f"n/p={profile['n_per_pe_values']}"
        ),
    )
    text += "\n" + format_table(paper_reference_rows(),
                                title="Paper Table 2 (SuperMUC reference, seconds)")
    publish("table2_weak_scaling", text)

    # Weak-scaling shape: for fixed n/p the modelled time grows only mildly
    # with p (the paper sees a factor <= ~3.5 from 512 to 32768 PEs).
    for n_per_pe in profile["n_per_pe_values"]:
        times = [row["time_median_s"] for row in best if row["n_per_pe"] == n_per_pe]
        assert times, "missing weak-scaling rows"
        assert max(times) <= 12 * min(times)
    # Times increase (roughly linearly) with n/p for fixed p.
    for p in profile["p_values"]:
        times = [row["time_median_s"] for row in best if row["p"] == p]
        assert times == sorted(times)
