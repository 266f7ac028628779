"""Benchmark / reproduction of Section 7.3: comparison with single-level codes.

The paper compares AMS-sort against MP-sort (a single-level multiway
mergesort), Solomonik & Kale's single-level hybrid and Baidu-Sort, and finds
that single-level codes fall behind by large factors for small ``n/p`` at
large ``p`` (MP-sort: two to three orders of magnitude at ``n/p = 1e5`` and
``p = 2^14``).  The scaled reproduction compares multi-level AMS-sort against
our re-implemented single-level baselines and checks the structural claim:
the single-level slowdown grows with ``p``.
"""

from conftest import campaign_rows, publish

from repro.analysis.tables import format_table


def run_sweep(profile):
    return campaign_rows(profile, "comparison", level_counts=(1, 2, 3))["rows"]


def test_sec73_single_level_comparison(benchmark, profile):
    rows = benchmark.pedantic(run_sweep, args=(profile,), rounds=1, iterations=1)
    text = format_table(
        rows,
        title=(
            "Section 7.3 (scaled reproduction) — AMS-sort (best level) vs "
            "single-level baselines at small n/p "
            "(paper: MP-sort is orders of magnitude slower at p = 2^14)"
        ),
    )
    publish("sec73_single_level", text)

    p_values = sorted({row["p"] for row in rows})
    largest_p = p_values[-1]

    def slowdown_of(algo, p):
        return [row["slowdown_vs_ams"] for row in rows
                if row["algorithm"] == algo and row["p"] == p][0]

    # At the largest p, the MP-sort-style single-level mergesort is clearly
    # slower than AMS-sort (the paper's headline comparison), and its
    # disadvantage does not shrink as p grows.
    assert slowdown_of("mergesort", largest_p) > 1.0
    if len(p_values) >= 2:
        assert slowdown_of("mergesort", largest_p) >= 0.8 * slowdown_of("mergesort", p_values[0])
    # At least one further single-level baseline also loses at the largest p
    # (at paper scale all of them do; at the reduced benchmark scale the
    # quicksort's log-p data movement penalty is still small).
    others = [slowdown_of(algo, largest_p) for algo in ("samplesort", "quicksort")]
    assert max(others) > 1.0
    # Every baseline result is present for every p.
    assert len(rows) == len(p_values) * 4
