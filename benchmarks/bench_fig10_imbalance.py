"""Benchmark / reproduction of Figure 10: output imbalance vs samples per PE.

Appendix E of the paper fixes ``p = 512`` and ``n/p = 1e5`` and sweeps the
number of samples per process ``a * b`` for overpartitioning factors
``b`` in {1, 8, 16}.  Expected shape: the maximum imbalance falls with the
sample size, and for a fixed sample size a larger overpartitioning factor
``b`` gives a (much) smaller imbalance — this is the point of
overpartitioning (Lemma 2: the required sample size drops from
``O(1/eps^2)`` to ``O(1/eps)``).
"""

from conftest import campaign_rows, publish

from repro.analysis.tables import format_table


B_VALUES = (1, 8, 16)
SAMPLES_PER_PE = (4, 16, 64, 256)


def run_sweep(profile):
    return campaign_rows(profile, "overpartitioning")["fig10"]


def test_fig10_imbalance(benchmark, profile):
    rows = benchmark.pedantic(run_sweep, args=(profile,), rounds=1, iterations=1)
    text = format_table(
        rows,
        title=(
            "Figure 10 (scaled reproduction) — maximum output imbalance of "
            "1-level AMS-sort vs samples per PE (a*b), for b in {1, 8, 16}"
        ),
    )
    publish("fig10_imbalance", text)

    by_key = {(row["b"], row["samples_per_pe"]): row["imbalance"] for row in rows}
    # Imbalance decreases with the sample size for every b.
    for b in B_VALUES:
        assert by_key[(b, SAMPLES_PER_PE[-1])] <= by_key[(b, SAMPLES_PER_PE[0])]
    # For the largest sample size, overpartitioning (b=16) is at least as good
    # as no overpartitioning (b=1), and for mid-size samples it is clearly better.
    assert by_key[(16, 256)] <= by_key[(1, 256)] + 0.02
    assert by_key[(16, 64)] <= by_key[(1, 64)] + 0.05
    # With a reasonable sample, the imbalance is small in absolute terms.
    assert by_key[(16, 256)] < 0.2
