"""Benchmark: simulated cost versus the paper's closed-form analysis.

Not a table/figure of the paper per se, but the glue that justifies the
scaled reproduction: Theorem 2 (RLM-sort) and Theorem 3 (AMS-sort) predict
how the running time decomposes into local work, splitter handling and the
``Exch(p, n/p, O(k * p^(1/k)))`` exchanges.  This benchmark evaluates the
closed-form models and the simulator on the same configurations and checks
that they agree on the *ordering* of the algorithms and on the growth trend
with ``p``, which is the level of agreement the substitution (simulator for
SuperMUC) is supposed to preserve.
"""

from conftest import campaign_rows, publish

from repro.analysis.tables import format_table
from repro.analysis.theory import (
    ams_sort_time_model,
    rlm_sort_time_model,
    single_level_sample_sort_time_model,
)
from repro.machine.spec import supermuc_like


def run_comparison(profile):
    # Two-level AMS-sort next to the single-level baselines at the smallest n/p.
    measured = campaign_rows(profile, "comparison", level_counts=(2,))["rows"]
    time_of = {(row["p"], row["algorithm"]): row["time_s"] for row in measured}
    spec = supermuc_like()
    n_per_pe = min(profile["n_per_pe_values"])
    rows = []
    for p in profile["p_values"]:
        n = n_per_pe * p
        rows.append({
            "p": p,
            "n_per_pe": n_per_pe,
            "model_ams_s": ams_sort_time_model(spec, n, p, levels=2)["total"],
            "sim_ams_s": time_of[(p, "ams")],
            "model_single_s": single_level_sample_sort_time_model(spec, n, p)["total"],
            "sim_single_s": time_of[(p, "samplesort")],
            "model_rlm_s": rlm_sort_time_model(spec, n, p, levels=2)["total"],
        })
    return rows


def test_theory_vs_simulation(benchmark, profile):
    rows = benchmark.pedantic(run_comparison, args=(profile,), rounds=1, iterations=1)
    text = format_table(
        rows,
        title=(
            "Analysis vs simulation — closed-form running-time models "
            "(Theorems 2/3) next to the simulated modelled times"
        ),
    )
    publish("theory_model", text)

    for row in rows:
        # model and simulation agree within an order of magnitude ...
        assert row["sim_ams_s"] < row["model_ams_s"] * 20
        assert row["model_ams_s"] < row["sim_ams_s"] * 20
    largest = rows[-1]
    # ... and on the key ordering at the largest simulated p: AMS-sort does
    # not lose to the dense single-level sample sort.
    assert largest["sim_ams_s"] <= largest["sim_single_s"] * 1.1
    assert largest["model_ams_s"] <= largest["model_single_s"] * 1.1
