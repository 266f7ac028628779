"""Smoke and shape tests for the experiment modules (tiny configurations)."""

import pytest

from repro.experiments import (
    comparison,
    level_table,
    overpartitioning,
    slowdown,
    variance,
    weak_scaling,
)
from repro.experiments.cli import EXPERIMENTS, main
from repro.experiments.harness import ExperimentRunner
from repro.machine.spec import laptop_like


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(spec=laptop_like())


class TestLevelTable:
    def test_rows_match_paper_for_multilevel(self):
        rows = level_table.level_table_rows()
        for row in rows:
            if row["k"] == 1:
                continue  # see note about the paper's k=1 row
            for p in (512, 2048, 8192, 32768):
                assert row[f"p={p}"] == row[f"paper p={p}"]

    def test_run_outputs_text(self):
        text = level_table.run()
        assert "Table 1" in text


class TestWeakScaling:
    def test_rows_and_reductions(self, runner):
        rows = weak_scaling.weak_scaling_rows(
            p_values=(4, 8), n_per_pe_values=(50, 200), level_counts=(1, 2),
            repetitions=1, node_size=2, runner=runner,
        )
        assert len(rows) == 8
        t2 = weak_scaling.table2_rows(rows)
        assert len(t2) == 4
        assert all("best_levels" in row for row in t2)
        f8 = weak_scaling.figure8_rows(rows)
        assert len(f8) == 8
        for row in f8:
            assert row["splitter_selection"] >= 0
            assert row["data_delivery"] > 0

    def test_paper_reference_rows(self):
        rows = weak_scaling.paper_reference_rows()
        assert len(rows) == 12


class TestSlowdown:
    def test_rows_have_ratio(self, runner):
        rows = slowdown.slowdown_rows(
            p_values=(8,), n_per_pe_values=(100,), level_counts=(1, 2),
            repetitions=1, node_size=2, runner=runner,
        )
        assert len(rows) == 1
        assert rows[0]["slowdown"] > 0
        assert rows[0]["ams_time_s"] > 0 and rows[0]["rlm_time_s"] > 0


class TestOverpartitioning:
    def test_imbalance_sweep_shape_effect(self, runner):
        rows = overpartitioning.imbalance_sweep_rows(
            p=8, n_per_pe=500, b_values=(1, 8), samples_per_pe_values=(4, 64),
            node_size=2, repetitions=1, runner=runner,
        )
        assert len(rows) == 4
        # for the same number of samples, higher b should not be (much) worse
        by_key = {(row["b"], row["samples_per_pe"]): row["imbalance"] for row in rows}
        assert by_key[(8, 64)] <= by_key[(1, 64)] + 0.25

    def test_walltime_sweep(self, runner):
        rows = overpartitioning.walltime_sweep_rows(
            p=8, n_per_pe=300, a_values=(1.0,), samples_per_pe_values=(4, 64),
            node_size=2, repetitions=1, runner=runner,
        )
        assert len(rows) == 2
        assert all(row["sampling_time_s"] >= 0 for row in rows)

    def test_workload_axis(self, runner):
        rows = overpartitioning.imbalance_sweep_rows(
            p=8, n_per_pe=200, b_values=(8,), samples_per_pe_values=(16,),
            node_size=2, repetitions=1, workload="duplicates", runner=runner,
        )
        assert rows and all(row["workload"] == "duplicates" for row in rows)


class TestVariance:
    def test_rows(self, runner):
        rows = variance.variance_rows(
            p_values=(4,), n_per_pe_values=(100,), level_counts=(1,),
            repetitions=3, node_size=2, runner=runner,
        )
        assert len(rows) == 1
        assert rows[0]["runs"] == 3
        assert rows[0]["workload"] == "uniform"
        assert rows[0]["min_s"] <= rows[0]["median_s"] <= rows[0]["max_s"]

    def test_workload_axis(self, runner):
        rows = variance.variance_rows(
            p_values=(4,), n_per_pe_values=(100,), level_counts=(1,),
            repetitions=3, node_size=2, workload="zipf", runner=runner,
        )
        assert rows[0]["workload"] == "zipf"


class TestComparison:
    def test_single_level_slowdowns_reported(self, runner):
        rows = comparison.comparison_rows(
            p_values=(8,), n_per_pe=100, baselines=("mergesort",),
            node_size=2, repetitions=1, runner=runner,
        )
        algos = {row["algorithm"] for row in rows}
        assert algos == {"ams", "mergesort"}
        for row in rows:
            assert row["time_s"] > 0
            assert row["workload"] == "uniform"

    def test_workload_axis(self, runner):
        rows = comparison.comparison_rows(
            p_values=(8,), n_per_pe=100, baselines=("samplesort",),
            node_size=2, repetitions=1, workload="staggered", runner=runner,
        )
        assert rows and all(row["workload"] == "staggered" for row in rows)


class TestCLI:
    def test_registry_covers_all_figures(self):
        assert set(EXPERIMENTS) >= {"table1", "table2", "fig7", "fig8",
                                    "fig10", "fig11", "fig12", "sec73"}

    def test_main_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out

    def test_main_workload_flag(self, capsys):
        assert main(["table1", "--workload", "zipf"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_main_unknown_experiment(self, capsys):
        # Every name is checked before the first experiment runs.
        with pytest.raises(SystemExit) as exc:
            main(["table1", "does-not-exist"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown experiment 'does-not-exist'" in captured.err

    def test_paper_scale_is_campaign_only(self):
        with pytest.raises(SystemExit):
            main(["table2", "--scale", "paper"])
