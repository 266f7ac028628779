"""The serial experiment names are views of the campaign.

Every serial name prints one section of a serial, uncached campaign run on a
single workload.  These tests pin each view to the golden traces, check the
paper's reference tables printed next to it, and check each experiment's
rows for the effect the paper reports.
"""

import json
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis.tables import format_table
from repro.experiments import campaign as cm
from repro.experiments.cli import EXPERIMENTS, main
from repro.experiments.harness import (
    PAPER_P_VALUES,
    PAPER_TABLE1,
    PAPER_TABLE2_SECONDS,
    paper_reference_rows,
    scale_profile,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

#: The golden file and section each serial name prints.
GOLDEN_SECTIONS = {
    "table1": ("level_table", "rows"),
    "table2": ("weak_scaling", "best"),
    "fig7": ("slowdown", "rows"),
    "fig8": ("weak_scaling", "rows"),
    "fig10": ("overpartitioning", "fig10"),
    "fig11": ("overpartitioning", "fig11"),
    "fig12": ("variance", "rows"),
    "sec73": ("comparison", "rows"),
    "faults": ("faults", "rows"),
}


def _block(out, name):
    """The text printed under ``=== name ===``, up to the next view."""
    start = out.index(f"=== {name} ===\n")
    end = out.find("\n=== ", start + 1)
    return out[start:] if end < 0 else out[start:end + 1]


def _table(block):
    """The view's own table: its title line up to the blank line ending it."""
    start = block.index("\n") + 1
    return block[start:block.index("\n\n", start) + 1]


def _body(text, name):
    """The data lines of a view's own table."""
    return _table(_block(text, name)).splitlines()[3:]


def _golden_rows(name):
    experiment, section = GOLDEN_SECTIONS[name]
    golden = json.loads((GOLDEN_DIR / f"{experiment}.json").read_text())
    return [row for row in golden[section] if row["workload"] == "uniform"]


def _assert_prints(out, name, rows):
    """The view prints exactly ``rows``: every row, every field, nothing else."""
    printed = _table(_block(out, name)).splitlines()[1:]
    columns = printed[0].split()
    assert sorted(columns) == sorted(rows[0])
    assert printed == format_table(rows, columns=columns).splitlines()


@pytest.fixture(scope="module")
def tiny():
    """The tiny profile's experiments on the uniform workload alone."""
    summary, _ = cm.run_campaign(
        "tiny",
        experiments=("slowdown", "overpartitioning", "variance", "comparison"),
        workloads=("uniform",),
    )
    return summary["experiments"]


class TestLevelTable:
    def test_rows_match_paper_for_multilevel(self):
        summary, _ = cm.run_campaign(
            "tiny", experiments=("level_table",), workloads=("uniform",)
        )
        rows = summary["experiments"]["level_table"]["rows"]
        assert {row["k"] for row in rows} == {1, 2, 3}
        for row in rows:
            if row["k"] == 1:
                continue  # the paper's k=1 row lists the node size
            for p in PAPER_P_VALUES:
                assert row[f"p={p}"] == PAPER_TABLE1[row["k"]][p][row["level"] - 1]

    def test_run_outputs_text(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        # The paper's table is printed after ours, one row per (k, level).
        reference = [
            {"k": k, "level": level + 1,
             **{f"p={p}": by_p[p][level] for p in PAPER_P_VALUES}}
            for k, by_p in sorted(PAPER_TABLE1.items())
            for level in range(k)
        ]
        assert len(reference) == 6
        block = _block(out, "table1")
        assert block.index("Table 1 —") < block.index("Paper Table 1")
        assert format_table(reference) in block.split("Paper Table 1", 1)[1]


class TestWeakScaling:
    def test_rows_and_reductions(self, capsys, monkeypatch):
        # Table 2 and Figure 8 are two sections of one weak-scaling sweep,
        # which runs each of its cells once.
        runs = Counter()
        real = cm.run_cell

        def counting(cell):
            runs[cm.cell_key(cell)] += 1
            return real(cell)

        monkeypatch.setattr(cm, "run_cell", counting)
        assert main(["table2", "fig8", "--scale", "tiny"]) == 0
        cells = cm.expand_campaign(
            scale_profile("tiny"), experiments=("weak_scaling",),
            workloads=("uniform",),
        )
        assert set(runs) == {cm.cell_key(cell) for cell in cells}
        assert set(runs.values()) == {1}
        out = capsys.readouterr().out
        _assert_prints(out, "table2", _golden_rows("table2"))
        _assert_prints(out, "fig8", _golden_rows("fig8"))

    def test_paper_reference_rows(self, capsys):
        rows = paper_reference_rows()
        assert len(rows) == 12
        assert rows[0] == {"n_per_pe": 10**5, "p": 512, "paper_time_s": 0.0228}
        assert {row["paper_time_s"] for row in rows} == {
            seconds for by_p in PAPER_TABLE2_SECONDS.values() for seconds in by_p.values()
        }
        assert main(["table2", "--scale", "tiny"]) == 0
        assert format_table(rows) in _block(capsys.readouterr().out, "table2")


class TestSlowdown:
    def test_rows_have_ratio(self, tiny):
        rows = tiny["slowdown"]["rows"]
        profile = scale_profile("tiny")
        # One row per (p, n/p) point of the grid, each with both algorithms.
        assert len(rows) == len(profile["p_values"]) * len(profile["n_per_pe_values"])
        for row in rows:
            assert row["ams_time_s"] > 0 and row["rlm_time_s"] > 0
            assert row["slowdown"] == pytest.approx(row["rlm_time_s"] / row["ams_time_s"])


class TestOverpartitioning:
    def test_imbalance_sweep_shape_effect(self, tiny):
        rows = tiny["overpartitioning"]["fig10"]
        by_key = {(row["b"], row["samples_per_pe"]): row["imbalance"] for row in rows}
        # For the same number of samples, overpartitioning is not (much) worse.
        assert by_key[(8, 64)] <= by_key[(1, 64)] + 0.25
        assert by_key[(16, 256)] <= by_key[(1, 256)] + 0.25

    def test_walltime_sweep(self, tiny):
        rows = tiny["overpartitioning"]["fig11"]
        assert {row["a"] for row in rows} == {1.0, 8.0, 16.0}
        for row in rows:
            assert 0 < row["sampling_time_s"] < row["time_median_s"]

    def test_workload_axis(self, capsys):
        assert main(["fig10", "--scale", "tiny", "--workload", "duplicates"]) == 0
        body = _body(capsys.readouterr().out, "fig10")
        assert body and all(line.startswith("duplicates ") for line in body)


class TestVariance:
    def test_rows(self, tiny):
        rows = tiny["variance"]["rows"]
        assert rows
        for row in rows:
            assert row["runs"] == 3
            assert row["workload"] == "uniform"
            assert row["min_s"] <= row["median_s"] <= row["max_s"]

    def test_workload_axis(self, capsys):
        assert main(["fig12", "--scale", "tiny", "--workload", "zipf"]) == 0
        body = _body(capsys.readouterr().out, "fig12")
        assert body and all(line.startswith("zipf ") for line in body)


class TestComparison:
    def test_single_level_slowdowns_reported(self, tiny):
        rows = tiny["comparison"]["rows"]
        for p in scale_profile("tiny")["p_values"]:
            at_p = {row["algorithm"]: row for row in rows if row["p"] == p}
            assert set(at_p) == {"ams", "mergesort", "samplesort", "quicksort"}
            ams_time = at_p["ams"]["time_s"]
            for row in at_p.values():
                assert row["slowdown_vs_ams"] == pytest.approx(row["time_s"] / ams_time)

    def test_workload_axis(self, capsys):
        assert main(["sec73", "--scale", "tiny", "--workload", "staggered"]) == 0
        body = _body(capsys.readouterr().out, "sec73")
        assert body and all(line.startswith("staggered ") for line in body)


class TestCLI:
    def test_registry_covers_all_figures(self):
        assert set(EXPERIMENTS) >= {"table1", "table2", "fig7", "fig8",
                                    "fig10", "fig11", "fig12", "sec73"}
        assert set(EXPERIMENTS) == set(GOLDEN_SECTIONS)
        assert {view.experiment for view in EXPERIMENTS.values()} == set(
            cm.CAMPAIGN_EXPERIMENTS
        )

    @pytest.mark.parametrize("name", sorted(GOLDEN_SECTIONS))
    def test_view_prints_the_golden_rows(self, capsys, name):
        assert main([name, "--scale", "tiny"]) == 0
        _assert_prints(capsys.readouterr().out, name, _golden_rows(name))

    def test_faults_view_prints_the_golden_rungs(self, capsys):
        rungs = ("", "droprate:0.2")
        assert main(["faults", "--scale", "tiny", "--faults", *rungs]) == 0
        rows = [row for row in _golden_rows("faults") if row["faults"] in rungs]
        _assert_prints(capsys.readouterr().out, "faults", rows)

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

    def test_faults_flag_needs_the_faults_view(self, capsys):
        with pytest.raises(SystemExit):
            main(["table1", "--faults", "droprate:0.2"])
        assert "only valid with the 'faults' experiment" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["bogus:1", "droprate:1.0", "hiccups:10"])
    @pytest.mark.parametrize(
        "argv",
        [["faults", "--scale", "tiny"], ["campaign", "--profile", "tiny"]],
        ids=["faults", "campaign"],
    )
    def test_bad_fault_spec_is_a_usage_error(self, capsys, argv, spec):
        # Unknown keys and out-of-range rates exit with argparse's usage
        # error before any cell runs, not with a traceback.
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--faults", spec])
        assert exc.value.code == 2
        assert f"error: --faults {spec!r}: " in capsys.readouterr().err

    def test_paper_scale_follows_the_campaign_rules(self, monkeypatch):
        # The serial view honours the profile keys that make the paper's
        # machine feasible: flat engine, Table 1 level policy, seeded
        # determinism re-runs and no validation above p = 1024.
        seen = []

        def record(cells, **kwargs):
            seen.extend(cells)
            return {}, {"quarantined": 0}

        monkeypatch.setattr(cm, "execute_cells", record)
        assert main(["table2", "--scale", "paper"]) == 0
        assert max(cell.p for cell in seen) == 32768
        for cell in seen:
            assert cell.engine == "flat"
            assert cell.levels == (3 if cell.p > 8192 else 2)
            assert cell.validate == (cell.p <= 1024)
            assert cell.determinism_check == (cell.p > 1024)
