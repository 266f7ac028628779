"""Tests for :mod:`repro.experiments.harness`."""

from dataclasses import replace

import pytest

from repro.experiments import campaign as cm
from repro.experiments.harness import (
    PAPER_TABLE2_SECONDS,
    SCALE_PROFILES,
    scale_profile,
)


class TestScaleProfiles:
    def test_known_profiles(self):
        for name in ("quick", "medium", "large"):
            profile = scale_profile(name)
            assert len(profile["p_values"]) >= 2
            assert len(profile["n_per_pe_values"]) >= 2

    def test_unknown_profile(self):
        with pytest.raises(KeyError):
            scale_profile("gigantic")

    def test_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert scale_profile() == dict(SCALE_PROFILES["quick"])
        monkeypatch.setenv("REPRO_SCALE", "medium")
        assert scale_profile() == dict(SCALE_PROFILES["medium"])

    def test_paper_reference_numbers_present(self):
        assert PAPER_TABLE2_SECONDS[10**5][512] == pytest.approx(0.0228)
        assert PAPER_TABLE2_SECONDS[10**7][32768] == pytest.approx(6.0932)

    def test_tiny_profile_supports_multilevel(self):
        profile = scale_profile("tiny")
        assert all(p > profile["node_size"] for p in profile["p_values"])

    def test_paper_profile_reaches_the_papers_machine(self):
        profile = scale_profile("paper")
        assert max(profile["p_values"]) == 32768
        assert profile["engine"] == "flat"
        assert profile["reference_max_p"] == 1024


def _cell(**fields):
    """A finalized campaign cell on the laptop preset with 2-PE nodes."""
    spec = {"experiment": "weak_scaling", "machine": "laptop", "node_size": 2}
    spec.update(fields)
    return cm.finalize_cell(cm.CampaignCell(**spec))


def _aggregate(cells):
    return cm.aggregate_cells(cells, {cm.cell_key(c): cm.run_cell(c) for c in cells})


class TestExperimentRunner:
    """Single configured runs and small grids, each executed as campaign
    cells and reduced by the campaign's aggregators (the one way the
    package runs an experiment)."""

    def test_run_once(self):
        summary = cm.run_cell(_cell(algorithm="ams", p=8, n_per_pe=100, levels=2))
        assert summary["algorithm"] == "ams"
        assert summary["p"] == 8
        assert summary["total_time_s"] > 0

    def test_run_aggregates(self):
        cells = [
            _cell(algorithm="rlm", p=4, n_per_pe=80, levels=1, repetition=rep)
            for rep in range(2)
        ]
        summaries = {cm.cell_key(c): cm.run_cell(c) for c in cells}
        assert {s["algorithm"] for s in summaries.values()} == {"rlm"}
        (row,) = cm.aggregate_cells(cells, summaries)["weak_scaling"]["rows"]
        assert row["time_min_s"] <= row["time_median_s"] <= row["time_max_s"]
        assert "phase_local_sort" in row

    def test_run_once_reference_engine_matches_flat(self):
        cell = _cell(algorithm="ams", p=8, n_per_pe=100, levels=2)
        ref = cm.finalize_cell(replace(cell, engine="reference"))
        assert ref.seed == cell.seed
        assert cm.run_cell(cell) == cm.run_cell(ref)

    def test_run_with_sampling_overrides(self):
        cell = _cell(
            experiment="overpartitioning", series="fig10", algorithm="ams", p=4,
            n_per_pe=200, levels=1, overpartitioning=4, oversampling=2.0,
            samples_per_pe=8,
        )
        (row,) = _aggregate([cell])["overpartitioning"]["fig10"]
        assert (row["b"], row["a"]) == (4, 2.0)
        assert row["imbalance"] >= 0

    def test_best_level_time(self):
        cells = [_cell(algorithm="ams", p=8, n_per_pe=100, levels=k) for k in (1, 2)]
        table = _aggregate(cells)["weak_scaling"]
        (best,) = table["best"]
        assert best["best_levels"] in (1, 2)
        assert best["time_median_s"] == min(r["time_median_s"] for r in table["rows"])

    def test_baseline_algorithms_supported(self):
        cells = [
            _cell(experiment="comparison", algorithm=algo, p=4, n_per_pe=50, levels=1)
            for algo in ("ams", "samplesort", "mergesort", "quicksort")
        ]
        rows = _aggregate(cells)["comparison"]["rows"]
        assert [r["algorithm"] for r in rows] == [
            "ams", "samplesort", "mergesort", "quicksort"
        ]
        for row in rows:
            assert row["time_s"] > 0
            assert row["slowdown_vs_ams"] > 0

    def test_run_grid(self):
        cells = [_cell(algorithm="ams", p=4, n_per_pe=50, levels=k) for k in (1, 2)]
        rows = _aggregate(cells)["weak_scaling"]["rows"]
        assert [r["levels"] for r in rows] == [1, 2]
