"""Tests for :mod:`repro.experiments.campaign`.

Covers the cell model (deterministic seeds, content-hash keys), the disk
cache (round-trip, corruption, RNG-version invalidation), campaign expansion
(grids, the workload axis, the ``paper`` profile's flat-only rules) and the
headline property: sharded execution (``jobs > 1``) produces summaries
byte-identical to serial execution, including after a simulated interrupt
resumed from the cache directory.
"""

import json

import pytest

from repro.core.config import level_plan
from repro.experiments import campaign as cm
from repro.experiments.harness import PAPER_P_VALUES, scale_profile


#: Small enough that a full campaign runs in well under a second.
MICRO_PROFILE = {
    "name": "micro",
    "p_values": (4, 8),
    "n_per_pe_values": (30, 60),
    "repetitions": 2,
    "node_size": 2,
}


class TestCellSpec:
    def test_seed_is_deterministic_and_identity_sensitive(self):
        cell = cm.finalize_cell(cm.CampaignCell(experiment="weak_scaling", p=8))
        again = cm.finalize_cell(cm.CampaignCell(experiment="weak_scaling", p=8))
        other_rep = cm.finalize_cell(
            cm.CampaignCell(experiment="weak_scaling", p=8, repetition=1)
        )
        other_wl = cm.finalize_cell(
            cm.CampaignCell(experiment="weak_scaling", p=8, workload="zipf")
        )
        assert cell.seed == again.seed
        assert cell.seed != other_rep.seed
        assert cell.seed != other_wl.seed

    def test_round_trip(self):
        cell = cm.finalize_cell(
            cm.CampaignCell(experiment="overpartitioning", oversampling=2.0,
                            overpartitioning=8, samples_per_pe=16)
        )
        assert cm.CampaignCell.from_dict(cell.to_dict()) == cell

    def test_execution_details_do_not_change_the_seed(self):
        from dataclasses import replace

        cell = cm.finalize_cell(cm.CampaignCell(experiment="weak_scaling", p=8))
        for change in ({"engine": "reference"}, {"validate": False},
                       {"determinism_check": True}):
            twin = cm.finalize_cell(replace(cell, **change))
            assert twin.seed == cell.seed, change

    def test_engines_agree_on_a_finalized_cell(self):
        from dataclasses import replace

        cell = cm.finalize_cell(cm.CampaignCell(
            experiment="weak_scaling", p=6, n_per_pe=50, levels=2,
            node_size=2, workload="duplicates",
        ))
        ref = cm.finalize_cell(replace(cell, engine="reference"))
        assert cm.run_cell(cell) == cm.run_cell(ref)

    def test_key_depends_on_spec_and_rng_version(self, monkeypatch):
        cell = cm.finalize_cell(cm.CampaignCell(experiment="variance", p=8))
        key = cm.cell_key(cell)
        assert key == cm.cell_key(cell)
        other = cm.finalize_cell(cm.CampaignCell(experiment="variance", p=16))
        assert key != cm.cell_key(other)
        monkeypatch.setattr(cm, "RNG_VERSION", "different-rng-generation")
        assert key != cm.cell_key(cell)


class TestCellCache:
    def test_round_trip(self, tmp_path):
        cache = cm.CellCache(tmp_path)
        cell = cm.finalize_cell(cm.CampaignCell(experiment="weak_scaling"))
        key = cm.cell_key(cell)
        assert cache.get(key) is None
        cache.put(key, cell, {"total_time_s": 1.5})
        assert cache.get(key) == {"total_time_s": 1.5}

    def test_corrupt_file_is_a_miss(self, tmp_path):
        cache = cm.CellCache(tmp_path)
        cell = cm.finalize_cell(cm.CampaignCell(experiment="weak_scaling"))
        key = cm.cell_key(cell)
        cache.put(key, cell, {"total_time_s": 1.0})
        cache.path(key).write_text("{not json")
        assert cache.get(key) is None

    def test_rng_version_mismatch_invalidates(self, tmp_path):
        cache = cm.CellCache(tmp_path)
        cell = cm.finalize_cell(cm.CampaignCell(experiment="weak_scaling"))
        key = cm.cell_key(cell)
        cache.put(key, cell, {"total_time_s": 1.0})
        doc = json.loads(cache.path(key).read_text())
        doc["rng_version"] = "older-generation"
        cache.path(key).write_text(json.dumps(doc))
        assert cache.get(key) is None

    def test_schema_incomplete_doc_is_a_miss(self, tmp_path):
        cache = cm.CellCache(tmp_path)
        cell = cm.finalize_cell(cm.CampaignCell(experiment="weak_scaling"))
        key = cm.cell_key(cell)
        cache.path(key).parent.mkdir(parents=True, exist_ok=True)
        cache.path(key).write_text(json.dumps({"rng_version": cm.RNG_VERSION}))
        assert cache.get(key) is None
        cache.path(key).write_text(json.dumps([1, 2, 3]))
        assert cache.get(key) is None


class TestExpansion:
    def test_every_experiment_and_workload_present(self):
        cells = cm.expand_campaign(MICRO_PROFILE)
        experiments = {c.experiment for c in cells}
        assert experiments == set(cm.CAMPAIGN_EXPERIMENTS)
        for experiment in cm.CAMPAIGN_EXPERIMENTS:
            workloads = {c.workload for c in cells if c.experiment == experiment}
            assert workloads == set(cm.CAMPAIGN_WORKLOADS), experiment

    def test_primary_workload_gets_the_full_grid(self):
        cells = cm.expand_campaign(MICRO_PROFILE, experiments=("weak_scaling",))
        uniform = [c for c in cells if c.workload == "uniform"]
        zipf = [c for c in cells if c.workload == "zipf"]
        assert {c.n_per_pe for c in uniform} == {30, 60}
        assert {c.n_per_pe for c in zipf} == {30}  # trimmed secondary grid
        assert len(zipf) < len(uniform)

    def test_unique_cells(self):
        cells = cm.expand_campaign(MICRO_PROFILE)
        keys = [cm.cell_key(c) for c in cells]
        assert len(keys) == len(set(keys))

    def test_unknown_experiment_or_workload(self):
        with pytest.raises(KeyError):
            cm.expand_campaign(MICRO_PROFILE, experiments=("fig99",))
        with pytest.raises(KeyError):
            cm.expand_campaign(MICRO_PROFILE, workloads=("fractal",))

    def test_large_comparison_caps_mergesort(self):
        """Mergesort's p * (p - 1) selection windows stop it at p = 4,096;
        the other algorithms still reach the large profile's p = 8,192."""
        cells = cm.expand_campaign(
            scale_profile("large"), experiments=("comparison",)
        )
        merge_ps = {c.p for c in cells if c.algorithm == "mergesort"}
        assert merge_ps and max(merge_ps) <= cm.MERGESORT_MAX_P == 4096
        for algorithm in ("ams", "samplesort", "quicksort"):
            assert 8192 in {c.p for c in cells if c.algorithm == algorithm}
        assert "mergesort only up to p = 4096" in cm._SECTION_TITLES["comparison"]

    def test_paper_profile_rules(self):
        profile = scale_profile("paper")
        cells = cm.expand_campaign(profile)
        # The paper profile defaults to the weak-scaling sweep, uniform only.
        assert {c.experiment for c in cells} == {"weak_scaling"}
        assert {c.workload for c in cells} == {"uniform"}
        assert {c.engine for c in cells} == {"flat"}
        largest = [c for c in cells if c.p == 32768]
        assert largest, "paper profile must reach p=32768"
        for cell in largest:
            assert cell.levels == 3  # Table 1's three-level plan at 2^15
            assert cell.determinism_check  # bench-style flat re-run pin
            assert not cell.validate
        small = [c for c in cells if c.p == 512]
        assert small and all(c.levels == 2 for c in small)
        assert all(c.validate and not c.determinism_check for c in small)
        # Two levels everywhere below the largest machine (Table 1 policy).
        assert {c.levels for c in cells if c.p in (2048, 8192)} == {2}


class TestRunCell:
    def test_plan_cell_matches_level_plan(self):
        cell = cm.finalize_cell(cm.CampaignCell(
            experiment="level_table", kind="plan", algorithm="plan",
            levels=2, node_size=16, validate=False,
        ))
        summary = cm.run_cell(cell)
        for p in PAPER_P_VALUES:
            assert summary["plan_by_p"][str(p)] == level_plan(p, 2, node_size=16)

    def test_sort_cell_summary_is_json_safe_and_deterministic(self):
        cell = cm.finalize_cell(cm.CampaignCell(
            experiment="weak_scaling", p=8, n_per_pe=50, levels=2,
            node_size=2, workload="duplicates",
        ))
        summary = cm.run_cell(cell)
        assert json.dumps(summary)  # all plain scalars
        assert summary["total_time_s"] > 0
        assert summary["p"] == 8
        assert cm.run_cell(cell) == summary

    def test_determinism_check_cell_runs(self):
        cell = cm.finalize_cell(cm.CampaignCell(
            experiment="weak_scaling", p=8, n_per_pe=40, levels=1,
            node_size=2, determinism_check=True,
        ))
        summary = cm.run_cell(cell)
        assert summary["total_time_s"] > 0


class TestShardedEqualsSerial:
    """Satellite: sharded and serial campaigns are byte-identical, and an
    interrupted campaign resumed from the cache completes identically."""

    EXPERIMENTS = ("weak_scaling", "variance")
    WORKLOADS = ("uniform", "duplicates")

    def _run(self, jobs, cache_dir=None, resume=True):
        summary, stats = cm.run_campaign(
            profile=MICRO_PROFILE,
            experiments=self.EXPERIMENTS,
            workloads=self.WORKLOADS,
            jobs=jobs,
            cache_dir=cache_dir,
            resume=resume,
        )
        return cm.campaign_to_json(summary), stats

    def test_sharded_identical_to_serial_and_resumes_after_interrupt(self, tmp_path):
        serial_json, serial_stats = self._run(jobs=1)
        assert serial_stats["executed"] == serial_stats["cells"]

        cache_dir = tmp_path / "cache"
        sharded_json, sharded_stats = self._run(jobs=4, cache_dir=cache_dir)
        assert sharded_json == serial_json
        assert sharded_stats["executed"] == serial_stats["cells"]

        # Immediate re-run: everything from cache, zero sort executions.
        rerun_json, rerun_stats = self._run(jobs=4, cache_dir=cache_dir)
        assert rerun_json == serial_json
        assert rerun_stats["executed"] == 0
        assert rerun_stats["cache_hits"] == serial_stats["cells"]

        # Simulated interrupt: drop half the cached cells; the resumed run
        # recomputes exactly the missing ones and lands on the same bytes.
        cached_files = sorted(cache_dir.glob("*.json"))
        dropped = cached_files[::2]
        for path in dropped:
            path.unlink()
        resumed_json, resumed_stats = self._run(jobs=2, cache_dir=cache_dir)
        assert resumed_json == serial_json
        assert resumed_stats["executed"] == len(dropped)
        assert resumed_stats["cache_hits"] == serial_stats["cells"] - len(dropped)

    def test_no_resume_ignores_cache(self, tmp_path):
        cache_dir = tmp_path / "cache"
        _, first = self._run(jobs=1, cache_dir=cache_dir)
        _, second = self._run(jobs=1, cache_dir=cache_dir, resume=False)
        assert second["executed"] == first["cells"]
        assert second["cache_hits"] == 0


class TestAggregation:
    @pytest.fixture(scope="class")
    def summary(self):
        summary, _ = cm.run_campaign(
            profile=MICRO_PROFILE,
            experiments=("weak_scaling", "slowdown", "comparison"),
            workloads=("uniform", "zipf"),
        )
        return summary

    def test_weak_scaling_best_reduction(self, summary):
        section = summary["experiments"]["weak_scaling"]
        best = section["best"]
        assert best
        rows = section["rows"]
        for entry in best:
            candidates = [
                r for r in rows
                if (r["workload"], r["n_per_pe"], r["p"])
                == (entry["workload"], entry["n_per_pe"], entry["p"])
            ]
            assert entry["time_median_s"] == min(r["time_median_s"] for r in candidates)

    def test_slowdown_ratio(self, summary):
        rows = summary["experiments"]["slowdown"]["rows"]
        assert rows
        for row in rows:
            assert row["slowdown"] == pytest.approx(
                row["rlm_time_s"] / row["ams_time_s"]
            )

    def test_comparison_has_all_algorithms_and_unit_ams_slowdown(self, summary):
        rows = summary["experiments"]["comparison"]["rows"]
        algos = {r["algorithm"] for r in rows}
        assert algos == {"ams", "mergesort", "samplesort", "quicksort"}
        for row in rows:
            if row["algorithm"] == "ams":
                assert row["slowdown_vs_ams"] == pytest.approx(1.0)

    def test_format_campaign_renders_every_section(self, summary):
        text = cm.format_campaign(summary)
        assert "Table 2" in text and "Figure 7" in text and "Section 7.3" in text


class TestCampaignCLI:
    def test_cli_campaign_writes_canonical_json(self, tmp_path, capsys):
        from repro.experiments.cli import main

        out = tmp_path / "campaign.json"
        rc = main([
            "campaign", "--profile", "tiny", "--experiments", "level_table",
            "--workloads", "uniform", "--no-cache", "--quiet",
            "--output", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["meta"]["profile"] == "tiny"
        assert "level_table" in doc["experiments"]
        assert "Table 1" in capsys.readouterr().out

    def test_cli_require_cached_rejects_no_cache_up_front(self):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit):
            main([
                "campaign", "--profile", "tiny", "--experiments", "level_table",
                "--workloads", "uniform", "--no-cache", "--quiet",
                "--require-cached",
            ])

    def test_cli_require_cached_fails_on_cold_cache(self, tmp_path):
        from repro.experiments.cli import main

        rc = main([
            "campaign", "--profile", "tiny", "--experiments", "level_table",
            "--workloads", "uniform", "--cache-dir", str(tmp_path / "cold"),
            "--quiet", "--require-cached",
        ])
        assert rc == 1

    def test_cli_require_cached_passes_on_rerun(self, tmp_path):
        from repro.experiments.cli import main

        cache = tmp_path / "cache"
        args = [
            "campaign", "--profile", "tiny", "--experiments", "level_table",
            "--workloads", "uniform", "--cache-dir", str(cache), "--quiet",
        ]
        assert main(args) == 0
        assert main(args + ["--require-cached"]) == 0
