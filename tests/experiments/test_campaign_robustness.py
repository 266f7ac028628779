"""Campaign fault tolerance: checksummed cache, retry/quarantine, chaos.

The contract under test is the robustness headline: infrastructure faults
(corrupted cache bytes, crashing worker processes, wedged cells) change
*wall-clock accounting only* — the aggregated campaign summary stays
byte-identical to a fault-free serial run, and every recovery event is
counted in the stats dict instead of silently absorbed.
"""

import json
import os

import pytest

from repro.chaos import ChaosPlan, ChaosState, parse_chaos_spec
from repro.experiments import campaign as cm


#: Two weak-scaling cells: small enough that a chaos run finishes in
#: seconds, non-degenerate enough to aggregate.
NANO_PROFILE = {
    "name": "nano",
    "p_values": (4, 8),
    "n_per_pe_values": (30,),
    "repetitions": 1,
    "node_size": 2,
    "experiments": ("weak_scaling",),
    "workloads": ("uniform",),
}


def nano_cells():
    return cm.expand_campaign(NANO_PROFILE)


def run_nano(**kw):
    return cm.run_campaign(NANO_PROFILE, **kw)


class TestCacheChecksum:
    def _seed_cache(self, tmp_path):
        cache = cm.CellCache(tmp_path)
        cell = nano_cells()[0]
        key = cm.cell_key(cell)
        summary = cm.run_cell(cell)
        cache.put(key, cell, summary)
        return cache, key, summary

    def test_round_trip_is_a_hit(self, tmp_path):
        cache, key, summary = self._seed_cache(tmp_path)
        got, status = cache.get_with_status(key)
        assert status == "hit"
        assert got == summary

    def test_bit_flip_is_detected_as_corrupt(self, tmp_path):
        cache, key, _ = self._seed_cache(tmp_path)
        path = cache.path(key)
        raw = bytearray(path.read_bytes())
        # Flip bytes inside the *summary* payload, not the JSON scaffolding:
        # the document still parses, only the checksum can catch it.
        doc = json.loads(bytes(raw))
        doc["summary"][next(iter(doc["summary"]))] = "tampered"
        path.write_text(json.dumps(doc))
        assert cache.get_with_status(key) == (None, "corrupt")

    def test_truncation_is_detected_as_corrupt(self, tmp_path):
        cache, key, _ = self._seed_cache(tmp_path)
        path = cache.path(key)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        assert cache.get_with_status(key) == (None, "corrupt")

    def test_binary_garbage_is_corrupt_not_an_error(self, tmp_path):
        cache, key, _ = self._seed_cache(tmp_path)
        cache.path(key).write_bytes(bytes(range(256)))
        assert cache.get_with_status(key) == (None, "corrupt")

    def test_pre_checksum_document_is_stale_not_corrupt(self, tmp_path):
        cache, key, _ = self._seed_cache(tmp_path)
        path = cache.path(key)
        doc = json.loads(path.read_text())
        del doc["checksum"]  # a cache written before this PR
        path.write_text(json.dumps(doc))
        # Legacy entries recompute silently: no corruption alarm.
        assert cache.get_with_status(key) == (None, "stale")

    def test_corrupt_entries_are_counted_warned_and_recomputed(self, tmp_path):
        healthy, _ = run_nano(cache_dir=tmp_path)
        cache = cm.CellCache(tmp_path)
        victim = cm.cell_key(nano_cells()[0])
        path = cache.path(victim)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        lines = []
        summary, stats = run_nano(cache_dir=tmp_path, progress=lines.append)
        assert stats["cache_corrupt"] == 1
        assert stats["executed"] == 1  # only the damaged cell recomputed
        assert stats["cache_hits"] == len(nano_cells()) - 1
        assert cm.campaign_to_json(summary) == cm.campaign_to_json(healthy)
        warnings = [l for l in lines if l.startswith("warning: corrupt cache")]
        assert len(warnings) == 1
        assert str(path) in warnings[0]
        # The recomputed entry is intact again.
        assert cache.get_with_status(victim)[1] == "hit"


class TestRetryAndQuarantine:
    def test_transient_failure_is_retried_and_recovers(self, monkeypatch):
        cells = nano_cells()
        target = cm.cell_key(cells[0])
        real = cm.run_cell
        failed = []

        def flaky(cell):
            if cm.cell_key(cell) == target and not failed:
                failed.append(True)
                raise OSError("transient infrastructure hiccup")
            return real(cell)

        monkeypatch.setattr(cm, "run_cell", flaky)
        summaries, stats = cm.execute_cells(cells, retries=2)
        assert stats["cell_retries"] == 1
        assert stats["quarantined"] == 0
        assert target in summaries
        # Retried output is byte-identical: pure cells don't care how many
        # times the infrastructure dropped them.
        monkeypatch.setattr(cm, "run_cell", real)
        clean, _ = cm.execute_cells(cells)
        assert summaries == clean

    def test_persistent_failure_is_quarantined_not_fatal(self, monkeypatch):
        cells = nano_cells()
        target = cm.cell_key(cells[0])
        real = cm.run_cell

        def doomed(cell):
            if cm.cell_key(cell) == target:
                raise RuntimeError("deterministic cell failure")
            return real(cell)

        monkeypatch.setattr(cm, "run_cell", doomed)
        lines = []
        summaries, stats = cm.execute_cells(
            cells, retries=1, progress=lines.append
        )
        assert stats["quarantined"] == 1
        assert stats["cell_retries"] == 1  # retried once, then given up
        [record] = stats["quarantined_cells"]
        assert record["key"] == target
        assert "deterministic cell failure" in record["reason"]
        assert target not in summaries
        assert any(l.startswith("warning: quarantined") for l in lines)
        # Aggregation tolerates the hole instead of KeyError-ing.
        rows = cm.aggregate_cells(cells, summaries)
        assert rows  # the surviving cells still produce rows

    def test_comparison_without_ams_rows_is_valid_json(self):
        # A point whose AMS cells were all quarantined has no slowdown
        # baseline: the baselines' slowdown_vs_ams is null, never NaN.
        cells = cm.expand_campaign(
            NANO_PROFILE, experiments=("comparison",), workloads=("uniform",)
        )
        summaries, _ = cm.execute_cells(cells)
        for cell in cells:
            if cell.algorithm == "ams":
                del summaries[cm.cell_key(cell)]
        rows = cm.aggregate_cells(cells, summaries)["comparison"]["rows"]
        assert rows and all(row["algorithm"] != "ams" for row in rows)

        def reject(token):
            raise ValueError(f"invalid JSON constant {token}")

        doc = json.loads(cm.campaign_to_json({"rows": rows}), parse_constant=reject)
        assert all(row["slowdown_vs_ams"] is None for row in doc["rows"])

    def test_strict_mode_fails_fast(self, monkeypatch):
        cells = nano_cells()

        def doomed(cell):
            raise RuntimeError("first failure")

        monkeypatch.setattr(cm, "run_cell", doomed)
        with pytest.raises(RuntimeError, match="first failure"):
            cm.execute_cells(cells, strict=True)

    def test_cell_wall_clock_timeout_quarantines(self, monkeypatch):
        import time

        cells = nano_cells()[:1]

        def wedged(cell):
            time.sleep(30)

        monkeypatch.setattr(cm, "run_cell", wedged)
        summaries, stats = cm.execute_cells(
            cells, retries=0, cell_timeout_s=0.2
        )
        assert summaries == {}
        assert stats["quarantined"] == 1
        [record] = stats["quarantined_cells"]
        assert "wall-clock budget" in record["reason"]

    def test_worker_crash_rebuilds_pool_and_quarantines(self, monkeypatch):
        # Linux fork start method: pool workers inherit the patched module.
        cells = nano_cells()[:1]
        target = cm.cell_key(cells[0])

        def crasher(cell):
            os._exit(17)  # simulates a SIGKILL'd / OOM-killed worker

        monkeypatch.setattr(cm, "run_cell", crasher)
        summaries, stats = cm.execute_cells(cells, jobs=2, retries=1)
        assert summaries == {}
        assert stats["pool_rebuilds"] == 2  # initial attempt + one retry
        assert stats["quarantined"] == 1
        assert stats["quarantined_cells"][0]["key"] == target
        assert "BrokenProcessPool" in stats["quarantined_cells"][0]["reason"]

    def test_worker_crash_in_strict_mode_raises(self, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        cells = nano_cells()[:1]
        monkeypatch.setattr(cm, "run_cell", lambda cell: os._exit(17))
        with pytest.raises(BrokenProcessPool):
            cm.execute_cells(cells, jobs=2, strict=True)


class TestChaosInjection:
    def test_parse_chaos_spec_grammar(self):
        assert parse_chaos_spec(None) is None
        assert parse_chaos_spec("") is None
        plan = parse_chaos_spec("seed:7,corrupt:0.5,trunc:0.1")
        assert plan == ChaosPlan(seed=7, corrupt_rate=0.5, truncate_rate=0.1)
        assert plan.enabled
        assert not ChaosPlan(seed=3).enabled
        with pytest.raises(ValueError, match="unknown key 'frobnicate'"):
            parse_chaos_spec("frobnicate:1")
        # An old worker-kill spec must fail loudly, not run a healthy campaign.
        with pytest.raises(ValueError, match="unknown key 'kill'"):
            parse_chaos_spec("seed:7,kill:0.25")
        with pytest.raises(ValueError, match="corrupt needs a number"):
            parse_chaos_spec("corrupt:lots")
        with pytest.raises(ValueError, match=r"must be a rate in \[0, 1\]"):
            parse_chaos_spec("corrupt:1.5")
        with pytest.raises(ValueError, match="exceed 1"):
            parse_chaos_spec("corrupt:0.7,trunc:0.7")

    def test_cache_corruption_keyed_by_name(self, tmp_path):
        plan = parse_chaos_spec("seed:5,trunc:0.5,corrupt:0.5")
        path = tmp_path / "abcdef.json"
        path.write_text("x" * 100)
        kind_one = ChaosState(plan).maybe_corrupt_cache(path)
        path.write_text("x" * 100)
        kind_two = ChaosState(plan).maybe_corrupt_cache(path)
        assert kind_one == kind_two  # same name, same draw
        assert kind_one in ("truncate", "corrupt")
        assert path.read_bytes() != b"x" * 100


class TestChaosByteIdentity:
    def test_chaos_corrupted_cache_recovers_byte_identically(
        self, tmp_path, monkeypatch
    ):
        healthy, _ = run_nano()
        n = len(nano_cells())
        # Chaos pass: every freshly written cache entry is attacked
        # (trunc + corrupt rates sum to 1).  The in-memory summary must be
        # unaffected — corruption lands after the cell was recorded.
        monkeypatch.setenv("REPRO_CHAOS", "seed:9,trunc:0.5,corrupt:0.5")
        attacked, stats = run_nano(cache_dir=tmp_path)
        monkeypatch.delenv("REPRO_CHAOS")
        assert stats["executed"] == n
        assert cm.campaign_to_json(attacked) == cm.campaign_to_json(healthy)
        # Healthy resume: every damaged entry is a *detected*, counted miss;
        # the recomputed campaign is still byte-identical.
        recovered, stats = run_nano(cache_dir=tmp_path)
        assert stats["cache_corrupt"] == n
        assert stats["cache_hits"] == 0
        assert stats["executed"] == n
        assert cm.campaign_to_json(recovered) == cm.campaign_to_json(healthy)
        # And the rewritten cache is clean: a third run is all hits.
        final, stats = run_nano(cache_dir=tmp_path)
        assert stats["cache_hits"] == n
        assert stats["executed"] == 0
        assert cm.campaign_to_json(final) == cm.campaign_to_json(healthy)
