"""Tests for :mod:`repro.dist.workspace` — arena mechanics, the
``cached_arange`` release hook, memory-regression budgets, and byte
identity of arena-on vs arena-off runs."""

import resource
import tracemalloc

import numpy as np
import pytest

from repro.core.config import AMSConfig
from repro.core.runner import run_on_machine
from repro.dist import flatops
from repro.dist.workspace import (
    NullArena,
    WorkspaceArena,
    get_arena,
    reset_arena,
    set_arena,
)
from repro.sim.machine import SimulatedMachine
from repro.workloads.generators import per_pe_workload


@pytest.fixture()
def arena():
    """A fresh arena installed as the process arena for the test."""
    a = WorkspaceArena("test")
    set_arena(a)
    yield a
    reset_arena()


class TestCheckoutRecycle:
    def test_recycle_reuses_the_same_buffer(self, arena):
        a = arena.empty(1000, np.int64)
        base = a.base
        arena.recycle(a)
        b = arena.empty(500, np.int64)
        assert b.base is base  # same pooled buffer, best-fit view
        assert b.size == 500

    def test_views_resolve_to_their_buffer(self, arena):
        a = arena.empty(1200, np.float64)
        reshaped = a[:1000].reshape(10, 100)
        arena.recycle(reshaped)
        assert arena.stats()["checked_out"] == 0
        assert arena.stats()["free_buffers"] == 1

    def test_double_recycle_is_a_noop(self, arena):
        a = arena.empty(100)
        arena.recycle(a)
        arena.recycle(a)  # must not double-insert
        assert arena.stats()["free_buffers"] == 1

    def test_foreign_arrays_are_ignored(self, arena):
        foreign = np.arange(50)
        arena.recycle(foreign)
        arena.recycle(None)
        assert arena.stats()["free_buffers"] == 0

    def test_zero_length_checkouts_bypass_the_pool(self, arena):
        a = arena.empty(0)
        assert a.size == 0
        assert arena.stats()["checked_out"] == 0
        arena.recycle(a)

    def test_zeros_and_full_initialise(self, arena):
        z = arena.zeros(64, np.int64)
        assert not z.any()
        arena.recycle(z)
        f = arena.full(64, 7, np.int32)
        assert (f == 7).all() and f.dtype == np.int32

    def test_distinct_dtypes_pool_separately(self, arena):
        a = arena.empty(100, np.int64)
        b = arena.empty(100, np.float64)
        assert a.dtype != b.dtype
        arena.recycle(a, b)
        assert arena.stats()["free_buffers"] == 2

    def test_geometric_growth_is_bounded(self, arena):
        a = arena.empty(1000)
        arena.recycle(a)
        b = arena.empty(1500)  # miss: retire the 1000er, grow to 2*1000
        assert b.base.size == 2000
        arena.recycle(b)
        c = arena.empty(10_000)  # far past 2x: sized by the request
        assert c.base.size == 10_000
        assert arena.stats()["free_buffers"] == 0  # the 2000er was retired


class TestReleaseHook:
    def test_release_drops_pooled_buffers(self, arena):
        arena.recycle(arena.empty(1 << 16))
        assert arena.stats()["owned_bytes"] > 0
        arena.release()
        s = arena.stats()
        assert s["owned_bytes"] == 0 and s["free_buffers"] == 0

    def test_checked_out_buffers_survive_release(self, arena):
        a = arena.empty(4096, np.int64)
        a.fill(3)
        arena.release()
        assert (a == 3).all()  # still usable
        arena.recycle(a)  # forgotten by the release: a no-op
        assert arena.stats()["free_buffers"] == 0

    def test_cached_arange_shrinks_after_release(self, arena):
        """Regression: the old per-dtype ramp cache could never release —
        one large touch pinned the high-water ramp for the process life."""
        big = flatops.cached_arange(1 << 18)
        assert big.size == 1 << 18
        before = arena.stats()["owned_bytes"]
        assert before >= (1 << 18) * 8
        arena.release()
        assert arena.stats()["owned_bytes"] == 0
        small = flatops.cached_arange(16)
        after = arena.stats()["owned_bytes"]
        assert after < before  # the cache actually shrank
        assert np.array_equal(small, np.arange(16))

    def test_cached_arange_is_readonly_and_correct(self, arena):
        r = flatops.cached_arange(100, np.int64)
        assert not r.flags.writeable
        assert np.array_equal(r, np.arange(100))

    def test_high_water_tracks_peak(self, arena):
        arena.recycle(arena.empty(1 << 14))
        peak = arena.stats()["high_water_bytes"]
        arena.release()
        assert arena.stats()["high_water_bytes"] == peak  # survives release

    def test_machine_release_workspace(self, arena):
        machine = SimulatedMachine(8, seed=0)
        assert machine.arena is arena
        arena.recycle(arena.empty(1024))
        machine.release_workspace()
        assert arena.stats()["owned_bytes"] == 0


class TestNullArena:
    def test_null_arena_allocates_fresh(self):
        null = NullArena()
        a = null.empty(100)
        b = null.empty(100)
        assert a.base is None and b.base is None
        null.recycle(a, b)  # no-ops
        null.release()
        assert null.stats()["owned_bytes"] == 0
        assert np.array_equal(null.arange(10), np.arange(10))
        assert not null.zeros(5).any()

    def test_default_is_pooling(self):
        reset_arena()
        try:
            assert isinstance(get_arena(), WorkspaceArena)
        finally:
            reset_arena()


class TestWorkspaceFlatops:
    """The arena-aware flatops paths against their plain equivalents."""

    def test_concat_ranges_workspace_formulation(self, arena):
        rng = np.random.default_rng(0)
        for _ in range(50):
            m = int(rng.integers(1, 30))
            lengths = rng.integers(0, 8, m)
            starts = rng.integers(-50, 100, m)
            ref = flatops.concat_ranges(starts, lengths)
            out = flatops.concat_ranges(starts, lengths, arena=arena)
            assert np.array_equal(out, ref)
            arena.recycle(out)

    def test_no_leaks_after_an_engine_run(self, arena):
        machine = SimulatedMachine(64, seed=5)
        data = per_pe_workload("uniform", 64, 200, seed=5)
        run_on_machine(machine, data, algorithm="ams",
                       config=AMSConfig(levels=2), engine="flat")
        assert arena.stats()["checked_out"] == 0


def _run_flat(p, n_per_pe, levels, backend=None):
    machine = SimulatedMachine(p, seed=123)
    data = per_pe_workload("uniform", p, n_per_pe, seed=42)
    result = run_on_machine(
        machine, data, algorithm="ams",
        config=AMSConfig(levels=levels, node_size=8),
        validate=False, engine="flat", backend=backend,
    )
    return result, machine


class TestArenaByteIdentity:
    """Arena on vs off must be invisible: outputs, clocks, counters."""

    @pytest.mark.parametrize("backend", [None])
    def test_on_off_identical(self, backend):
        set_arena(WorkspaceArena("on"))
        try:
            res_on, m_on = _run_flat(64, 300, 2, backend=backend)
        finally:
            reset_arena()
        set_arena(NullArena())
        try:
            res_off, m_off = _run_flat(64, 300, 2, backend=backend)
        finally:
            reset_arena()
        for a, b in zip(res_on.output, res_off.output):
            assert np.array_equal(a, b)
        assert res_on.total_time == res_off.total_time
        assert res_on.phase_times == res_off.phase_times
        assert np.array_equal(m_on.clock, m_off.clock)

    def test_release_mid_sequence_is_invisible(self):
        set_arena(WorkspaceArena("a"))
        try:
            res_a, machine = _run_flat(32, 200, 2)
            machine.release_workspace()
            res_b, _ = _run_flat(32, 200, 2)
        finally:
            reset_arena()
        for a, b in zip(res_a.output, res_b.output):
            assert np.array_equal(a, b)
        assert res_a.total_time == res_b.total_time


class TestMemoryRegression:
    def test_tracemalloc_peak_under_budget(self):
        """Peak traced allocation of a warm three-level flat run stays
        under budget.  The raw data is p * n_per_pe * 8 B = 4 MiB; with the
        arena warm the second run peaks ~7.1x that (fresh escapes: level
        DistArrays, argsort permutations, gathers).  The 10x budget pins
        workspace reuse — losing the arena paths regresses past it."""
        p, n_per_pe = 256, 2000
        set_arena(WorkspaceArena("mem"))
        try:
            _run_flat(p, n_per_pe, 3)  # warm the pools and ramps
            tracemalloc.start()
            _run_flat(p, n_per_pe, 3)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
        finally:
            reset_arena()
        data_bytes = p * n_per_pe * 8
        assert peak < 10 * data_bytes, (
            f"peak {peak/2**20:.1f} MiB exceeds budget "
            f"({peak/data_bytes:.1f}x the {data_bytes/2**20:.1f} MiB input)"
        )

    def test_ru_maxrss_is_recorded(self):
        """`peak_rss_mb` in bench rows derives from ru_maxrss (KB on
        Linux); sanity-pin the unit so the bench column stays plausible."""
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        assert 10_000 < rss_kb < 100_000_000  # 10 MB .. 100 GB as KB
