"""Flat engine vs per-PE reference: byte-identical outputs, clocks, phases.

The flat :class:`~repro.dist.array.DistArray` engine is a performance
refactor, not a re-modelling: for every algorithm it must produce exactly
the outputs, per-PE clocks, phase breakdowns and traffic counters of the
seed per-PE implementation.  These tests enforce that contract on
randomized ``(p, n, plan, seed)`` configurations.
"""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ams_sort import ams_sort, ams_sort_reference
from repro.core.baselines import (
    parallel_quicksort,
    parallel_quicksort_reference,
    single_level_mergesort,
    single_level_mergesort_reference,
    single_level_sample_sort,
    single_level_sample_sort_reference,
)
from repro.core.config import AMSConfig, RLMConfig
from repro.core.rlm_sort import rlm_sort, rlm_sort_reference
from repro.core.runner import run_on_machine
from repro.dist.array import DistArray
from repro.machine.spec import laptop_like, supermuc_like
from repro.sim.machine import SimulatedMachine

COUNTER_FIELDS = (
    "messages_sent",
    "messages_received",
    "words_sent",
    "words_received",
    "collective_ops",
    "exchange_ops",
)


def random_data(p, max_n, seed, high=1000):
    rng = np.random.default_rng(seed)
    return [
        rng.integers(0, high, size=rng.integers(0, max_n + 1)) for _ in range(p)
    ]


def same_bytes(a, b):
    """Equal dtype and bytes: what ``np.array_equal`` misses (the order of
    ``-0.0`` and ``0.0``, a changed dtype)."""
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def signed_zero_data(p, n_per_pe, seed):
    """Float keys in {-2, ..., 2} whose zeros are half ``-0.0``, half ``0.0``."""
    rng = np.random.default_rng(seed)
    data = []
    for _ in range(p):
        d = rng.integers(-2, 3, size=n_per_pe).astype(np.float64)
        d[(d == 0) & (rng.random(n_per_pe) < 0.5)] = -0.0
        data.append(d)
    return data


def assert_engines_identical(flat_fn, ref_fn, p, data, seed, spec=None, **kwargs):
    """Run both engines on identical machines and compare all observables."""
    spec = spec or laptop_like()
    m_ref = SimulatedMachine(p, spec=spec, seed=seed)
    out_ref = ref_fn(m_ref.world(), [d.copy() for d in data], **kwargs)
    m_flat = SimulatedMachine(p, spec=spec, seed=seed)
    out_flat = flat_fn(m_flat.world(), [d.copy() for d in data], **kwargs)

    assert len(out_ref) == len(out_flat)
    for i, (a, b) in enumerate(zip(out_ref, out_flat)):
        assert same_bytes(a, b), f"output of PE {i} differs"
    assert np.array_equal(m_ref.clock, m_flat.clock), "clocks differ"
    assert sorted(m_ref.breakdown.phases()) == sorted(m_flat.breakdown.phases())
    for phase in m_ref.breakdown.phases():
        assert np.array_equal(
            m_ref.breakdown.per_pe(phase), m_flat.breakdown.per_pe(phase)
        ), f"phase breakdown of {phase!r} differs"
    for field in COUNTER_FIELDS:
        assert np.array_equal(
            getattr(m_ref.counters, field), getattr(m_flat.counters, field)
        ), f"counter {field} differs"


class TestAMSEquivalence:
    @given(
        st.integers(2, 24),
        st.integers(0, 80),
        st.integers(1, 3),
        st.integers(0, 10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_randomized_configs(self, p, max_n, levels, seed):
        data = random_data(p, max_n, seed)
        config = AMSConfig(levels=levels, node_size=4)
        assert_engines_identical(
            ams_sort, ams_sort_reference, p, data, seed, config=config
        )

    @pytest.mark.parametrize("delivery", ["naive", "randomized", "deterministic", "advanced"])
    def test_delivery_methods(self, delivery):
        data = random_data(16, 200, 42)
        config = AMSConfig(levels=2, node_size=4, delivery=delivery)
        assert_engines_identical(
            ams_sort, ams_sort_reference, 16, data, 42, config=config
        )

    def test_supermuc_spec_node_plan(self):
        data = random_data(64, 60, 3)
        assert_engines_identical(
            ams_sort, ams_sort_reference, 64, data, 3,
            spec=supermuc_like(), config=AMSConfig(levels=2),
        )

    def test_empty_input(self):
        data = [np.empty(0, dtype=np.int64) for _ in range(6)]
        assert_engines_identical(
            ams_sort, ams_sort_reference, 6, data, 1,
            config=AMSConfig(node_size=2),
        )


class TestAMSMultiLevelEquivalence:
    """Pins for the *intermediate* recursion levels of the lockstep engine.

    Three or more levels force at least one level whose islands split into
    multi-PE sub-groups (the final level only produces singletons), so these
    configurations exercise the batched intermediate-level path — sampling,
    grid sample sort (including the off-grid hand-off of non-square
    islands), bucket grouping and multi-PE-group delivery — not just the
    final level that PR 1 already ran in lockstep.
    """

    @pytest.mark.parametrize("p,levels", [(16, 3), (24, 3), (27, 3), (64, 4)])
    def test_three_plus_levels(self, p, levels):
        data = random_data(p, 120, p * levels)
        config = AMSConfig(levels=levels, node_size=2)
        assert_engines_identical(
            ams_sort, ams_sort_reference, p, data, 11, config=config
        )

    @pytest.mark.parametrize(
        "delivery", ["naive", "randomized", "deterministic", "advanced"]
    )
    def test_delivery_methods_three_levels(self, delivery):
        data = random_data(18, 150, 21)
        config = AMSConfig(levels=3, node_size=2, delivery=delivery)
        assert_engines_identical(
            ams_sort, ams_sort_reference, 18, data, 21, config=config
        )

    @pytest.mark.parametrize(
        "delivery", ["naive", "randomized", "deterministic", "advanced"]
    )
    @pytest.mark.parametrize("p", [27, 64])
    def test_delivery_methods_three_levels_small_blocks(
        self, p, delivery, monkeypatch
    ):
        """Bucket processing with blocks that split and pack islands.

        Keys 1, 2 and 3 carry 0.85, 0.85 and 1.6 block sizes of elements
        (the rest spread over distinct keys above them), so each is one
        bucket and the level-0 grouping sends each to its own group.  With
        the block constant shrunk to one such unit, every level cuts an
        island into several blocks, and every level past the first (the
        first has one island) packs two non-empty islands into one block.
        """
        weights = {27: (0.85, 0.85, 1.6, 0.05), 64: (0.85, 0.85, 1.6, 1.7)}[p]
        rng = np.random.default_rng(3)
        w = np.asarray(weights)
        data = []
        for _ in range(p):
            d = rng.choice(np.arange(1, w.size + 1), size=20, p=w / w.sum())
            spread = d == w.size
            d[spread] = rng.integers(10**3, 10**6, int(spread.sum()))
            data.append(d.astype(np.int64))
        ams_module = importlib.import_module("repro.core.ams_sort")
        monkeypatch.setattr(
            ams_module, "_BLOCK_ELEMS", round(20 * p / w.sum())
        )
        seen = []
        blocks_init = ams_module._LevelBlocks.__init__

        def recording_init(blocks, *args):
            blocks_init(blocks, *args)
            loads = np.diff(blocks.isl_elem)
            seen.append((
                any(b[6] for b in blocks.blocks),
                any(np.count_nonzero(loads[b[4]:b[5]]) > 1
                    for b in blocks.blocks),
            ))

        monkeypatch.setattr(ams_module._LevelBlocks, "__init__", recording_init)
        config = AMSConfig(levels=3, node_size=3, delivery=delivery)
        assert_engines_identical(
            ams_sort, ams_sort_reference, p, data, 3, config=config
        )
        assert seen == [(True, False), (True, True), (True, True)]

    def test_explicit_uneven_group_plan(self):
        # Odd factors produce non-power-of-two islands whose sample-sort
        # grids do not cover all PEs (hand-off exchanges at every level).
        data = random_data(18, 100, 8)
        config = AMSConfig(levels=3, node_size=2)
        assert config.plan_for(18) == [3, 3, 2]
        assert_engines_identical(
            ams_sort, ams_sort_reference, 18, data, 8, config=config
        )

    def test_supermuc_three_levels(self):
        data = random_data(64, 60, 9)
        assert_engines_identical(
            ams_sort, ams_sort_reference, 64, data, 9,
            spec=supermuc_like(), config=AMSConfig(levels=3, node_size=4),
        )

    def test_duplicate_heavy_multi_level(self):
        rng = np.random.default_rng(13)
        data = [np.full(rng.integers(0, 40), 7) for _ in range(14)]
        config = AMSConfig(levels=3, node_size=2)
        assert_engines_identical(
            ams_sort, ams_sort_reference, 14, data, 13, config=config
        )


class TestRLMEquivalence:
    @given(
        st.integers(2, 16),
        st.integers(0, 60),
        st.integers(1, 3),
        st.integers(0, 10_000),
    )
    @settings(max_examples=15, deadline=None)
    def test_randomized_configs(self, p, max_n, levels, seed):
        data = random_data(p, max_n, seed)
        config = RLMConfig(levels=levels, node_size=4)
        assert_engines_identical(
            rlm_sort, rlm_sort_reference, p, data, seed, config=config
        )

    @pytest.mark.parametrize("delivery", ["naive", "randomized", "deterministic", "advanced"])
    def test_delivery_methods(self, delivery):
        data = random_data(12, 150, 13)
        config = RLMConfig(levels=2, node_size=4, delivery=delivery)
        assert_engines_identical(
            rlm_sort, rlm_sort_reference, 12, data, 13, config=config
        )


class TestRLMMultiLevelEquivalence:
    """Pins for RLM-sort's batched intermediate levels and multiselects.

    With three levels every level but the last runs many sibling islands,
    so the batched multisequence selection (per-island pivot streams,
    whole-batch window counting) and the batched delivery/merge must match
    the island-by-island reference byte for byte.
    """

    @pytest.mark.parametrize("p,levels", [(16, 3), (18, 3), (27, 3), (32, 4)])
    def test_three_plus_levels(self, p, levels):
        data = random_data(p, 90, p + levels)
        config = RLMConfig(levels=levels, node_size=2)
        assert_engines_identical(
            rlm_sort, rlm_sort_reference, p, data, 17, config=config
        )

    @pytest.mark.parametrize(
        "delivery", ["naive", "randomized", "deterministic", "advanced"]
    )
    def test_delivery_methods_three_levels(self, delivery):
        data = random_data(12, 100, 19)
        config = RLMConfig(levels=3, node_size=2, delivery=delivery)
        assert_engines_identical(
            rlm_sort, rlm_sort_reference, 12, data, 19, config=config
        )

    def test_duplicate_heavy_multi_level(self):
        # All-equal keys make every multiselect pivot land on a duplicate
        # run spanning PE boundaries at every level.
        rng = np.random.default_rng(23)
        data = [np.full(rng.integers(0, 40), 3) for _ in range(12)]
        config = RLMConfig(levels=3, node_size=2)
        assert_engines_identical(
            rlm_sort, rlm_sort_reference, 12, data, 23, config=config
        )

    def test_supermuc_three_levels(self):
        data = random_data(64, 50, 31)
        assert_engines_identical(
            rlm_sort, rlm_sort_reference, 64, data, 31,
            spec=supermuc_like(), config=RLMConfig(levels=3, node_size=4),
        )


BASELINES = {
    "samplesort": (single_level_sample_sort, single_level_sample_sort_reference),
    "mergesort": (single_level_mergesort, single_level_mergesort_reference),
    "quicksort": (parallel_quicksort, parallel_quicksort_reference),
}


class TestBaselineEquivalence:
    def test_sample_sort(self):
        data = random_data(8, 200, 0)
        assert_engines_identical(
            single_level_sample_sort, single_level_sample_sort_reference,
            8, data, 0,
        )

    def test_mergesort(self):
        data = random_data(8, 200, 1)
        assert_engines_identical(
            single_level_mergesort, single_level_mergesort_reference,
            8, data, 1,
        )

    def test_quicksort(self):
        data = random_data(8, 200, 2)
        assert_engines_identical(
            parallel_quicksort, parallel_quicksort_reference, 8, data, 2,
        )

    @pytest.mark.parametrize("p", [3, 7, 12])
    @pytest.mark.parametrize("name", ["samplesort", "mergesort", "quicksort"])
    def test_uneven_p_sparse_schedule(self, name, p):
        """Non-power-of-two ``p`` (uneven quicksort halves).

        Quicksort exchanges sparsely; sample sort and mergesort always use
        their dense all-to-allv.
        """
        data = random_data(p, 120, 40 + p)
        assert_engines_identical(*BASELINES[name], p, data, 40 + p)

    @pytest.mark.parametrize("p", [1, 2, 33, 100])
    @pytest.mark.parametrize("name", ["samplesort", "quicksort", "mergesort"])
    def test_machine_sizes(self, name, p):
        data = random_data(p, 60, 50 + p)
        assert_engines_identical(*BASELINES[name], p, data, 50 + p)

    @pytest.mark.parametrize("p", [2, 33, 100])
    @pytest.mark.parametrize("name", ["samplesort", "quicksort", "mergesort"])
    def test_fewer_keys_than_pes(self, name, p):
        """``n < p``: quicksort islands with no sample, hence no pivot, and
        mergesort PEs that hold and receive nothing."""
        rng = np.random.default_rng(p)
        data = [rng.integers(0, 100, int(rng.random() < 0.3)) for _ in range(p)]
        assert sum(d.size for d in data) < p
        assert_engines_identical(*BASELINES[name], p, data, p)

    @pytest.mark.parametrize("name", ["samplesort", "quicksort", "mergesort"])
    def test_all_equal_keys(self, name):
        rng = np.random.default_rng(5)
        data = [np.full(rng.integers(0, 40), 7) for _ in range(33)]
        assert_engines_identical(*BASELINES[name], 33, data, 5)

    def test_quicksort_nan_pivot(self):
        """Mostly-NaN keys make a NaN pivot; ``data <= pivot`` is then
        false everywhere, so both engines send every element right.

        ``run_on_machine`` rejects NaN keys, but ``parallel_quicksort`` is
        public and takes them.
        """
        data = [np.concatenate([[1.0, 2.0], np.full(30, np.nan)])] * 2
        assert_engines_identical(*BASELINES["quicksort"], 2, data, 0)
        machine = SimulatedMachine(2, spec=laptop_like(), seed=0)
        out = parallel_quicksort(machine.world(), [d.copy() for d in data])
        assert [o.size for o in out] == [0, 64]

    @pytest.mark.parametrize("name", ["samplesort", "quicksort"])
    def test_input_above_block_size(self, name, monkeypatch):
        """More keys than one bucket-processing block holds.

        With 30,000 keys on each of 4 PEs the last PE starts at 90,000,
        past the first ``_BLOCK_ELEMS`` (2**16) elements, so the first
        level cuts its island into blocks and ``reorder_pieces`` places the
        group runs through the split-island cursors.
        """
        ams_module = importlib.import_module("repro.core.ams_sort")
        split_levels = []
        blocks_init = ams_module._LevelBlocks.__init__

        def recording_init(blocks, *args):
            blocks_init(blocks, *args)
            split_levels.append(any(b[6] for b in blocks.blocks))

        monkeypatch.setattr(ams_module._LevelBlocks, "__init__", recording_init)
        rng = np.random.default_rng(8)
        data = [rng.integers(0, 10**9, 30_000) for _ in range(4)]
        assert_engines_identical(*BASELINES[name], 4, data, 8)
        assert split_levels[0]

    def test_quicksort_delivers_once_per_depth(self, monkeypatch):
        """All islands of a recursion depth share one delivery call."""
        baselines = importlib.import_module("repro.core.baselines")
        islands = []
        deliver = baselines.deliver_to_groups_batched

        def counting(batch, *args, **kwargs):
            islands.append(batch.num_groups)
            return deliver(batch, *args, **kwargs)

        monkeypatch.setattr(baselines, "deliver_to_groups_batched", counting)
        machine = SimulatedMachine(64, spec=laptop_like(), seed=3)
        parallel_quicksort(machine.world(), random_data(64, 50, 3))
        assert islands == [1, 2, 4, 8, 16, 32]


class TestSignedZeroEquivalence:
    """Float keys mixing ``-0.0`` and ``0.0``: equal values, different bytes.

    The flat engine must order equal keys as the reference's per-PE stable
    sorts and merges do.  A local sort that is not stable on such keys
    still returns equal *values* but moves the sign bits.
    """

    @pytest.mark.parametrize("p", [64, 256])
    @pytest.mark.parametrize(
        "name", ["rlm", "mergesort", "samplesort", "quicksort"]
    )
    def test_outputs_byte_identical(self, name, p):
        if name == "rlm":
            flat_fn, ref_fn = rlm_sort, rlm_sort_reference
            kwargs = {"config": RLMConfig(levels=2, node_size=4)}
        else:
            (flat_fn, ref_fn), kwargs = BASELINES[name], {}
        data = signed_zero_data(p, 100, p)
        assert_engines_identical(flat_fn, ref_fn, p, data, p, **kwargs)


class TestRunnerEngines:
    def test_engine_switch_identical_results(self):
        data = random_data(16, 150, 9)
        results = {}
        for engine in ("flat", "reference"):
            machine = SimulatedMachine(16, spec=laptop_like(), seed=9)
            results[engine] = run_on_machine(
                machine, data, algorithm="ams",
                config=AMSConfig(levels=2, node_size=4), engine=engine,
            )
        a, b = results["flat"], results["reference"]
        assert a.total_time == b.total_time
        assert a.phase_times == b.phase_times
        assert a.traffic == b.traffic
        for x, y in zip(a.output, b.output):
            assert np.array_equal(x, y)

    def test_unknown_engine_rejected(self):
        machine = SimulatedMachine(2, spec=laptop_like())
        with pytest.raises(ValueError):
            run_on_machine(machine, [np.arange(3), np.arange(3)],
                           algorithm="ams", engine="warp")

    def test_dist_array_input_accepted(self):
        data = random_data(8, 100, 4)
        dist = DistArray.from_list(data)
        machine = SimulatedMachine(8, spec=laptop_like(), seed=4)
        res = run_on_machine(machine, dist, algorithm="ams",
                             config=AMSConfig(node_size=2))
        machine2 = SimulatedMachine(8, spec=laptop_like(), seed=4)
        res2 = run_on_machine(machine2, data, algorithm="ams",
                              config=AMSConfig(node_size=2))
        assert res.total_time == res2.total_time
        for x, y in zip(res.output, res2.output):
            assert np.array_equal(x, y)

    def test_dist_array_direct_api(self):
        data = random_data(8, 100, 6)
        dist = DistArray.from_list(data)
        machine = SimulatedMachine(8, spec=laptop_like(), seed=6)
        out = ams_sort(machine.world(), dist, config=AMSConfig(node_size=2))
        assert isinstance(out, DistArray)
        concat = np.concatenate([d for d in data if d.size]) if any(
            d.size for d in data) else np.empty(0, dtype=np.int64)
        assert np.array_equal(out.values, np.sort(concat, kind="stable"))
