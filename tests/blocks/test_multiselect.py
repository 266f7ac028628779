"""Tests for :mod:`repro.blocks.multiselect` (distributed multisequence selection)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.blocks.multiselect import (
    multisequence_select,
    multisequence_select_batched,
)
from repro.dist.array import DistArray
from repro.machine.spec import laptop_like
from repro.seq.select import (
    split_positions_are_consistent,
    split_sorted_runs_at_ranks,
)
from repro.sim.groups import GroupBatch
from repro.sim.machine import SimulatedMachine


def make_comm(p):
    return SimulatedMachine(p, spec=laptop_like(), seed=3).world()


def sorted_local_data(p, sizes, seed=0, high=1000):
    rng = np.random.default_rng(seed)
    return [np.sort(rng.integers(0, high, size=s)) for s in sizes]


class TestMultisequenceSelect:
    def test_exact_ranks(self):
        comm = make_comm(4)
        data = sorted_local_data(4, [50, 50, 50, 50], seed=1)
        total = 200
        ranks = [50, 100, 150]
        result = multisequence_select(comm, data, ranks)
        assert result.splits.shape == (3, 4)
        for t, k in enumerate(ranks):
            assert int(result.splits[t].sum()) == k
            assert split_positions_are_consistent(data, result.splits[t])

    def test_trivial_ranks(self):
        comm = make_comm(3)
        data = sorted_local_data(3, [10, 10, 10])
        result = multisequence_select(comm, data, [0, 30])
        assert result.splits[0].sum() == 0
        assert result.splits[1].sum() == 30

    def test_uneven_local_sizes(self):
        comm = make_comm(4)
        data = sorted_local_data(4, [0, 5, 100, 13], seed=2)
        result = multisequence_select(comm, data, [59])
        assert int(result.splits[0].sum()) == 59
        assert split_positions_are_consistent(data, result.splits[0])

    def test_heavy_duplicates(self):
        comm = make_comm(4)
        data = [np.full(20, 7) for _ in range(4)]
        result = multisequence_select(comm, data, [13, 40, 66])
        for t, k in enumerate([13, 40, 66]):
            assert int(result.splits[t].sum()) == k

    def test_all_data_on_one_pe(self):
        comm = make_comm(4)
        data = [np.sort(np.random.default_rng(0).integers(0, 100, 40)),
                np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64)]
        result = multisequence_select(comm, data, [10, 20, 30])
        assert result.splits[:, 0].tolist() == [10, 20, 30]

    def test_unsorted_input_rejected(self):
        comm = make_comm(2)
        with pytest.raises(ValueError):
            multisequence_select(comm, [np.array([3, 1]), np.array([1])], [1])

    def test_batched_descent_at_segment_start_accepted(self):
        # A descent across a segment boundary is not a sortedness violation,
        # also right after an empty segment.
        data = [np.array([1, 5]), np.array([], dtype=np.int64), np.array([2, 3])]
        ref, _ = _splits_and_machine(data, [2], "reference")
        got, _ = _splits_and_machine(data, [2], "batched")
        assert int(got.splits[0].sum()) == 2
        assert np.array_equal(got.splits, ref.splits)

    def test_batched_unsorted_segment_rejected(self):
        with pytest.raises(
            ValueError, match="local segments must be individually sorted"
        ):
            _splits_and_machine(
                [np.array([1, 5]), np.array([3, 2])], [1], "batched"
            )

    def test_bad_rank_rejected(self):
        comm = make_comm(2)
        data = [np.array([1]), np.array([2])]
        with pytest.raises(ValueError):
            multisequence_select(comm, data, [5])
        with pytest.raises(ValueError):
            multisequence_select(comm, data, [2, 1])

    def test_wrong_arity(self):
        comm = make_comm(3)
        with pytest.raises(ValueError):
            multisequence_select(comm, [np.array([1])], [0])

    def test_charges_time(self):
        comm = make_comm(4)
        data = sorted_local_data(4, [100] * 4, seed=5)
        multisequence_select(comm, data, [200])
        assert comm.machine.elapsed() > 0

    def test_splits_monotone_across_ranks(self):
        comm = make_comm(4)
        data = sorted_local_data(4, [30] * 4, seed=9)
        ranks = [20, 40, 60, 100]
        result = multisequence_select(comm, data, ranks)
        diffs = np.diff(result.splits, axis=0)
        assert np.all(diffs >= 0)

    @pytest.mark.parametrize("key_range", [3, 17, 1000])
    def test_matches_sequential_reference(self, key_range):
        # The split for a rank is unique once ties go to the lower PE
        # index, which is how both selections break them.
        for seed in range(10):
            rng = np.random.default_rng(seed)
            p = int(rng.integers(2, 7))
            data = sorted_local_data(
                p, rng.integers(0, 30, p), seed=seed, high=key_range
            )
            total = sum(d.size for d in data)
            ranks = sorted(int(k) for k in rng.integers(0, total + 1, 3))
            result = multisequence_select(make_comm(p), data, ranks)
            assert np.array_equal(
                result.splits, split_sorted_runs_at_ranks(data, ranks)
            )

    def test_pieces_for_pe(self):
        comm = make_comm(2)
        data = [np.arange(10), np.arange(10, 20)]
        result = multisequence_select(comm, data, [5, 15])
        slices = result.pieces_for_pe(0, 10)
        assert len(slices) == 3
        covered = sum(s.stop - s.start for s in slices)
        assert covered == 10

    @given(
        st.integers(2, 5),
        st.lists(st.integers(0, 25), min_size=2, max_size=5),
        st.integers(0, 1000),
        st.integers(0, 8),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_exact_and_consistent_flat_and_reference(
        self, p, sizes, seed, key_range_exp
    ):
        p = min(p, len(sizes))
        sizes = sizes[:p]
        high = 2 ** key_range_exp + 1  # small ranges force many duplicates
        comm = make_comm(p)
        data = sorted_local_data(p, sizes, seed=seed, high=high)
        total = int(sum(sizes))
        rng = np.random.default_rng(seed + 1)
        ranks = sorted(int(x) for x in rng.integers(0, total + 1, size=3))
        result = multisequence_select(comm, data, ranks)
        for t, k in enumerate(ranks):
            assert int(result.splits[t].sum()) == k
            assert split_positions_are_consistent(data, result.splits[t])
        # The flat engine (a one-island lockstep batch) must match the
        # reference bit for bit.
        flat, _ = _splits_and_machine(data, ranks, "batched")
        assert np.array_equal(flat.splits, result.splits)
        assert flat.iterations == result.iterations


def _splits_and_machine(data, ranks, via):
    p = len(data)
    machine = SimulatedMachine(p, spec=laptop_like(), seed=3)
    if via == "reference":
        res = multisequence_select(
            machine.world(), [d.copy() for d in data], ranks
        )
    else:
        islands = GroupBatch(
            machine, np.arange(p, dtype=np.int64),
            np.array([0, p], dtype=np.int64),
        )
        res = multisequence_select_batched(
            islands, DistArray.from_list([d.copy() for d in data]),
            [ranks], [machine.rng],
        )[0]
    return res, machine


class TestMultiselectDuplicateBoundaries:
    """Pivot on a duplicate run spanning a PE boundary (piece boundaries).

    With all-equal keys every pivot lands inside one machine-wide run of
    duplicates, so a two-sided *value* search alone cannot place the split:
    on the pivot-owning PE, all equal elements right of the pivot position
    would be counted too, the committed left parts would overshoot the
    requested rank, and the piece sizes derived from consecutive splits
    would go negative.  Only the Appendix D position-based count on the
    owner keeps the implicit ``(value, PE, position)`` key exact.  These
    tests were written against the segmented rewrite first and fail on any
    variant that drops the owner-position override.
    """

    @pytest.mark.parametrize("via", ["reference", "batched"])
    def test_all_equal_across_pes(self, via):
        data = [np.full(10, 7) for _ in range(4)]
        ranks = [5, 13, 25, 33]  # every split falls strictly inside a PE run
        res, _ = _splits_and_machine(data, ranks, via)
        for t, k in enumerate(ranks):
            assert int(res.splits[t].sum()) == k
        # Composite-key prefixes are unique, so splits fill PEs left to
        # right and successive piece boundaries never cross.
        assert np.all(np.diff(res.splits, axis=0) >= 0)
        for t, k in enumerate(ranks):
            expect = np.clip(k - np.arange(4) * 10, 0, 10)
            assert np.array_equal(res.splits[t], expect)

    @pytest.mark.parametrize("via", ["reference", "batched"])
    def test_near_all_equal_run_spans_boundary(self, via):
        # One run of 7s spans the boundary between PE 1 and PE 2.
        data = [
            np.array([1, 2, 7, 7]),
            np.array([7, 7, 7, 7]),
            np.array([7, 7, 9, 9]),
            np.array([7, 8, 8, 8]),
        ]
        ranks = [3, 6, 9, 12]
        res, _ = _splits_and_machine(data, ranks, via)
        for t, k in enumerate(ranks):
            assert int(res.splits[t].sum()) == k
            assert split_positions_are_consistent(data, res.splits[t])
        assert np.all(np.diff(res.splits, axis=0) >= 0)

    def test_flat_and_batched_match_reference_on_duplicates(self):
        rng = np.random.default_rng(5)
        for trial in range(25):
            p = int(rng.integers(2, 6))
            high = int(rng.integers(1, 3))  # at most two distinct keys
            data = [
                np.sort(rng.integers(0, high + 1, size=int(rng.integers(0, 15))))
                for _ in range(p)
            ]
            total = int(sum(d.size for d in data))
            ranks = sorted(
                int(x) for x in rng.integers(0, total + 1, size=3)
            )
            ref, m_ref = _splits_and_machine(data, ranks, "reference")
            got, m = _splits_and_machine(data, ranks, "batched")
            assert np.array_equal(got.splits, ref.splits), trial
            assert got.iterations == ref.iterations, trial
            assert np.array_equal(m.clock, m_ref.clock), trial

    @pytest.mark.parametrize("via", ["batched"])
    def test_piece_sizes_from_duplicate_splits_are_valid(self, via):
        """Consecutive splits delimit non-negative piece sizes (RLM pieces)."""
        data = [np.full(8, 1) for _ in range(5)]
        ranks = [8, 16, 24, 32]
        res, _ = _splits_and_machine(data, ranks, via)
        sizes = np.array([d.size for d in data])
        bounds = np.vstack([
            np.zeros((1, 5), dtype=np.int64), res.splits, sizes[None, :]
        ])
        assert np.all(np.diff(bounds, axis=0) >= 0)
        for pe in range(5):
            slices = res.pieces_for_pe(pe, int(sizes[pe]))
            assert sum(s.stop - s.start for s in slices) == int(sizes[pe])


class TestBatchedLockstepAcrossIslands:
    """Islands of one batch finish in different rounds; the batched loop
    must still give every island exactly its own per-island selection."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_property_matches_per_island_selection(self, data):
        isl_sizes = data.draw(st.lists(st.integers(2, 6), min_size=1, max_size=5))
        high = data.draw(st.sampled_from([3, 10**6]))  # few or many keys
        runs, ranks = [], []
        for size in isl_sizes:
            isl_runs = [
                np.sort(np.asarray(
                    data.draw(st.lists(st.integers(0, high), max_size=20)),
                    dtype=np.int64,
                ))
                for _ in range(size)
            ]
            total = sum(r.size for r in isl_runs)
            rank = st.one_of(st.just(0), st.just(total), st.integers(0, total))
            ranks.append(sorted(
                data.draw(st.lists(rank, min_size=1, max_size=4))
            ))
            runs.extend(isl_runs)
        offsets = np.concatenate([[0], np.cumsum(isl_sizes)]).astype(np.int64)
        p = int(offsets[-1])

        batched = SimulatedMachine(p, spec=laptop_like(), seed=3)
        islands = GroupBatch(batched, np.arange(p, dtype=np.int64), offsets)
        got = multisequence_select_batched(
            islands, DistArray.from_list([r.copy() for r in runs]), ranks,
            [batched.group_rng(0, int(first)) for first in offsets[:-1]],
        )

        per_island = SimulatedMachine(p, spec=laptop_like(), seed=3)
        for k, (a, b) in enumerate(zip(offsets[:-1], offsets[1:])):
            expect = multisequence_select(
                per_island.comm(range(a, b)), runs[a:b], ranks[k],
                rng=per_island.group_rng(0, int(a)),
            )
            assert np.array_equal(got[k].splits, expect.splits), k
            assert got[k].iterations == expect.iterations, k

        assert np.array_equal(batched.clock, per_island.clock)
        assert batched.breakdown.phases() == per_island.breakdown.phases()
        for phase in per_island.breakdown.phases():
            assert np.array_equal(
                batched.breakdown.per_pe(phase), per_island.breakdown.per_pe(phase)
            ), phase
        for field in ("messages_sent", "messages_received", "words_sent",
                      "words_received", "collective_ops", "exchange_ops"):
            assert np.array_equal(
                getattr(batched.counters, field),
                getattr(per_island.counters, field),
            ), field
