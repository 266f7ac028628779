"""Tests for :mod:`repro.seq.select`."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.seq.select import (
    select_from_sorted_runs,
    split_positions_are_consistent,
    split_sorted_runs_at_ranks,
)


sorted_run = st.lists(st.integers(0, 50), min_size=0, max_size=25).map(sorted)


class TestSplitAtRanks:
    def test_basic_split(self):
        runs = [np.array([1, 4, 7]), np.array([2, 5, 8]), np.array([3, 6, 9])]
        splits = split_sorted_runs_at_ranks(runs, [3, 6])
        assert splits[0].sum() == 3
        assert splits[1].sum() == 6
        # rank 3 split takes exactly {1,2,3}
        assert splits[0].tolist() == [1, 1, 1]

    def test_rank_zero_and_total(self):
        runs = [np.array([1, 2]), np.array([3])]
        splits = split_sorted_runs_at_ranks(runs, [0, 3])
        assert splits[0].tolist() == [0, 0]
        assert splits[1].tolist() == [2, 1]

    def test_duplicates_distributed_by_run_index(self):
        runs = [np.array([5, 5]), np.array([5, 5]), np.array([5])]
        splits = split_sorted_runs_at_ranks(runs, [3])
        assert splits[0].sum() == 3
        # tie breaking by run index: take from earlier runs first
        assert splits[0].tolist() == [2, 1, 0]

    def test_unsorted_run_rejected(self):
        with pytest.raises(ValueError):
            split_sorted_runs_at_ranks([np.array([3, 1])], [1])

    def test_bad_rank_rejected(self):
        with pytest.raises(ValueError):
            split_sorted_runs_at_ranks([np.array([1])], [2])
        with pytest.raises(ValueError):
            split_sorted_runs_at_ranks([np.array([1])], [-1])

    def test_decreasing_ranks_rejected(self):
        with pytest.raises(ValueError):
            split_sorted_runs_at_ranks([np.array([1, 2, 3])], [2, 1])

    def test_empty_runs(self):
        splits = split_sorted_runs_at_ranks([np.empty(0), np.empty(0)], [0])
        assert splits[0].tolist() == [0, 0]

    @given(st.lists(sorted_run, min_size=1, max_size=5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_property_exact_ranks_and_consistency(self, runs, data):
        arrays = [np.asarray(r, dtype=np.int64) for r in runs]
        total = sum(a.size for a in arrays)
        num_ranks = data.draw(st.integers(1, 4))
        ranks = sorted(data.draw(st.lists(st.integers(0, total),
                                          min_size=num_ranks, max_size=num_ranks)))
        splits = split_sorted_runs_at_ranks(arrays, ranks)
        for t, k in enumerate(ranks):
            assert int(splits[t].sum()) == k
            assert split_positions_are_consistent(arrays, splits[t])
            for i, a in enumerate(arrays):
                assert 0 <= splits[t, i] <= a.size


class TestSelectFromRuns:
    def test_matches_global_sort(self):
        rng = np.random.default_rng(7)
        runs = [np.sort(rng.integers(0, 40, rng.integers(1, 10))) for _ in range(4)]
        union = np.sort(np.concatenate(runs))
        for k in range(0, union.size, 3):
            assert select_from_sorted_runs(runs, k) == union[k]

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            select_from_sorted_runs([np.array([1, 2])], 2)


class TestConsistencyChecker:
    def test_consistent(self):
        runs = [np.array([1, 5]), np.array([2, 9])]
        assert split_positions_are_consistent(runs, [1, 1])

    def test_inconsistent(self):
        runs = [np.array([1, 5]), np.array([2, 9])]
        # left part {1,5} vs right part {2,9} -> 5 > 2 violates consistency
        assert not split_positions_are_consistent(runs, [2, 0])

    def test_trivial_splits(self):
        runs = [np.array([1, 2])]
        assert split_positions_are_consistent(runs, [0])
        assert split_positions_are_consistent(runs, [2])
