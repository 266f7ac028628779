"""Tests for :mod:`repro.seq.partition`."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.seq.partition import (
    bucket_indices,
    partition_with_equality_buckets,
)


class TestBucketIndices:
    def test_basic(self):
        idx = bucket_indices(np.array([1, 5, 10, 15]), np.array([5, 10]))
        assert idx.tolist() == [0, 1, 2, 2]

    def test_no_splitters(self):
        idx = bucket_indices(np.array([3, 1, 2]), np.empty(0))
        assert idx.tolist() == [0, 0, 0]

    def test_unsorted_splitters_rejected(self):
        with pytest.raises(ValueError):
            bucket_indices(np.array([1]), np.array([5, 3]))

    def test_equal_to_splitter_goes_right_bucket(self):
        # value == splitter s_i lands in bucket i+1 (buckets are [s_{i-1}, s_i))
        idx = bucket_indices(np.array([5]), np.array([5]))
        assert idx.tolist() == [1]


class TestEqualityBuckets:
    def test_split_of_equal_values(self):
        values = np.array([1, 2, 2, 3, 2])
        result = partition_with_equality_buckets(values, np.array([2]))
        assert result.buckets[0].tolist() == [1]
        assert result.buckets[1].tolist() == [3]
        assert result.equality_buckets[0].tolist() == [2, 2, 2]
        assert result.total_size() == 5

    def test_no_splitters(self):
        values = np.array([5, 1])
        result = partition_with_equality_buckets(values, np.empty(0))
        assert result.buckets[0].tolist() == [5, 1]
        assert result.equality_buckets == []

    def test_merged_buckets_left(self):
        values = np.array([1, 2, 2, 3])
        result = partition_with_equality_buckets(values, np.array([2]))
        merged = result.merged_buckets(equal_goes_left=True)
        assert sorted(merged[0].tolist()) == [1, 2, 2]
        assert merged[1].tolist() == [3]

    def test_merged_buckets_right(self):
        values = np.array([1, 2, 2, 3])
        result = partition_with_equality_buckets(values, np.array([2]))
        merged = result.merged_buckets(equal_goes_left=False)
        assert merged[0].tolist() == [1]
        assert sorted(merged[1].tolist()) == [2, 2, 3]

    @given(
        st.lists(st.integers(0, 20), min_size=0, max_size=50),
        st.lists(st.integers(0, 20), min_size=1, max_size=5).map(lambda s: sorted(set(s))),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_conservation(self, values, splitters):
        values = np.asarray(values, dtype=np.int64)
        splitters = np.asarray(splitters, dtype=np.int64)
        result = partition_with_equality_buckets(values, splitters)
        assert result.total_size() == values.size
        merged = result.merged_buckets()
        assert sorted(np.concatenate(merged).tolist() if merged else []) == sorted(values.tolist())
        for i, eq in enumerate(result.equality_buckets):
            assert np.all(eq == splitters[i])
