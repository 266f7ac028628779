"""Tests for :mod:`repro.dist` — the flat DistArray and its kernels."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dist.array import DistArray
from repro.dist.flatops import (
    concat_ranges,
    segment_ids,
    segmented_sort_values,
    stable_key_argsort,
    stable_two_key_argsort,
)


def random_list(rng, p, max_n, high=1000):
    return [
        rng.integers(0, high, size=rng.integers(0, max_n + 1)) for _ in range(p)
    ]


class TestDistArrayBasics:
    def test_from_list_layout(self):
        arrays = [np.array([1, 2]), np.array([], dtype=np.int64), np.array([3])]
        d = DistArray.from_list(arrays)
        assert d.p == 3
        assert d.total == 3
        assert d.offsets.tolist() == [0, 2, 2, 3]
        assert d.values.tolist() == [1, 2, 3]
        assert d.sizes().tolist() == [2, 0, 1]

    def test_segment_views(self):
        d = DistArray.from_list([np.arange(4), np.arange(4, 6)])
        assert d.segment(0).tolist() == [0, 1, 2, 3]
        assert d.segment(1).tolist() == [4, 5]
        with pytest.raises(IndexError):
            d.segment(2)

    def test_invalid_offsets(self):
        with pytest.raises(ValueError):
            DistArray(np.arange(3), np.array([0, 2]))
        with pytest.raises(ValueError):
            DistArray(np.arange(3), np.array([0, 2, 1, 3]))

    def test_empty(self):
        d = DistArray.empty(4, dtype=np.int64)
        assert d.p == 4 and d.total == 0
        assert all(s.size == 0 for s in d.to_list())


class TestDistArrayRoundTrip:
    @given(st.integers(1, 12), st.integers(0, 30), st.integers(0, 100))
    @settings(max_examples=50, deadline=None)
    def test_from_list_to_list_identity(self, p, max_n, seed):
        rng = np.random.default_rng(seed)
        arrays = random_list(rng, p, max_n)
        d = DistArray.from_list(arrays)
        back = d.to_list()
        assert len(back) == p
        for a, b in zip(arrays, back):
            assert np.array_equal(a, b)
            assert a.dtype == b.dtype or a.size == 0

    @given(st.integers(1, 10), st.integers(0, 25), st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_sort_segments_matches_per_pe_sort(self, p, max_n, seed):
        rng = np.random.default_rng(seed)
        arrays = random_list(rng, p, max_n, high=7)  # many duplicates
        d = DistArray.from_list(arrays)
        flat = d.sort_segments()
        for i, a in enumerate(arrays):
            assert np.array_equal(flat.segment(i), np.sort(a, kind="stable"))


class TestFlatOps:
    def test_segment_ids(self):
        offsets = np.array([0, 2, 2, 5, 5])
        assert segment_ids(offsets).tolist() == [0, 0, 2, 2, 2]

    def test_concat_ranges(self):
        idx = concat_ranges(np.array([5, 0, 9]), np.array([2, 0, 3]))
        assert idx.tolist() == [5, 6, 9, 10, 11]

    @given(st.integers(0, 12), st.integers(0, 200))
    @settings(max_examples=40, deadline=None)
    def test_concat_ranges_matches_naive(self, k, seed):
        rng = np.random.default_rng(seed)
        starts = rng.integers(0, 50, size=k)
        lengths = rng.integers(0, 6, size=k)
        expect = [s + j for s, l in zip(starts, lengths) for j in range(l)]
        assert concat_ranges(starts, lengths).tolist() == expect

    def test_segmented_sort_values_small_segments(self):
        # One key per segment at p = 100: one-key segments are already sorted.
        offsets = np.arange(0, 101)
        values = np.random.default_rng(0).integers(0, 5, size=100)
        out = segmented_sort_values(values, offsets)
        assert np.array_equal(out, values)  # 1-element segments unchanged

    @given(st.integers(1, 400), st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_stable_key_argsort_matches_argsort(self, bound, seed):
        rng = np.random.default_rng(seed)
        key = rng.integers(0, bound, size=200)
        assert np.array_equal(
            stable_key_argsort(key, bound), np.argsort(key, kind="stable")
        )

    @given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_stable_two_key_argsort(self, mb, nb, seed):
        rng = np.random.default_rng(seed)
        major = rng.integers(0, mb, size=300)
        minor = rng.integers(0, nb, size=300)
        expect = np.argsort(major * nb + minor, kind="stable")
        assert np.array_equal(
            stable_two_key_argsort(major, minor, mb, nb), expect
        )

    def test_two_key_argsort_wide_bounds(self):
        rng = np.random.default_rng(3)
        major = rng.integers(0, 5000, size=5000)
        minor = rng.integers(0, 300, size=5000)
        expect = np.argsort(major * 300 + minor, kind="stable")
        assert np.array_equal(
            stable_two_key_argsort(major, minor, 5000, 300), expect
        )
