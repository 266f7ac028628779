"""Property tests for every kernel in :mod:`repro.dist.flatops`.

Each kernel is checked against a brute-force per-segment oracle built from
plain Python loops and ``np.searchsorted``/``np.bincount`` on individual
segments, over Hypothesis-generated ragged layouts (empty segments, empty
queries, duplicate-heavy values, narrow and wide key bounds).  The flat
lockstep engine is nothing but compositions of these kernels, so pinning
them here pins the engine's data plane independently of the simulator.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.dist.flatops import (
    blockwise_searchsorted,
    concat_ranges,
    map_by_unique,
    segment_ids,
    segmented_searchsorted,
    segmented_sort_values,
    stable_key_argsort,
    stable_two_key_argsort,
)

# ----------------------------------------------------------------------
# Shared strategies
# ----------------------------------------------------------------------

segment_sizes = st.lists(st.integers(0, 12), min_size=1, max_size=8)


def _layout(sizes):
    offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(np.asarray(sizes, dtype=np.int64), out=offsets[1:])
    return offsets


class TestSegmentIds:
    @given(segment_sizes)
    @settings(max_examples=60, deadline=None)
    def test_matches_repeat(self, sizes):
        offsets = _layout(sizes)
        expected = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
        assert np.array_equal(segment_ids(offsets), expected)


class TestConcatRanges:
    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 6)),
                    min_size=0, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_range_loop(self, ranges):
        starts = np.array([r[0] for r in ranges], dtype=np.int64)
        lengths = np.array([r[1] for r in ranges], dtype=np.int64)
        expected = np.concatenate(
            [np.arange(s, s + l) for s, l in ranges] or
            [np.empty(0, dtype=np.int64)]
        )
        assert np.array_equal(concat_ranges(starts, lengths), expected)


class TestStableArgsorts:
    @given(st.lists(st.integers(0, 7), max_size=40), st.integers(8, 2 ** 20))
    @settings(max_examples=60, deadline=None)
    def test_single_key_matches_stable_argsort(self, keys, bound):
        key = np.asarray(keys, dtype=np.int64)
        expected = np.argsort(key, kind="stable")
        assert np.array_equal(stable_key_argsort(key, bound), expected)

    @given(
        st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=40),
        st.sampled_from([6, 300, 70_000, 2 ** 20]),
    )
    @settings(max_examples=60, deadline=None)
    def test_two_key_matches_lexsort(self, pairs, bound):
        major = np.asarray([p[0] for p in pairs], dtype=np.int64)
        minor = np.asarray([p[1] for p in pairs], dtype=np.int64)
        expected = np.argsort(major * 6 + minor, kind="stable")
        assert np.array_equal(
            stable_two_key_argsort(major, minor, bound, 6), expected
        )


class TestSegmentedSort:
    @given(segment_sizes, st.integers(0, 5), st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_segment_sort(self, sizes, high, seed):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, high + 1, size=int(sum(sizes)))
        offsets = _layout(sizes)
        got = segmented_sort_values(values, offsets)
        expected = np.concatenate(
            [np.sort(values[offsets[i]:offsets[i + 1]], kind="stable")
             for i in range(len(sizes))] or [values]
        ) if values.size else values
        assert np.array_equal(got, expected)


class TestSegmentedSearchsorted:
    @given(
        segment_sizes,
        st.lists(st.tuples(st.integers(-2, 14), st.booleans()), max_size=12),
        st.integers(0, 9),
        st.integers(0, 1000),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_per_segment_searchsorted(self, sizes, queries, high, seed):
        rng = np.random.default_rng(seed)
        segs = [np.sort(rng.integers(0, high + 1, size=s)) for s in sizes]
        values = np.concatenate(segs) if sum(sizes) else np.empty(0, np.int64)
        offsets = _layout(sizes)
        q = np.asarray([x[0] for x in queries])
        right = np.asarray([x[1] for x in queries], dtype=bool)
        seg_of = rng.integers(0, len(sizes), size=len(queries))
        got = segmented_searchsorted(values, offsets, q, seg_of, side=right)
        expected = np.asarray([
            np.searchsorted(segs[s], v, side="right" if r else "left")
            for v, s, r in zip(q, seg_of, right)
        ], dtype=np.int64)
        assert np.array_equal(got, expected)

    @given(segment_sizes, st.integers(0, 4), st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_windowed_search_equals_clipped_full_search(self, sizes, high, seed):
        rng = np.random.default_rng(seed)
        segs = [np.sort(rng.integers(0, high + 1, size=s)) for s in sizes]
        values = np.concatenate(segs) if sum(sizes) else np.empty(0, np.int64)
        offsets = _layout(sizes)
        nq = 8
        seg_of = rng.integers(0, len(sizes), size=nq)
        q = rng.integers(-1, high + 2, size=nq)
        lo = np.asarray([rng.integers(0, sizes[s] + 1) for s in seg_of])
        hi = np.asarray([rng.integers(lo[i], sizes[s] + 1)
                         for i, s in enumerate(seg_of)])
        for side in ("left", "right"):
            got = segmented_searchsorted(
                values, offsets, q, seg_of, side=side, lo=lo, hi=hi
            )
            full = np.asarray([
                np.searchsorted(segs[s], v, side=side)
                for v, s in zip(q, seg_of)
            ])
            assert np.array_equal(got, np.clip(full, lo, hi))


class TestBlockwiseSearchsorted:
    @given(segment_sizes, st.lists(st.integers(0, 8), min_size=1, max_size=8),
           st.integers(0, 6), st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_matches_segmented_searchsorted(self, sizes, qcounts, high, seed):
        qcounts = (qcounts * len(sizes))[:len(sizes)]
        rng = np.random.default_rng(seed)
        segs = [np.sort(rng.integers(0, high + 1, size=s)) for s in sizes]
        values = np.concatenate(segs) if sum(sizes) else np.empty(0, np.int64)
        offsets = _layout(sizes)
        q_offsets = _layout(qcounts)
        queries = rng.integers(-1, high + 2, size=int(q_offsets[-1]))
        seg_of = np.repeat(np.arange(len(sizes), dtype=np.int64), qcounts)
        for side in ("left", "right"):
            got = blockwise_searchsorted(values, offsets, queries, q_offsets, side=side)
            expected = segmented_searchsorted(values, offsets, queries, seg_of, side=side)
            assert np.array_equal(got, expected)


class TestMapByUnique:
    @given(st.lists(st.integers(-50, 50), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_matches_elementwise_application(self, values):
        arr = np.asarray(values, dtype=np.int64)
        fn = lambda m: float(m) * 0.25 + (1.0 if m > 0 else 0.0)
        got = map_by_unique(arr, fn)
        expected = np.asarray([fn(int(m)) for m in arr], dtype=np.float64)
        assert np.array_equal(got, expected)
