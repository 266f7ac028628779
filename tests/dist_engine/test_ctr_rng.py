"""Tests for the counter-based sampling RNG and the PR 3 flat kernels.

The counter RNG (:mod:`repro.dist.ctr_rng`) underpins the sampled paths of
both engines: every draw is a pure function of ``(seed, level, pe, index)``.
These tests pin the properties the engines rely on — determinism, stability
across :meth:`SimulatedMachine.reset`, independence between streams and
between batched/per-PE invocations — plus Hypothesis oracles for the
hot-path kernels (the segmented value sort, table-accelerated
``blockwise_searchsorted``).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.blocks.sampling import SamplingParams, draw_samples, draw_samples_flat
from repro.dist.array import DistArray
from repro.dist.ctr_rng import _PHILOX_CHUNK, CounterRNG, philox4x32
from repro.dist.flatops import (
    _bucketize_with_table,
    blockwise_searchsorted,
    segmented_sort_values,
)
from repro.sim.machine import SimulatedMachine


class TestPhilox:
    @pytest.mark.parametrize("counter,key,expected", [
        ((0, 0, 0, 0), (0, 0),
         (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
        ((0xFFFFFFFF,) * 4, (0xFFFFFFFF,) * 2,
         (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD)),
        ((0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344),
         (0xA4093822, 0x299F31D0),
         (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1)),
    ])
    def test_known_answers(self, counter, key, expected):
        """Random123's published Philox4x32-10 test vectors."""
        words = philox4x32(*counter, *key)
        assert tuple(int(w) for w in words) == expected
        # The same counter as one lane of a batch spanning several blocks.
        n = 2 * _PHILOX_CHUNK + 5
        lanes = philox4x32(
            *(np.full(n, c, dtype=np.uint64) for c in counter), *key
        )
        for w, e in zip(lanes, expected):
            assert np.array_equal(w, np.full(n, e, dtype=np.uint64))

    def test_lanes_independent_of_blocking(self):
        """A long batch equals its lanes encrypted one at a time."""
        rng = np.random.default_rng(0)
        n = 2 * _PHILOX_CHUNK + 123
        counters = [rng.integers(0, 2 ** 32, n, dtype=np.uint64) for _ in range(4)]
        batch = philox4x32(*counters, 17, 99)
        for i in (0, _PHILOX_CHUNK - 1, _PHILOX_CHUNK, 2 * _PHILOX_CHUNK, n - 1):
            solo = philox4x32(*(int(c[i]) for c in counters), 17, 99)
            assert [int(w[i]) for w in batch] == [int(w) for w in solo]

    def test_deterministic(self):
        a = philox4x32(np.arange(100), 0, 7, 3, 123, 456)
        b = philox4x32(np.arange(100), 0, 7, 3, 123, 456)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_counter_sensitivity(self):
        y = CounterRNG(0).words(0, 0, np.arange(1000))
        assert np.unique(y).size == 1000  # no collisions across indices

    def test_outputs_are_32_bit_words(self):
        words = philox4x32(np.arange(50), 1, 2, 3, 9, 9)
        for w in words:
            assert w.dtype == np.uint64
            assert int(w.max()) < 2 ** 32

    def test_key_changes_stream(self):
        a = CounterRNG(1).words(0, 0, np.arange(100))
        b = CounterRNG(2).words(0, 0, np.arange(100))
        assert not np.array_equal(a, b)

    def test_level_and_pe_select_streams(self):
        rng = CounterRNG(0)
        base = rng.words(0, 0, np.arange(100))
        assert not np.array_equal(base, rng.words(1, 0, np.arange(100)))
        assert not np.array_equal(base, rng.words(0, 1, np.arange(100)))

    def test_uniforms_in_unit_interval(self):
        u = CounterRNG(3).uniforms(0, 5, np.arange(10_000))
        assert u.min() >= 0.0 and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 0.02

    def test_integers_respect_bounds(self):
        v = CounterRNG(4).integers(2, 7, np.arange(10_000), 13)
        assert v.min() >= 0 and v.max() < 13
        counts = np.bincount(v, minlength=13)
        assert counts.min() > 0.5 * 10_000 / 13

    def test_integers_reject_zero_bound(self):
        with pytest.raises(ValueError):
            CounterRNG(0).integers(0, 0, np.arange(4), np.array([3, 0, 1, 2]))


class TestSampleRNGStability:
    def test_stable_across_reset(self):
        machine = SimulatedMachine(4, seed=9)
        data = DistArray.from_list([np.arange(50) + 10 * i for i in range(4)])
        before = draw_samples_flat(
            data, 7, machine.sample_rng, 1, np.arange(4)
        )
        machine.advance(0, 1.0)
        machine.reset()
        after = draw_samples_flat(
            data, 7, machine.sample_rng, 1, np.arange(4)
        )
        assert np.array_equal(before.values, after.values)
        assert np.array_equal(before.offsets, after.offsets)

    def test_same_seed_same_machine_instance_independent(self):
        m1 = SimulatedMachine(3, seed=5)
        m2 = SimulatedMachine(3, seed=5)
        data = DistArray.from_list([np.arange(30) for _ in range(3)])
        s1 = draw_samples_flat(data, 5, m1.sample_rng, 0, np.arange(3))
        s2 = draw_samples_flat(data, 5, m2.sample_rng, 0, np.arange(3))
        assert np.array_equal(s1.values, s2.values)

    def test_draws_independent_of_other_streams(self):
        """Drawing a PE alone equals drawing it as part of the whole batch."""
        rng = CounterRNG(11)
        arrays = [np.arange(40) * 3 + i for i in range(6)]
        data = DistArray.from_list(arrays)
        batched = draw_samples_flat(data, 9, rng, 2, np.arange(6))
        for i in range(6):
            solo = draw_samples_flat(
                DistArray.from_list([arrays[i]]), 9, rng, 2,
                np.array([i]),
            )
            assert np.array_equal(batched.segment(i), solo.values), (
                f"PE {i} draws depend on the batching"
            )

    def test_draws_independent_of_level(self):
        rng = CounterRNG(0)
        data = DistArray.from_list([np.arange(100)])
        a = draw_samples_flat(data, 50, rng, 0, np.arange(1))
        b = draw_samples_flat(data, 50, rng, 1, np.arange(1))
        assert not np.array_equal(a.values, b.values)

    def test_multi_block_draw_matches_per_pe_wrapper(self):
        """A draw whose Philox lanes span several blocks and end inside
        one equals the per-PE reference wrapper, PE by PE."""
        rng = CounterRNG(8)
        params = SamplingParams(oversampling=14.5, overpartitioning=16)
        per_pe = params.samples_per_pe(1, 4)
        lanes_per_pe = (per_pe + 3) // 4
        p = (7 * _PHILOX_CHUNK) // (2 * lanes_per_pe)
        n_lanes = p * lanes_per_pe
        assert n_lanes > 3 * _PHILOX_CHUNK and n_lanes % _PHILOX_CHUNK
        sizes = np.random.default_rng(3).integers(1, 400, size=p)
        arrays = [np.arange(n) * 7 + i for i, n in enumerate(sizes)]
        flat = draw_samples_flat(
            DistArray.from_list(arrays), per_pe, rng, 1, np.arange(p)
        )
        for i in range(p):
            (solo,) = draw_samples(
                [arrays[i]], params, 1, 4, rng, 1, np.array([i])
            )
            assert np.array_equal(flat.segment(i), solo), f"PE {i} differs"

    def test_reference_wrapper_matches_flat(self):
        rng = CounterRNG(21)
        arrays = [np.arange(25) + i for i in range(5)]
        params = SamplingParams(oversampling=2, overpartitioning=3)
        ref = draw_samples(arrays, params, 5, 2, rng, 0, np.arange(5))
        flat = draw_samples_flat(
            DistArray.from_list(arrays),
            params.samples_per_pe(5, 2), rng, 0, np.arange(5),
        )
        for i, r in enumerate(ref):
            assert np.array_equal(r, flat.segment(i))


class TestSamplingEdgeCases:
    def test_overpartitioning_one(self):
        """b = 1 disables overpartitioning (classic sample sort)."""
        params = SamplingParams(oversampling=4, overpartitioning=1)
        assert params.num_buckets(8) == 8
        data = [np.arange(20) for _ in range(4)]
        samples = draw_samples(
            data, params, 4, 2, CounterRNG(0), 0, np.arange(4)
        )
        assert all(s.size == params.samples_per_pe(4, 2) for s in samples)

    def test_single_pe(self):
        params = SamplingParams(oversampling=2, overpartitioning=2)
        samples = draw_samples(
            [np.arange(10)], params, 1, 1, CounterRNG(0), 0, np.arange(1)
        )
        assert len(samples) == 1
        assert np.isin(samples[0], np.arange(10)).all()

    def test_empty_segments_contribute_nothing(self):
        data = DistArray.from_list(
            [np.arange(10), np.empty(0, dtype=np.int64), np.arange(5)]
        )
        out = draw_samples_flat(data, 4, CounterRNG(0), 0, np.arange(3))
        assert out.segment(0).size == 4
        assert out.segment(1).size == 0
        assert out.segment(2).size == 4

    def test_all_empty(self):
        data = DistArray.from_list([np.empty(0, dtype=np.int64)] * 3)
        out = draw_samples_flat(data, 4, CounterRNG(0), 0, np.arange(3))
        assert out.total == 0
        assert out.p == 3

    def test_per_segment_counts(self):
        data = DistArray.from_list([np.arange(30), np.arange(30)])
        out = draw_samples_flat(
            data, np.array([2, 5]), CounterRNG(0), 0, np.arange(2)
        )
        assert out.sizes().tolist() == [2, 5]

    def test_negative_counts_rejected(self):
        data = DistArray.from_list([np.arange(5)])
        with pytest.raises(ValueError):
            draw_samples_flat(
                data, np.array([-1]), CounterRNG(0), 0, np.arange(1)
            )

    def test_samples_come_from_own_segment(self):
        arrays = [np.full(20, i) for i in range(8)]
        out = draw_samples_flat(
            DistArray.from_list(arrays), 6, CounterRNG(5), 0, np.arange(8)
        )
        for i in range(8):
            assert (out.segment(i) == i).all()


segments_strategy = st.lists(
    st.lists(st.integers(-500, 500), min_size=0, max_size=30),
    min_size=1, max_size=140,
)


def per_segment_stable(arrays, dtype):
    """The reference engines' local sort: ``np.sort(kind="stable")`` per PE."""
    if not any(a.size for a in arrays):
        return np.empty(0, dtype=dtype)
    return np.concatenate([np.sort(a, kind="stable") for a in arrays])


def assert_sorts_like_reference(arrays):
    """The segmented sort returns the per-PE stable sorts' dtype and bytes."""
    dist = DistArray.from_list(arrays)
    out = segmented_sort_values(dist.values, dist.offsets)
    expected = per_segment_stable(arrays, dist.dtype)
    assert out.dtype == expected.dtype
    assert out.tobytes() == expected.tobytes()
    return out


def signed_zero_floats(rng, n):
    """Floats in {-2, ..., 2} whose zeros are half ``-0.0``, half ``0.0``."""
    a = rng.integers(-2, 3, size=n).astype(np.float64)
    a[(a == 0) & (rng.random(n) < 0.5)] = -0.0
    return a


class TestSegmentedSortOracle:
    @given(segments_strategy)
    @settings(max_examples=60, deadline=None)
    def test_matches_per_segment_sort(self, segs):
        assert_sorts_like_reference(
            [np.asarray(s, dtype=np.int64) for s in segs]
        )

    @given(st.integers(64, 200), st.integers(0, 12), st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_radix_composed_path_large_p(self, p, max_len, seed):
        """Many short bounded-range segments at p >= 64, ragged and empty
        ones included."""
        rng = np.random.default_rng(seed)
        assert_sorts_like_reference([
            rng.integers(-1000, 1000, size=rng.integers(0, max_len + 1))
            for _ in range(p)
        ])

    def test_padded_path_wide_values(self):
        """Near-uniform segments of wide 62-bit keys."""
        rng = np.random.default_rng(0)
        assert_sorts_like_reference([
            rng.integers(0, 2 ** 62, size=rng.integers(28, 33), dtype=np.int64)
            for _ in range(100)
        ])

    def test_values_equal_to_dtype_max(self):
        """Keys equal to the dtype maximum sort like any other key."""
        hi = np.iinfo(np.int64).max
        out = assert_sorts_like_reference(
            [np.array([hi, 3, hi], dtype=np.int64)] * 80
        )
        assert np.array_equal(out, np.tile([3, hi, hi], 80))

    def test_nan_segments_not_padded_away(self):
        """NaN keys take the stable sort: they end each segment, in input
        order, and no other key takes their place."""
        rng = np.random.default_rng(0)
        arrays = []
        for i in range(128):
            a = rng.normal(size=int(rng.integers(3, 6)))
            if i % 3 == 0:
                a[0] = np.nan
            arrays.append(a)
        # Long segments with NaNs of two payloads, where a default sort's
        # SIMD kernels would run.
        for _ in range(2):
            a = rng.normal(size=12_000)
            a[rng.integers(0, a.size, 50)] = np.nan
            a[rng.integers(0, a.size, 50)] = -np.nan
            arrays.append(a)
        out = assert_sorts_like_reference(arrays)
        assert not np.isinf(out).any()

    def test_uint64_beyond_int64_range(self):
        """uint64 keys above 2**63, in a narrow and in the full range."""
        rng = np.random.default_rng(0)
        base = np.uint64(2 ** 63)
        assert_sorts_like_reference([
            base + rng.integers(0, 512, size=5).astype(np.uint64)
            for _ in range(128)
        ])
        assert_sorts_like_reference([
            rng.integers(0, 2 ** 64, size=n, dtype=np.uint64)
            for n in (0, 7, 15_000, 30_000)
        ])

    @pytest.mark.parametrize(
        "dtype", [np.int32, np.int64, np.uint64, np.float32, np.float64]
    )
    def test_long_segments(self, dtype):
        """Segments of 10k keys and more, where numpy's SIMD sorts run on
        integer keys; floats include ``0.0`` and duplicates."""
        rng = np.random.default_rng(1)
        arrays = []
        for n in (10_000, 16_384, 40_000):
            a = rng.integers(-5_000, 5_000, size=n).astype(dtype)
            arrays.append(a)
            arrays.append(np.zeros(0, dtype=dtype))
        assert_sorts_like_reference(arrays)

    def test_signed_zeros_keep_stable_order(self):
        """``-0.0`` and ``0.0`` are equal keys with different bytes; their
        order must be the stable sort's, in short and in long segments."""
        rng = np.random.default_rng(2)
        assert_sorts_like_reference(
            [signed_zero_floats(rng, 100) for _ in range(64)]
        )
        assert_sorts_like_reference(
            [signed_zero_floats(rng, n) for n in (20_000, 5, 0)]
        )


class TestBucketizeOracle:
    @given(
        st.integers(1, 60),
        st.integers(1, 300),
        st.sampled_from(["left", "right"]),
        st.integers(0, 10_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_table_matches_searchsorted(self, n_bounds, n_queries, side, seed):
        rng = np.random.default_rng(seed)
        lo, hi = sorted(rng.integers(-10_000, 10_000, size=2))
        bounds = np.sort(rng.integers(lo, hi + 1, size=n_bounds))
        queries = rng.integers(lo - 100, hi + 100, size=n_queries)
        expected = np.searchsorted(bounds, queries, side=side)
        got = _bucketize_with_table(bounds, queries, side)
        assert np.array_equal(got, expected)

    def test_blockwise_engages_table_path(self):
        rng = np.random.default_rng(1)
        p = 3
        spl = np.sort(rng.integers(0, 2 ** 40, size=64 * p).reshape(p, 64),
                      axis=1).ravel()
        offs = np.arange(p + 1, dtype=np.int64) * 64
        queries = rng.integers(0, 2 ** 40, size=5000 * p)
        qoffs = np.arange(p + 1, dtype=np.int64) * 5000
        out = blockwise_searchsorted(spl, offs, queries, qoffs, side="right")
        expected = np.concatenate([
            np.searchsorted(
                spl[offs[s]:offs[s + 1]],
                queries[qoffs[s]:qoffs[s + 1]], side="right",
            )
            for s in range(p)
        ])
        assert np.array_equal(out, expected)

    def test_extreme_value_span_falls_back(self):
        bounds = np.array([-(2 ** 62) - 5, 2 ** 62 + 5])
        queries = np.array([-(2 ** 63) + 1, 0, 2 ** 62 + 10])
        assert np.array_equal(
            _bucketize_with_table(bounds, queries, "left"),
            np.searchsorted(bounds, queries, side="left"),
        )
