"""Tests for :mod:`repro.blocks.grouping` (bucket grouping, Lemma 1 / Appendix C)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.blocks.grouping import (
    group_sizes_from_boundaries,
    optimal_bucket_grouping,
    optimal_max_load_dp,
    scan_buckets_with_bound,
)


class TestScanWithBound:
    def test_feasible(self):
        boundaries = scan_buckets_with_bound([3, 3, 3, 3], 2, 6)
        assert boundaries is not None
        loads = group_sizes_from_boundaries([3, 3, 3, 3], boundaries)
        assert loads.max() <= 6
        assert loads.sum() == 12

    def test_infeasible_bucket_too_large(self):
        assert scan_buckets_with_bound([10, 1], 2, 5) is None

    def test_infeasible_too_many_groups_needed(self):
        assert scan_buckets_with_bound([4, 4, 4, 4], 2, 4) is None

    def test_exact_fit(self):
        boundaries = scan_buckets_with_bound([2, 2, 2, 2], 2, 4)
        assert boundaries is not None
        assert group_sizes_from_boundaries([2, 2, 2, 2], boundaries).tolist() == [4, 4]

    def test_trailing_empty_groups(self):
        boundaries = scan_buckets_with_bound([1, 1], 4, 10)
        assert boundaries is not None
        assert len(boundaries) == 5
        loads = group_sizes_from_boundaries([1, 1], boundaries)
        assert loads.tolist() == [2, 0, 0, 0]

    def test_zero_groups_rejected(self):
        with pytest.raises(ValueError):
            scan_buckets_with_bound([1], 0, 1)

    def test_negative_bound(self):
        assert scan_buckets_with_bound([1], 1, -1) is None


class TestOptimalGrouping:
    @pytest.mark.parametrize("method", ["binary", "accelerated"])
    def test_matches_dp_optimum_small(self, method):
        rng = np.random.default_rng(0)
        for _ in range(10):
            sizes = rng.integers(0, 20, size=rng.integers(1, 12)).tolist()
            r = int(rng.integers(1, 5))
            result = optimal_bucket_grouping(sizes, r, method=method)
            assert result.max_load == optimal_max_load_dp(sizes, r)

    def test_boundaries_consistent_with_loads(self):
        sizes = [5, 1, 7, 2, 2, 9]
        result = optimal_bucket_grouping(sizes, 3)
        loads = group_sizes_from_boundaries(sizes, result.boundaries)
        assert np.array_equal(loads, result.group_loads)
        assert loads.sum() == sum(sizes)
        assert result.max_load <= result.bound

    def test_single_group(self):
        result = optimal_bucket_grouping([1, 2, 3], 1)
        assert result.max_load == 6

    def test_more_groups_than_buckets(self):
        result = optimal_bucket_grouping([4, 4], 5)
        assert result.max_load == 4
        assert len(result.group_loads) == 5

    def test_empty_buckets(self):
        result = optimal_bucket_grouping([0, 0, 0], 2)
        assert result.max_load == 0
        assert result.group_loads.sum() == 0

    def test_no_buckets(self):
        result = optimal_bucket_grouping([], 3)
        assert result.max_load == 0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            optimal_bucket_grouping([1, -2], 2)
        with pytest.raises(ValueError):
            optimal_bucket_grouping([1], 0)
        with pytest.raises(ValueError):
            optimal_bucket_grouping([1], 1, method="magic")

    def test_accelerated_uses_fewer_scans_than_binary(self):
        rng = np.random.default_rng(1)
        sizes = rng.integers(0, 1000, size=256).tolist()
        binary = optimal_bucket_grouping(sizes, 16, method="binary")
        accel = optimal_bucket_grouping(sizes, 16, method="accelerated")
        assert accel.max_load == binary.max_load
        assert accel.scan_calls <= binary.scan_calls

    def test_overpartitioning_scenario(self):
        """b*r buckets of roughly n/(b*r) elements each grouped into r groups
        should give an imbalance well below 1/b (the Lemma 2 situation)."""
        rng = np.random.default_rng(2)
        b, r = 16, 8
        n = 10**6
        sizes = rng.multinomial(n, np.ones(b * r) / (b * r))
        result = optimal_bucket_grouping(sizes, r)
        imbalance = result.max_load / (n / r) - 1.0
        assert imbalance < 1.0 / b

    @given(
        st.lists(st.integers(0, 30), min_size=1, max_size=14),
        st.integers(1, 6),
        st.sampled_from(["binary", "accelerated"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_optimality(self, sizes, r, method):
        result = optimal_bucket_grouping(sizes, r, method=method)
        assert result.max_load == optimal_max_load_dp(sizes, r)
        loads = group_sizes_from_boundaries(sizes, result.boundaries)
        assert int(loads.sum()) == sum(sizes)
        # boundaries are monotone and cover all buckets
        assert result.boundaries[0] == 0
        assert result.boundaries[-1] == len(sizes)
        assert np.all(np.diff(result.boundaries) >= 0)
