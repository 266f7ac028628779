"""Tests for :mod:`repro.blocks.feistel` (Appendix B)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.blocks.feistel import FeistelPermutation


class TestFeistelPermutation:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 100, 1000])
    def test_is_a_permutation(self, n):
        perm = FeistelPermutation(n, seed=42).permutation_array()
        assert sorted(perm.tolist()) == list(range(n))

    def test_deterministic_for_same_seed(self):
        a = FeistelPermutation(50, seed=1).permutation_array()
        b = FeistelPermutation(50, seed=1).permutation_array()
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = FeistelPermutation(100, seed=1).permutation_array()
        b = FeistelPermutation(100, seed=2).permutation_array()
        assert not np.array_equal(a, b)

    def test_scalar_and_array_apply_agree(self):
        perm = FeistelPermutation(64, seed=5)
        arr = perm.apply(np.arange(64))
        for i in (0, 13, 63):
            assert perm.apply(i) == arr[i]
        assert isinstance(perm.apply(3), int)

    def test_out_of_domain_rejected(self):
        perm = FeistelPermutation(10, seed=0)
        with pytest.raises(ValueError):
            perm.apply(10)
        with pytest.raises(ValueError):
            perm.apply(-1)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            FeistelPermutation(0)
        with pytest.raises(ValueError):
            FeistelPermutation(4, rounds=0)

    def test_not_identity_for_reasonable_sizes(self):
        # A pseudorandom permutation of 256 elements is essentially never the identity.
        perm = FeistelPermutation(256, seed=7).permutation_array()
        assert not np.array_equal(perm, np.arange(256))

    def test_spreads_consecutive_inputs(self):
        """Consecutive inputs should not stay consecutive (the whole point of
        randomising PE numbers during data delivery)."""
        perm = FeistelPermutation(1024, seed=11).permutation_array()
        gaps = np.abs(np.diff(perm.astype(np.int64)))
        assert np.median(gaps) > 10

    @given(st.integers(1, 400), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_property_bijection(self, n, seed):
        perm = FeistelPermutation(n, seed=seed).permutation_array()
        assert np.unique(perm).size == n
        assert perm.min() == 0 and perm.max() == n - 1
