"""Tests for :mod:`repro.blocks.tiebreak` (Appendix D)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.blocks.tiebreak import (
    can_encode_inline,
    make_unique_keys,
    original_positions,
    strip_tiebreak,
)


class TestInlineEncoding:
    def test_small_integer_keys_inline(self):
        data = [np.array([5, 5, 3]), np.array([5, 1])]
        assert can_encode_inline(data)
        unique, info = make_unique_keys(data)
        assert info["mode"] == "inline"
        all_keys = np.concatenate(unique)
        assert np.unique(all_keys).size == 5  # all unique now

    def test_order_preserved(self):
        data = [np.array([2, 1, 2]), np.array([1, 2])]
        unique, info = make_unique_keys(data)
        merged = np.sort(np.concatenate(unique))
        restored = strip_tiebreak([merged], info)[0]
        assert restored.tolist() == [1, 1, 2, 2, 2]

    def test_ties_broken_by_global_position(self):
        data = [np.array([7, 7]), np.array([7])]
        unique, info = make_unique_keys(data)
        merged = np.sort(np.concatenate(unique))
        positions = original_positions([merged], info)[0]
        assert positions.tolist() == [0, 1, 2]

    def test_negative_keys(self):
        data = [np.array([-5, -5, 0]), np.array([-5, 3])]
        unique, info = make_unique_keys(data)
        merged = np.sort(np.concatenate(unique))
        restored = strip_tiebreak([merged], info)[0]
        assert restored.tolist() == [-5, -5, -5, 0, 3]

    def test_roundtrip_per_pe(self):
        data = [np.array([9, 1]), np.array([4])]
        unique, info = make_unique_keys(data)
        restored = strip_tiebreak(unique, info)
        for orig, rest in zip(data, restored):
            assert orig.tolist() == rest.tolist()

    def test_empty_input(self):
        unique, info = make_unique_keys([np.empty(0, dtype=np.int64)])
        assert unique[0].size == 0


class TestNoInlineEncoding:
    """Keys without room for the index bits are rejected: no engine sorts a
    wider composite key."""

    def test_float_keys_rejected(self):
        data = [np.array([1.5, 1.5]), np.array([0.5])]
        assert not can_encode_inline(data)
        with pytest.raises(ValueError, match="inline int64"):
            make_unique_keys(data)

    def test_huge_integers_rejected(self):
        data = [np.array([2**62, 2**62]), np.array([2**61])]
        assert not can_encode_inline(data)
        with pytest.raises(ValueError, match="inline int64"):
            make_unique_keys(data)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            strip_tiebreak([np.array([1])], {"mode": "bogus"})
        with pytest.raises(ValueError):
            original_positions([np.array([1])], {"mode": "bogus"})


class TestTiebreakProperties:
    @given(st.lists(st.lists(st.integers(-1000, 1000), max_size=20), min_size=1, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_property_uniqueness_and_order(self, per_pe):
        data = [np.asarray(x, dtype=np.int64) for x in per_pe]
        unique, info = make_unique_keys(data)
        all_unique = np.concatenate(unique) if any(u.size for u in unique) else np.empty(0)
        # uniqueness
        assert np.unique(all_unique).size == all_unique.size
        # sorting composite keys then stripping equals a stable sort of the originals
        order = np.argsort(all_unique, kind="stable")
        restored = strip_tiebreak([all_unique[order]], info)[0]
        originals = np.concatenate(data) if any(d.size for d in data) else np.empty(0)
        assert restored.tolist() == sorted(originals.tolist())
