"""Tests for :mod:`repro.core.validation`."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.validation import (
    check_globally_sorted,
    check_permutation,
    output_imbalance,
    validate_output,
)


class TestGloballySorted:
    def test_sorted_output(self):
        assert check_globally_sorted([np.array([1, 2]), np.array([3, 4])])

    def test_unsorted_within_pe(self):
        assert not check_globally_sorted([np.array([2, 1]), np.array([3])])

    def test_boundary_violation(self):
        assert not check_globally_sorted([np.array([1, 5]), np.array([4, 6])])

    def test_empty_pes_allowed(self):
        assert check_globally_sorted([np.array([1]), np.empty(0), np.array([2])])

    def test_equal_boundary_values_allowed(self):
        assert check_globally_sorted([np.array([1, 3]), np.array([3, 4])])


class TestPermutation:
    def test_permutation_holds(self):
        inp = [np.array([3, 1]), np.array([2])]
        out = [np.array([1, 2]), np.array([3])]
        assert check_permutation(inp, out)

    def test_missing_element(self):
        assert not check_permutation([np.array([1, 2])], [np.array([1])])

    def test_changed_element(self):
        assert not check_permutation([np.array([1, 2])], [np.array([1, 3])])

    def test_empty(self):
        assert check_permutation([np.empty(0)], [np.empty(0), np.empty(0)])


class TestImbalance:
    def test_balanced(self):
        assert output_imbalance([np.arange(10), np.arange(10)]) == pytest.approx(0.0)

    def test_imbalanced(self):
        assert output_imbalance([np.arange(15), np.arange(5)]) == pytest.approx(0.5)

    def test_empty(self):
        assert output_imbalance([np.empty(0), np.empty(0)]) == 0.0


class TestValidateOutput:
    def test_passes_and_reports(self):
        inp = [np.array([3, 1]), np.array([2, 4])]
        out = [np.array([1, 2]), np.array([3, 4])]
        report = validate_output(inp, out)
        assert report["globally_sorted"] and report["permutation"]
        assert report["total_elements"] == 4

    def test_raises_on_unsorted(self):
        with pytest.raises(AssertionError):
            validate_output([np.array([1, 2])], [np.array([2, 1])])

    def test_raises_on_lost_elements(self):
        with pytest.raises(AssertionError):
            validate_output([np.array([1, 2])], [np.array([1])])

    def test_raises_on_excess_imbalance(self):
        inp = [np.arange(10), np.arange(10)]
        out = [np.sort(np.concatenate(inp)), np.empty(0, dtype=np.int64)]
        with pytest.raises(AssertionError):
            validate_output(inp, out, max_imbalance=0.5)


def _loop_globally_sorted(output):
    """The per-PE loop the flat check replaced (reference)."""
    prev_max = None
    for arr in output:
        if arr.size == 0:
            continue
        if arr.size > 1 and np.any(arr[1:] < arr[:-1]):
            return False
        if prev_max is not None and arr[0] < prev_max:
            return False
        prev_max = arr[-1]
    return True


def _loop_permutation(input_data, output):
    """Both sides stably sorted and compared (reference)."""
    all_in = np.sort(np.concatenate(input_data), kind="stable")
    all_out = np.sort(np.concatenate(output), kind="stable")
    return bool(np.array_equal(all_in, all_out))


class TestMatchesPerPELoop:
    @given(
        st.lists(st.lists(st.integers(-3, 3), max_size=5), min_size=1, max_size=6),
        st.booleans(),
        st.sampled_from(["same", "drop", "alter"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_verdicts_match_reference(self, per_pe, presort, change):
        sizes = np.array([len(x) for x in per_pe], dtype=np.int64)
        flat = np.array([v for x in per_pe for v in x], dtype=np.int64)
        if presort:
            flat = np.sort(flat)
        output = np.split(flat, np.cumsum(sizes)[:-1])
        inp = [np.array(x[::-1], dtype=np.int64) for x in per_pe]
        k = next((i for i, a in enumerate(inp) if a.size), None)
        if k is not None and change == "drop":
            inp[k] = inp[k][1:]
        elif k is not None and change == "alter":
            inp[k] = inp[k] + np.arange(inp[k].size) + 1

        sorted_ok = _loop_globally_sorted(output)
        perm_ok = _loop_permutation(inp, output)
        assert check_globally_sorted(output) == sorted_ok
        assert check_permutation(inp, output) == perm_ok
        if sorted_ok and perm_ok:
            validate_output(inp, output)
        else:
            match = "not globally sorted" if not sorted_ok else "not a permutation"
            with pytest.raises(AssertionError, match=match):
                validate_output(inp, output)
