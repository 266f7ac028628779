"""Tests for :mod:`repro.core.validation`."""

import numpy as np
import pytest

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
