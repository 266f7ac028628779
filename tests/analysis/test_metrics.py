"""Tests for :mod:`repro.analysis.metrics`."""

import pytest

from repro.analysis.metrics import slowdown, summarize_runs


class TestRatios:
    def test_slowdown(self):
        assert slowdown(2.0, 1.0) == 2.0
        with pytest.raises(ValueError):
            slowdown(1.0, 0.0)


class TestAggregation:
    def test_summarize_runs(self):
        stats = summarize_runs([1.0, 2.0, 4.0])
        assert stats["median"] == 2.0
        assert stats["min"] == 1.0
        assert stats["max"] == 4.0
        assert stats["spread"] == 3.0
        assert stats["relative_spread"] == pytest.approx(1.5)
        assert stats["runs"] == 3

    def test_summarize_empty(self):
        with pytest.raises(ValueError):
            summarize_runs([])
