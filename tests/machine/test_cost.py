"""Tests for :mod:`repro.machine.cost`."""

import pytest

from repro.machine.cost import CostModel
from repro.machine.spec import supermuc_like
from repro.machine.topology import HierarchicalTopology


@pytest.fixture
def model():
    spec = supermuc_like()
    topo = HierarchicalTopology(64, cores_per_node=4, nodes_per_island=4)
    return CostModel(spec, topo)


class TestMessageAndCollectives:
    def test_collective_single_pe_free(self, model):
        assert model.collective_time(1, words=100) == 0.0

    def test_collective_log_growth(self, model):
        t2 = model.collective_time(2, words=1)
        t1024 = model.collective_time(1024, words=1)
        assert t1024 == pytest.approx(t2 * 10, rel=0.05)

    def test_collective_word_term(self, model):
        small = model.collective_time(16, words=1)
        big = model.collective_time(16, words=10000)
        assert big > small

    def test_collective_rounds_factor(self, model):
        gather = model.collective_time(16, words=10, rounds_factor=16)
        bcast = model.collective_time(16, words=10, rounds_factor=1)
        assert gather > bcast

    def test_collective_invalid_participants(self, model):
        with pytest.raises(ValueError):
            model.collective_time(0)


class TestStartupVsBandwidthRegimes:
    """Sanity checks that the calibration puts startups and bandwidth in a
    realistic relation — these relations are what make the multi-level
    algorithms pay off in the benchmarks."""

    def test_small_message_dominated_by_alpha(self):
        spec = supermuc_like()
        t = spec.alpha + 10 * spec.beta
        assert spec.alpha / t > 0.9

    def test_large_message_dominated_by_beta(self):
        spec = supermuc_like()
        t = spec.alpha + 10**7 * spec.beta
        assert (10**7 * spec.beta) / t > 0.9

    def test_p_startups_worse_than_sqrt_p_twice(self):
        # One Exch(P, h, r) = h * beta + r * alpha with p startups vs two
        # with sqrt(p) startups each: for small per-PE volume the
        # multi-level variant must win.
        spec = supermuc_like()
        h = 1000  # words per PE
        single = h * spec.beta + 4095 * spec.alpha
        multi = 2 * (h * spec.beta + 64 * spec.alpha)
        assert multi < single
