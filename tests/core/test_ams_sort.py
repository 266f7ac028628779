"""Tests for :mod:`repro.core.ams_sort`."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.blocks.sampling import SamplingParams
from repro.core.ams_sort import _split_sizes, ams_sort
from repro.core.config import AMSConfig
from repro.core.validation import check_globally_sorted, check_permutation, output_imbalance
from repro.machine.counters import PAPER_PHASES
from repro.machine.spec import laptop_like
from repro.sim.comm import Comm
from repro.sim.machine import SimulatedMachine
from repro.workloads.generators import per_pe_workload


def run_ams(p, n_per_pe, workload="uniform", seed=0, **cfg_kwargs):
    machine = SimulatedMachine(p, spec=laptop_like(), seed=seed)
    data = per_pe_workload(workload, p, n_per_pe, seed=seed)
    config = AMSConfig(**cfg_kwargs) if cfg_kwargs else AMSConfig(node_size=4)
    output = ams_sort(machine.world(), data, config=config)
    return machine, data, output


class TestAMSCorrectness:
    @pytest.mark.parametrize("levels", [1, 2, 3])
    def test_sorted_permutation(self, levels):
        machine, data, output = run_ams(16, 300, levels=levels, node_size=4)
        assert check_globally_sorted(output)
        assert check_permutation(data, output)

    def test_single_pe(self):
        machine, data, output = run_ams(1, 100)
        assert output[0].tolist() == sorted(data[0].tolist())

    def test_two_pes(self):
        machine, data, output = run_ams(2, 50)
        assert check_globally_sorted(output)
        assert check_permutation(data, output)

    def test_non_power_of_two_pes(self):
        machine, data, output = run_ams(12, 200, levels=2, node_size=4)
        assert check_globally_sorted(output)
        assert check_permutation(data, output)

    @pytest.mark.parametrize("workload", ["uniform", "duplicates", "all_equal",
                                          "nearly_sorted", "reverse", "zipf", "staggered"])
    def test_adversarial_workloads(self, workload):
        machine, data, output = run_ams(8, 150, workload=workload, levels=2, node_size=4)
        assert check_globally_sorted(output)
        assert check_permutation(data, output)

    def test_empty_input(self):
        machine = SimulatedMachine(4, spec=laptop_like())
        data = [np.empty(0, dtype=np.int64) for _ in range(4)]
        output = ams_sort(machine.world(), data, config=AMSConfig(node_size=2))
        assert all(o.size == 0 for o in output)

    def test_tiny_input(self):
        machine = SimulatedMachine(8, spec=laptop_like())
        data = [np.array([i]) for i in range(8)]
        output = ams_sort(machine.world(), data, config=AMSConfig(node_size=2))
        assert check_permutation(data, output)
        assert check_globally_sorted(output)

    def test_unequal_local_sizes(self):
        machine = SimulatedMachine(6, spec=laptop_like())
        rng = np.random.default_rng(0)
        data = [rng.integers(0, 1000, size=s) for s in (0, 10, 500, 3, 77, 200)]
        output = ams_sort(machine.world(), data, config=AMSConfig(levels=2, node_size=2))
        assert check_globally_sorted(output)
        assert check_permutation(data, output)

    def test_wrong_arity(self):
        machine = SimulatedMachine(4, spec=laptop_like())
        with pytest.raises(ValueError):
            ams_sort(machine.world(), [np.array([1])])

    @pytest.mark.parametrize("delivery", ["naive", "randomized", "deterministic", "advanced"])
    def test_all_delivery_methods(self, delivery):
        machine, data, output = run_ams(8, 200, levels=2, node_size=4, delivery=delivery)
        assert check_globally_sorted(output)
        assert check_permutation(data, output)


class TestAMSBalance:
    def test_imbalance_small_with_overpartitioning(self):
        sampling = SamplingParams(oversampling=4, overpartitioning=16)
        machine, data, output = run_ams(16, 2000, levels=1, node_size=4, sampling=sampling)
        assert output_imbalance(output) < 0.25

    def test_overpartitioning_improves_balance(self):
        imb = {}
        for b in (1, 16):
            sampling = SamplingParams(oversampling=2, overpartitioning=b)
            _, _, output = run_ams(16, 2000, levels=1, node_size=4, sampling=sampling, seed=5)
            imb[b] = output_imbalance(output)
        assert imb[16] < imb[1]


class TestAMSInstrumentation:
    def test_phases_recorded(self):
        machine, _, _ = run_ams(16, 500, levels=2, node_size=4)
        phases = machine.breakdown.phases()
        for phase in PAPER_PHASES:
            assert phase in phases, f"missing phase {phase}"
            assert machine.breakdown.max_time(phase) > 0

    def test_multilevel_reduces_startups(self):
        """The central claim: with 2 levels each PE needs far fewer message
        startups than a single level with r = p groups."""
        m1, _, _ = run_ams(64, 200, levels=1, node_size=4, seed=1)
        m2, _, _ = run_ams(64, 200, levels=2, node_size=4, seed=1)
        s1 = m1.counters.max_startups()
        s2 = m2.counters.max_startups()
        assert s2 < s1

    def test_more_levels_move_more_data(self):
        m1, _, _ = run_ams(64, 200, levels=1, node_size=4, seed=2)
        m2, _, _ = run_ams(64, 200, levels=2, node_size=4, seed=2)
        assert m2.counters.total_volume() > m1.counters.total_volume() * 1.2

    def test_deterministic_given_seed(self):
        m1, _, out1 = run_ams(8, 300, levels=2, node_size=4, seed=3)
        m2, _, out2 = run_ams(8, 300, levels=2, node_size=4, seed=3)
        assert m1.elapsed() == pytest.approx(m2.elapsed())
        for a, b in zip(out1, out2):
            assert np.array_equal(a, b)


class TestAMSProperty:
    @given(
        st.integers(2, 10),
        st.integers(0, 60),
        st.integers(1, 3),
        st.integers(0, 500),
    )
    @settings(max_examples=20, deadline=None)
    def test_property_sorted_permutation(self, p, n_per_pe, levels, seed):
        machine = SimulatedMachine(p, spec=laptop_like(), seed=seed)
        rng = np.random.default_rng(seed)
        data = [rng.integers(0, 50, size=rng.integers(0, n_per_pe + 1)) for _ in range(p)]
        output = ams_sort(machine.world(), data,
                          config=AMSConfig(levels=levels, node_size=2))
        assert check_globally_sorted(output)
        assert check_permutation(data, output)


class TestLevelLayout:
    """The flat level layout every level executor hands to the delivery."""

    @given(st.lists(st.integers(1, 300), min_size=1, max_size=12),
           st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_split_sizes_match_comm_split(self, sizes, seed):
        """One call over a batch of islands gives each island's
        ``Comm.split`` group sizes, island after island."""
        p = np.array(sizes, dtype=np.int64)
        r = np.random.default_rng(seed).integers(1, p + 1)
        machine = SimulatedMachine(int(p.max()), spec=laptop_like())
        want = [
            g.size for pk, rk in zip(p.tolist(), r.tolist())
            for g in Comm(machine, np.arange(pk)).split(rk)
        ]
        got = _split_sizes(p, r)
        assert got.dtype == np.int64
        assert got.tolist() == want
