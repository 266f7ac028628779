"""Tests for :mod:`repro.core.baselines`."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.baselines import (
    parallel_quicksort,
    single_level_mergesort,
    single_level_sample_sort,
)
from repro.core.validation import check_globally_sorted, check_permutation
from repro.machine.spec import laptop_like
from repro.sim.machine import SimulatedMachine
from repro.workloads.generators import per_pe_workload


ALGOS = {
    "samplesort": single_level_sample_sort,
    "mergesort": single_level_mergesort,
    "quicksort": parallel_quicksort,
}


def run_algo(func, p, n_per_pe, workload="uniform", seed=0, **kwargs):
    machine = SimulatedMachine(p, spec=laptop_like(), seed=seed)
    data = per_pe_workload(workload, p, n_per_pe, seed=seed)
    output = func(machine.world(), data, **kwargs)
    return machine, data, output


@pytest.mark.parametrize("name,func", sorted(ALGOS.items()))
class TestBaselineCorrectness:
    def test_sorted_permutation(self, name, func):
        machine, data, output = run_algo(func, 8, 200)
        assert check_globally_sorted(output)
        assert check_permutation(data, output)

    def test_single_pe(self, name, func):
        machine, data, output = run_algo(func, 1, 50)
        assert output[0].tolist() == sorted(data[0].tolist())

    def test_duplicates(self, name, func):
        machine, data, output = run_algo(func, 8, 100, workload="duplicates")
        assert check_globally_sorted(output)
        assert check_permutation(data, output)

    def test_all_equal(self, name, func):
        machine, data, output = run_algo(func, 4, 60, workload="all_equal")
        assert check_globally_sorted(output)
        assert check_permutation(data, output)

    def test_empty(self, name, func):
        machine = SimulatedMachine(4, spec=laptop_like())
        data = [np.empty(0, dtype=np.int64) for _ in range(4)]
        output = func(machine.world(), data)
        assert sum(o.size for o in output) == 0

    def test_wrong_arity(self, name, func):
        machine = SimulatedMachine(3, spec=laptop_like())
        with pytest.raises(ValueError):
            func(machine.world(), [np.array([1])])


class TestSampleSortSpecifics:
    def test_dense_schedule_startup_count(self):
        machine, _, _ = run_algo(single_level_sample_sort, 16, 100)
        # a dense all-to-allv costs p-1 startups per PE on the machine counters' view
        assert machine.counters.max_startups() <= 16


class TestMergesortSpecifics:
    def test_perfectly_balanced_output(self):
        machine, data, output = run_algo(single_level_mergesort, 8, 123)
        sizes = np.array([o.size for o in output])
        assert sizes.max() - sizes.min() <= 1


class TestQuicksortSpecifics:
    def test_moves_data_log_p_times(self):
        """Quicksort's total communication volume grows with log p — the
        'prohibitive communication volume' regime of the introduction."""
        m_small, _, _ = run_algo(parallel_quicksort, 4, 200, seed=1)
        m_big, _, _ = run_algo(parallel_quicksort, 16, 200, seed=1)
        vol_small = m_small.counters.total_volume() / (4 * 200)
        vol_big = m_big.counters.total_volume() / (16 * 200)
        assert vol_big > vol_small

    @given(st.integers(1, 8), st.integers(0, 40), st.integers(0, 100))
    @settings(max_examples=15, deadline=None)
    def test_property_sorted(self, p, n_per_pe, seed):
        machine = SimulatedMachine(p, spec=laptop_like(), seed=seed)
        rng = np.random.default_rng(seed)
        data = [rng.integers(0, 30, size=n_per_pe) for _ in range(p)]
        output = parallel_quicksort(machine.world(), data)
        assert check_globally_sorted(output)
        assert check_permutation(data, output)
