"""End-to-end integration tests across the whole stack.

These tests exercise the public API the way the examples and the benchmark
harness do: build a machine, generate a workload, run an algorithm, check
the output and the reported statistics, and verify the paper's headline
qualitative claims on the simulated machine.
"""

import numpy as np
import pytest

from repro import (
    AMSConfig,
    RLMConfig,
    SimulatedMachine,
    ams_sort,
    laptop_like,
    rlm_sort,
    run_on_machine,
    sort_array,
    supermuc_like,
)
from repro.analysis.theory import startup_bound_multilevel
from repro.core.runner import distribute_array
from repro.machine.counters import PHASE_DATA_DELIVERY, PHASE_LOCAL_SORT
from repro.workloads.generators import per_pe_workload, tiny_pieces_worst_case
from repro.workloads.morton import particle_morton_keys
from repro.workloads.records import generate_records, record_keys


class TestPublicAPI:
    def test_quickstart_snippet(self):
        rng = np.random.default_rng(0)
        data = rng.integers(0, 10**9, size=20_000)
        result = sort_array(data, p=16, algorithm="ams",
                            config=AMSConfig(levels=2, node_size=4))
        assert np.array_equal(np.concatenate(result.output), np.sort(data))
        assert result.imbalance < 0.5
        assert set(result.phase_times) >= {PHASE_DATA_DELIVERY, PHASE_LOCAL_SORT}

    def test_float_keys_supported(self):
        rng = np.random.default_rng(1)
        data = rng.random(5000)
        result = sort_array(data, p=8, algorithm="rlm",
                            config=RLMConfig(levels=2, node_size=2), spec=laptop_like())
        assert np.allclose(np.concatenate(result.output), np.sort(data))

    def test_records_workflow(self):
        """Sort-benchmark records: sort by packed key, as the minute-sort example does."""
        records = generate_records(4000, rng=2)
        keys = record_keys(records)
        result = sort_array(keys, p=8, algorithm="ams",
                            config=AMSConfig(levels=2, node_size=2), spec=laptop_like())
        assert np.array_equal(np.concatenate(result.output), np.sort(keys))

    def test_spacefilling_curve_workflow(self):
        """The introduction's motivating application: sort particles by Morton key."""
        rng = np.random.default_rng(3)
        positions = rng.random((8000, 3))
        keys = particle_morton_keys(positions, bits=12, bounds=(0.0, 1.0))
        result = sort_array(keys, p=16, algorithm="ams",
                            config=AMSConfig(levels=2, node_size=4), spec=laptop_like())
        out = np.concatenate(result.output)
        assert np.array_equal(out, np.sort(keys))
        # the per-PE pieces partition the curve into contiguous ranges
        maxima = [o.max() for o in result.output if o.size]
        assert maxima == sorted(maxima)


class TestPaperClaims:
    """Qualitative claims of the paper checked on the simulator."""

    def test_startup_counts_follow_k_times_kth_root(self):
        p = 64
        data = per_pe_workload("uniform", p, 200, seed=0)
        startups = {}
        for levels in (1, 2, 3):
            machine = SimulatedMachine(p, spec=supermuc_like(), seed=0)
            run_on_machine(machine, data, algorithm="ams",
                           config=AMSConfig(levels=levels, node_size=4))
            startups[levels] = machine.counters.max_startups()
        # multi-level runs need far fewer startups than the single-level run
        assert startups[2] < startups[1]
        assert startups[1] >= p - 10
        assert startups[2] <= 4 * startup_bound_multilevel(p, 2)

    def test_ams_faster_than_rlm_for_small_inputs(self):
        """Figure 7's headline: AMS-sort beats RLM-sort, especially for small n/p."""
        p, n_per_pe = 32, 200
        data = per_pe_workload("uniform", p, n_per_pe, seed=1)
        m_ams = SimulatedMachine(p, spec=supermuc_like(), seed=1)
        m_rlm = SimulatedMachine(p, spec=supermuc_like(), seed=1)
        ams_res = run_on_machine(m_ams, data, algorithm="ams",
                                 config=AMSConfig(levels=2, node_size=16))
        rlm_res = run_on_machine(m_rlm, data, algorithm="rlm",
                                 config=RLMConfig(levels=2, node_size=16))
        assert ams_res.total_time < rlm_res.total_time

    def test_multilevel_beats_single_level_at_scale(self):
        """Multi-level AMS-sort beats the dense single-level sample sort when p
        is large relative to n/p (the regime the paper targets)."""
        p, n_per_pe = 256, 200
        data = per_pe_workload("uniform", p, n_per_pe, seed=2)
        m_multi = SimulatedMachine(p, spec=supermuc_like(), seed=2)
        m_single = SimulatedMachine(p, spec=supermuc_like(), seed=2)
        multi = run_on_machine(m_multi, data, algorithm="ams",
                               config=AMSConfig(levels=2, node_size=16))
        single = run_on_machine(m_single, data, algorithm="samplesort")
        assert multi.total_time < single.total_time

    def test_ams_output_imbalance_bounded(self):
        p = 16
        data = per_pe_workload("uniform", p, 3000, seed=3)
        machine = SimulatedMachine(p, spec=supermuc_like(), seed=3)
        result = run_on_machine(machine, data, algorithm="ams",
                                config=AMSConfig(levels=2, node_size=4))
        assert result.imbalance < 0.3

    def test_worst_case_input_handled_by_deterministic_delivery(self):
        """The adversarial tiny-pieces input from Section 4.3 sorts correctly and
        without concentrating messages when the two-phase delivery is used."""
        p = 16
        data = tiny_pieces_worst_case(p=p, r=4, n_per_pe=500, seed=4)
        machine = SimulatedMachine(p, spec=laptop_like(), seed=4)
        result = run_on_machine(machine, data, algorithm="ams",
                                config=AMSConfig(levels=2, node_size=4,
                                                 delivery="deterministic"))
        assert result.total_time > 0
        assert machine.counters.max_startups() < p * 3


class TestCrossAlgorithmAgreement:
    @pytest.mark.parametrize("workload", ["uniform", "zipf", "duplicates"])
    def test_all_algorithms_agree(self, workload):
        p = 8
        data = per_pe_workload(workload, p, 300, seed=5)
        expected = np.sort(np.concatenate(data))
        for algorithm, config in [
            ("ams", AMSConfig(levels=2, node_size=2)),
            ("rlm", RLMConfig(levels=2, node_size=2)),
            ("samplesort", None),
            ("mergesort", None),
            ("quicksort", None),
        ]:
            machine = SimulatedMachine(p, spec=laptop_like(), seed=5)
            result = run_on_machine(machine, data, algorithm=algorithm, config=config)
            assert np.array_equal(np.concatenate(result.output), expected), algorithm

    def test_distribute_then_sort_matches_numpy(self):
        data = np.random.default_rng(6).integers(-10**9, 10**9, 30_000)
        local = distribute_array(data, 12)
        machine = SimulatedMachine(12, spec=laptop_like(), seed=6)
        result = run_on_machine(machine, local, algorithm="ams",
                                config=AMSConfig(levels=2, node_size=4))
        assert np.array_equal(np.concatenate(result.output), np.sort(data))
