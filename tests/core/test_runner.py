"""Tests for :mod:`repro.core.runner`."""

import numpy as np
import pytest

from repro.core.config import AMSConfig, RLMConfig
from repro.core.runner import (
    ALGORITHMS,
    ENGINES,
    SortResult,
    distribute_array,
    run_on_machine,
    sort_array,
)
from repro.dist.array import DistArray
from repro.machine.counters import PAPER_PHASES
from repro.machine.spec import laptop_like
from repro.sim.machine import SimulatedMachine


class TestDistributeArray:
    def test_even_split(self):
        chunks = distribute_array(np.arange(100), 4)
        assert [c.size for c in chunks] == [25, 25, 25, 25]

    def test_uneven_split(self):
        chunks = distribute_array(np.arange(10), 3)
        assert sum(c.size for c in chunks) == 10
        assert len(chunks) == 3

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            distribute_array(np.arange(4), 0)


class TestSortArray:
    def test_quickstart_flow(self):
        rng = np.random.default_rng(0)
        data = rng.integers(0, 10**6, size=5000)
        result = sort_array(data, p=8, algorithm="ams",
                            config=AMSConfig(levels=2, node_size=2),
                            spec=laptop_like())
        assert np.array_equal(np.concatenate(result.output), np.sort(data))
        assert result.p == 8
        assert result.n_total == 5000
        assert result.total_time > 0

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_all_registered_algorithms(self, algorithm):
        rng = np.random.default_rng(1)
        data = rng.integers(0, 1000, size=800)
        config = None
        if algorithm == "ams":
            config = AMSConfig(levels=2, node_size=2)
        elif algorithm == "rlm":
            config = RLMConfig(levels=2, node_size=2)
        result = sort_array(data, p=8, algorithm=algorithm, config=config,
                            spec=laptop_like())
        assert np.array_equal(np.concatenate(result.output), np.sort(data))

    def test_algorithm_aliases(self):
        data = np.random.default_rng(2).integers(0, 100, 200)
        for alias in ("AMS-sort", "rlm-sort", "mp-sort", "sample-sort", "quick-sort"):
            result = sort_array(data, p=4, algorithm=alias, spec=laptop_like())
            assert np.array_equal(np.concatenate(result.output), np.sort(data))

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            sort_array(np.arange(10), p=2, algorithm="bogosort")


class TestRunOnMachine:
    def test_machine_reset_between_runs(self):
        machine = SimulatedMachine(4, spec=laptop_like())
        data = [np.random.default_rng(i).integers(0, 100, 100) for i in range(4)]
        r1 = run_on_machine(machine, data, algorithm="ams",
                            config=AMSConfig(node_size=2))
        r2 = run_on_machine(machine, data, algorithm="ams",
                            config=AMSConfig(node_size=2))
        assert r1.total_time == pytest.approx(r2.total_time)

    def test_wrong_arity(self):
        machine = SimulatedMachine(4, spec=laptop_like())
        with pytest.raises(ValueError):
            run_on_machine(machine, [np.arange(3)], algorithm="ams")

    def test_validation_catches_imbalance_bound(self):
        machine = SimulatedMachine(4, spec=laptop_like())
        data = [np.random.default_rng(i).integers(0, 100, 200) for i in range(4)]
        # an absurd bound of 0 imbalance must fail for AMS (it is only (1+eps)-balanced)
        with pytest.raises(AssertionError):
            run_on_machine(machine, data, algorithm="ams",
                           config=AMSConfig(node_size=2), max_imbalance=0.0)

    @staticmethod
    def _special_floats(with_nan):
        """12 PEs of ``[nan, r, -inf, inf, r]`` (``nan`` left out on request)."""
        rng = np.random.default_rng(0)
        head = [np.nan] if with_nan else []
        return [np.array(head + [r, -np.inf, np.inf, r]) for r in
                (rng.random() for _ in range(12))]

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_nan_keys_rejected(self, algorithm, engine):
        data = self._special_floats(with_nan=True)
        config = RLMConfig(levels=2) if algorithm == "rlm" else None
        for local in (data, DistArray.from_list(data)):
            machine = SimulatedMachine(12, spec=laptop_like())
            with pytest.raises(ValueError, match="cannot sort NaN keys"):
                run_on_machine(machine, local, algorithm=algorithm, config=config,
                               validate=False, engine=engine)

    @staticmethod
    def _non_numeric_keys(kind, p):
        """``p`` PEs of 20 keys each of a dtype the engines cannot order."""
        rng = np.random.default_rng(0)
        ints = [rng.integers(0, 100, 20) for _ in range(p)]
        if kind == "bool":
            return [a % 2 == 0 for a in ints]
        if kind == "object":
            return [a.astype(object) for a in ints]
        if kind == "complex":
            return [a + 1j * a for a in ints]
        out = []
        for a in ints:
            rec = np.zeros(a.size, dtype=[("key", np.int64), ("tag", np.int64)])
            rec["key"] = a
            rec["tag"] = np.arange(a.size)
            out.append(rec)
        return out

    @pytest.mark.parametrize("algorithm", ["ams", "rlm", "samplesort"])
    @pytest.mark.parametrize("p", [16, 64])
    @pytest.mark.parametrize("kind", ["bool", "object", "complex", "structured"])
    def test_non_numeric_keys_rejected(self, kind, p, algorithm):
        """The same clear error at every p, before any engine runs."""
        data = self._non_numeric_keys(kind, p)
        config = RLMConfig(levels=2) if algorithm == "rlm" else None
        for local in (data, DistArray.from_list(data)):
            machine = SimulatedMachine(p, spec=laptop_like())
            with pytest.raises(ValueError, match="cannot sort keys of dtype"):
                run_on_machine(machine, local, algorithm=algorithm, config=config)
            assert machine.elapsed() == 0.0

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_infinite_keys_sort(self, algorithm, engine):
        data = self._special_floats(with_nan=False)
        config = RLMConfig(levels=2) if algorithm == "rlm" else None
        machine = SimulatedMachine(12, spec=laptop_like())
        result = run_on_machine(machine, data, algorithm=algorithm, config=config,
                                engine=engine)
        assert np.array_equal(np.concatenate(result.output), np.sort(np.concatenate(data)))


class TestSortResult:
    def _result(self):
        data = np.random.default_rng(3).integers(0, 1000, 2000)
        return sort_array(data, p=8, algorithm="ams",
                          config=AMSConfig(levels=2, node_size=2), spec=laptop_like())

    def test_phase_times_present(self):
        result = self._result()
        for phase in PAPER_PHASES:
            assert phase in result.phase_times

    def test_phase_fraction_sums_below_one_plus_eps(self):
        result = self._result()
        total_fraction = sum(result.phase_fraction(ph) for ph in result.phase_times)
        assert 0.9 < total_fraction < 1.5  # phases overlap only via rounding
