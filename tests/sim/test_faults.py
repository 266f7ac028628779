"""Tests for :mod:`repro.sim.faults`.

The load-bearing guarantees, in order of importance:

* **Byte-identity when off** — a machine with no plan, a default plan and an
  all-zero plan produce bit-identical clocks, phase breakdowns and counters.
* **Determinism when on** — same plan + seed, same faulted clocks, across
  ``machine.reset()`` and across fresh machines.
* **Engine equivalence under faults** — the flat and reference engines charge
  byte-identical faulted clocks (fault draws are keyed by per-PE state, not
  by call batching).
* **Retry accounting** — recovery cost is zero at drop rate zero and monotone
  non-decreasing in the drop rate (exact, per the truncated-geometric draw),
  verified as a Hypothesis property on a direct exchange harness.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.runner import run_on_machine
from repro.dist.backend import use_backend
from repro.machine.counters import FaultCounters
from repro.sim.faults import FaultPlan, FaultState, parse_fault_spec
from repro.sim.machine import SimulatedMachine
from repro.workloads.generators import per_pe_workload


ACTIVE_SPEC = "seed:5,stragglers:0.25,droprate:0.2"


def _run(machine, p=8, n_per_pe=60, algorithm="ams", engine="flat", seed=3):
    data = per_pe_workload("uniform", p, n_per_pe, seed=seed)
    return run_on_machine(machine, data, algorithm=algorithm, engine=engine)


def _machine_state(machine):
    """Everything the byte-identity pin compares."""
    return (
        machine.clock.copy(),
        {ph: machine.breakdown.per_pe(ph) for ph in machine.breakdown.phases()},
        machine.counters.summary(),
    )


def _assert_state_equal(a, b):
    clock_a, phases_a, traffic_a = a
    clock_b, phases_b, traffic_b = b
    assert np.array_equal(clock_a, clock_b)
    assert phases_a.keys() == phases_b.keys()
    for ph in phases_a:
        assert np.array_equal(phases_a[ph], phases_b[ph])
    assert traffic_a == traffic_b


class TestSpecParsing:
    def test_round_trip(self):
        plan = parse_fault_spec("stragglers:0.25,droprate:0.1,seed:7")
        assert plan.straggler_fraction == 0.25
        assert plan.drop_rate == 0.1
        assert plan.seed == 7
        assert parse_fault_spec(plan.spec()) == plan

    def test_empty_and_none(self):
        assert parse_fault_spec(None) is None
        assert parse_fault_spec("") is None
        assert parse_fault_spec("  ") is None

    def test_plan_passthrough(self):
        plan = FaultPlan(drop_rate=0.1)
        assert parse_fault_spec(plan) is plan

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="droprate"):
            parse_fault_spec("dorprate:0.1")

    def test_bad_value(self):
        with pytest.raises(ValueError, match="expected float"):
            parse_fault_spec("droprate:often")

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_rate=1.0)  # geometric draw needs q < 1
        with pytest.raises(ValueError):
            FaultPlan(straggler_fraction=1.5)
        with pytest.raises(ValueError):
            FaultPlan(straggler_factor=0.5)
        with pytest.raises(ValueError):
            FaultPlan(resend_fraction=1.5)
        with pytest.raises(ValueError):
            FaultPlan(max_retries=-1)
        with pytest.raises(ValueError):
            FaultPlan(timeout_rounds=-1.0)

    def test_default_plan_is_disabled(self):
        assert not FaultPlan().enabled
        assert FaultPlan().spec() == ""

    def test_zero_rate_plan_is_disabled(self):
        # Factors without rates (and vice versa) inject nothing.
        assert not FaultPlan(straggler_factor=8.0).enabled
        assert not FaultPlan(straggler_fraction=0.5, straggler_factor=1.0).enabled
        assert not FaultPlan(max_retries=8, timeout_rounds=16.0).enabled
        assert FaultPlan(straggler_fraction=0.5).enabled
        assert FaultPlan(drop_rate=0.01).enabled


class TestFaultFreeByteIdentity:
    @pytest.mark.parametrize("backend", ["numpy"])
    @pytest.mark.parametrize("faults", [None, "", FaultPlan(),
                                        FaultPlan(seed=9)])
    def test_no_plan_equals_disabled_plan(self, backend, faults):
        with use_backend(backend):
            base = SimulatedMachine(8, seed=1)
            _run(base)
            other = SimulatedMachine(8, seed=1, faults=faults)
            assert other.faults is None  # nothing to inject -> no fault state
            _run(other)
        _assert_state_equal(_machine_state(base), _machine_state(other))

    def test_summary_dict_has_no_faults_key_when_healthy(self):
        machine = SimulatedMachine(8, seed=1)
        result = _run(machine)
        assert "faults" not in result.summary_dict()

    def test_summary_dict_gains_faults_key_when_active(self):
        machine = SimulatedMachine(8, seed=1, faults="droprate:0.3")
        result = _run(machine)
        summary = result.summary_dict()
        assert summary["faults"]["spec"] == "droprate:0.3"
        assert summary["faults"]["recovery_s"] >= 0.0


class TestDeterminism:
    def test_identical_runs_bit_identical(self):
        a = SimulatedMachine(8, seed=1, faults=ACTIVE_SPEC)
        _run(a)
        b = SimulatedMachine(8, seed=1, faults=ACTIVE_SPEC)
        _run(b)
        _assert_state_equal(_machine_state(a), _machine_state(b))
        assert a.faults.counters.summary() == b.faults.counters.summary()

    def test_deterministic_across_reset(self):
        machine = SimulatedMachine(8, seed=1, faults=ACTIVE_SPEC)
        _run(machine)
        first = _machine_state(machine)
        first_faults = machine.faults.counters.summary()
        _run(machine)  # run_on_machine resets the machine (and the tallies)
        _assert_state_equal(first, _machine_state(machine))
        assert machine.faults.counters.summary() == first_faults

    def test_reset_clears_tallies(self):
        machine = SimulatedMachine(8, seed=1, faults="droprate:0.3")
        _run(machine)
        assert machine.faults.counters.summary()["recovery_s"] > 0.0
        machine.reset()
        assert machine.faults.counters.summary()["recovery_s"] == 0.0

    def test_outputs_untouched_by_faults(self):
        # Fault streams are salted away from the sampling streams: the
        # sorted output (and every split decision behind it) is identical.
        clean = SimulatedMachine(8, seed=1)
        r0 = _run(clean)
        faulty = SimulatedMachine(8, seed=1, faults=ACTIVE_SPEC)
        r1 = _run(faulty)
        for a, b in zip(r0.output, r1.output):
            assert np.array_equal(a, b)
        assert faulty.clock.max() > clean.clock.max()


class TestEngineEquivalence:
    @pytest.mark.parametrize(
        "algorithm", ["ams", "rlm", "samplesort", "mergesort", "quicksort"]
    )
    def test_flat_equals_reference_under_faults(self, algorithm):
        flat = SimulatedMachine(16, seed=2, faults=ACTIVE_SPEC)
        _run(flat, p=16, algorithm=algorithm, engine="flat")
        ref = SimulatedMachine(16, seed=2, faults=ACTIVE_SPEC)
        _run(ref, p=16, algorithm=algorithm, engine="reference")
        _assert_state_equal(_machine_state(flat), _machine_state(ref))
        assert flat.faults.counters.summary() == ref.faults.counters.summary()


class TestStragglerScaling:
    def test_uniform_factor_scales_clocks_exactly(self):
        # stragglers:1 slow:2 multiplies every charge by exactly 2.0, and
        # IEEE doubling distributes over sums: total == 2 * clean total.
        clean = SimulatedMachine(8, seed=1)
        _run(clean)
        slowed = SimulatedMachine(8, seed=1, faults="stragglers:1.0,slow:2.0")
        _run(slowed)
        assert np.array_equal(slowed.clock, 2.0 * clean.clock)
        assert slowed.faults.counters.summary()["straggle_s"] > 0.0


# --------------------------------------------------------------------------
# Hypothesis properties: retry accounting on a direct exchange harness.
# --------------------------------------------------------------------------
def _exchange_recovery(drop_rate, h, r, p=8, seed=0, max_retries=3):
    """Recovery cost of one synthetic exchange round under ``drop_rate``."""
    if drop_rate == 0.0:
        return 0.0
    state = FaultState(
        FaultPlan(seed=seed, drop_rate=drop_rate, max_retries=max_retries), p
    )
    members = np.arange(p, dtype=np.int64)
    extra = state.exchange_extra(
        members,
        np.zeros(p, dtype=np.int64),
        np.full(p, h, dtype=np.int64),
        np.full(p, r, dtype=np.int64),
        alpha=1e-5,
        beta=2.5e-9,
    )
    assert np.allclose(extra.sum(), state.counters.recovery_s.sum())
    return float(state.counters.recovery_s.sum())


class TestRetryAccounting:
    @given(
        rates=st.lists(
            st.floats(min_value=0.0, max_value=0.95, allow_nan=False),
            min_size=2, max_size=6,
        ),
        h=st.integers(min_value=0, max_value=10**6),
        r=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_recovery_monotone_in_drop_rate(self, rates, h, r, seed):
        # Fixed seed => fixed uniforms => the truncated geometric failure
        # count is monotone non-decreasing in the drop rate, exactly.
        costs = [_exchange_recovery(q, h, r, seed=seed) for q in sorted(rates)]
        assert all(b >= a for a, b in zip(costs, costs[1:]))

    @given(
        h=st.integers(min_value=0, max_value=10**6),
        r=st.integers(min_value=0, max_value=64),
    )
    @settings(max_examples=20, deadline=None)
    def test_zero_drop_rate_costs_nothing(self, h, r):
        assert _exchange_recovery(0.0, h, r) == 0.0

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_idle_pes_unaffected(self, seed):
        # A PE with nothing to send or receive never pays recovery cost.
        state = FaultState(FaultPlan(seed=seed, drop_rate=0.9), 4)
        extra = state.exchange_extra(
            np.arange(4, dtype=np.int64),
            np.zeros(4, dtype=np.int64),
            np.array([100, 0, 50, 0], dtype=np.int64),
            np.array([2, 0, 1, 0], dtype=np.int64),
            alpha=1e-5,
            beta=2.5e-9,
        )
        assert extra[1] == 0.0 and extra[3] == 0.0

    def test_max_retries_caps_failures(self):
        state = FaultState(FaultPlan(drop_rate=0.95, max_retries=2), 64)
        state.exchange_extra(
            np.arange(64, dtype=np.int64),
            np.zeros(64, dtype=np.int64),
            np.full(64, 100, dtype=np.int64),
            np.full(64, 4, dtype=np.int64),
            alpha=1e-5,
            beta=2.5e-9,
        )
        assert state.counters.dropped_rounds.max() <= 2

    def test_deterministic_across_machine_reset(self):
        machine = SimulatedMachine(8, seed=1, faults="droprate:0.3")
        _run(machine)
        first = machine.faults.counters.summary()
        assert first["recovery_s"] > 0.0
        _run(machine)
        assert machine.faults.counters.summary() == first


class TestFaultCounters:
    def test_summary_keys_and_reset(self):
        counters = FaultCounters(4)
        counters.dropped_rounds[1] = 3
        counters.recovery_s[1] = 0.5
        counters.recovery_s[2] = 0.25
        summary = counters.summary()
        assert summary["dropped_rounds"] == 3
        assert summary["recovery_s"] == pytest.approx(0.75)
        assert summary["recovery_s_max"] == pytest.approx(0.5)
        counters.reset()
        assert counters.summary()["recovery_s"] == 0.0

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            FaultCounters(0)
