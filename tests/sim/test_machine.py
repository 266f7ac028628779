"""Tests for :mod:`repro.sim.machine`."""

import numpy as np
import pytest

from repro.machine.counters import PHASE_LOCAL_SORT
from repro.machine.spec import laptop_like
from repro.machine.topology import HierarchicalTopology
from repro.sim.machine import SimulatedMachine


class TestConstruction:
    def test_basic(self):
        m = SimulatedMachine(4, spec=laptop_like())
        assert m.p == 4
        assert m.clock.shape == (4,)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            SimulatedMachine(0)

    def test_topology_too_small(self):
        with pytest.raises(ValueError):
            SimulatedMachine(8, topology=HierarchicalTopology(4))

    def test_default_spec_is_supermuc(self):
        m = SimulatedMachine(2)
        assert m.spec.name == "supermuc-like"


class TestClocks:
    def test_advance(self):
        m = SimulatedMachine(4, spec=laptop_like())
        m.advance(2, 1.5)
        assert m.clock[2] == 1.5
        assert m.elapsed() == 1.5

    def test_advance_negative_rejected(self):
        m = SimulatedMachine(2, spec=laptop_like())
        with pytest.raises(ValueError):
            m.advance(0, -1.0)

    def test_advance_zero_noop(self):
        m = SimulatedMachine(2, spec=laptop_like())
        m.advance(0, 0.0)
        assert m.breakdown.phases() == []

    def test_advance_many_scalar(self):
        m = SimulatedMachine(4, spec=laptop_like())
        m.advance_many([0, 1, 2, 3], 2.0)
        assert np.allclose(m.clock, 2.0)

    def test_advance_many_vector(self):
        m = SimulatedMachine(3, spec=laptop_like())
        m.advance_many([0, 2], [1.0, 3.0])
        assert m.clock.tolist() == [1.0, 0.0, 3.0]

    def test_advance_many_shape_mismatch(self):
        m = SimulatedMachine(3, spec=laptop_like())
        with pytest.raises(ValueError):
            m.advance_many([0, 1], [1.0])

    def test_synchronize(self):
        m = SimulatedMachine(3, spec=laptop_like())
        m.advance(0, 5.0)
        t = m.synchronize([0, 1, 2])
        assert t == 5.0
        assert np.allclose(m.clock, 5.0)

    def test_elapsed_subset(self):
        m = SimulatedMachine(4, spec=laptop_like())
        m.advance(3, 9.0)
        assert m.elapsed([0, 1]) == 0.0
        assert m.elapsed() == 9.0

    def test_reset(self):
        m = SimulatedMachine(2, spec=laptop_like())
        m.advance(0, 1.0)
        m.counters.record_message(0, 1, 5)
        m.reset()
        assert m.elapsed() == 0.0
        assert m.counters.total_messages() == 0


class TestPhasesAndRandom:
    def test_phase_attribution(self):
        m = SimulatedMachine(2, spec=laptop_like())
        with m.phase(PHASE_LOCAL_SORT):
            m.advance(0, 2.0)
        assert m.breakdown.max_time(PHASE_LOCAL_SORT) == 2.0

    def test_wait_time_attributed_to_phase(self):
        m = SimulatedMachine(2, spec=laptop_like())
        m.advance(0, 4.0)
        with m.phase(PHASE_LOCAL_SORT):
            m.synchronize([0, 1])
        assert m.breakdown.max_time(PHASE_LOCAL_SORT) == pytest.approx(4.0)

    def test_world_and_custom_comm(self):
        m = SimulatedMachine(6, spec=laptop_like())
        world = m.world()
        assert world.size == 6
        sub = m.comm([1, 3, 5])
        assert sub.size == 3
        assert sub.global_pe(1) == 3


class TestSampleRNG:
    def test_sample_rng_keyed_by_seed(self):
        m1 = SimulatedMachine(4, spec=laptop_like(), seed=3)
        m2 = SimulatedMachine(4, spec=laptop_like(), seed=3)
        m3 = SimulatedMachine(4, spec=laptop_like(), seed=4)
        idx = np.arange(20)
        assert np.array_equal(m1.sample_rng.words(0, 1, idx),
                              m2.sample_rng.words(0, 1, idx))
        assert not np.array_equal(m1.sample_rng.words(0, 1, idx),
                                  m3.sample_rng.words(0, 1, idx))

    def test_sample_rng_survives_reset(self):
        m = SimulatedMachine(2, spec=laptop_like(), seed=7)
        before = m.sample_rng.words(1, 0, np.arange(16))
        m.advance(0, 1.0)
        m.reset()
        assert np.array_equal(before, m.sample_rng.words(1, 0, np.arange(16)))


class TestWallProfile:
    def test_disabled_by_default(self):
        m = SimulatedMachine(2, spec=laptop_like())
        with m.phase(PHASE_LOCAL_SORT):
            m.advance(0, 1.0)
        assert m.wall_profile is None

    def test_attributes_wall_time_to_phases(self):
        m = SimulatedMachine(2, spec=laptop_like())
        profile = m.enable_wall_profile()
        with m.phase(PHASE_LOCAL_SORT):
            m.advance(0, 1.0)
        with m.phase("custom"):
            m.advance(1, 1.0)
        assert PHASE_LOCAL_SORT in profile
        assert "custom" in profile
        assert all(v >= 0.0 for v in profile.values())

    def test_nested_phases_attribute_to_innermost(self):
        m = SimulatedMachine(2, spec=laptop_like())
        profile = m.enable_wall_profile()
        with m.phase("outer"):
            with m.phase("inner"):
                m.advance(0, 1.0)
        assert "inner" in profile and "outer" in profile

    def test_reset_clears_in_place(self):
        m = SimulatedMachine(2, spec=laptop_like())
        profile = m.enable_wall_profile()
        with m.phase(PHASE_LOCAL_SORT):
            m.advance(0, 1.0)
        assert profile
        m.reset()
        assert profile == {}  # same dict, cleared in place
        assert m.wall_profile is profile
        with m.phase(PHASE_LOCAL_SORT):
            m.advance(0, 1.0)
        assert PHASE_LOCAL_SORT in profile
