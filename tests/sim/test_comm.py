"""Tests for :mod:`repro.sim.comm` (collectives and splitting)."""

import numpy as np
import pytest

from repro.machine.spec import laptop_like
from repro.sim.collectives import vector_prefix_sum_reference
from repro.sim.machine import SimulatedMachine


@pytest.fixture
def comm():
    return SimulatedMachine(8, spec=laptop_like(), seed=1).world()


class TestStructure:
    def test_size_and_ranks(self, comm):
        assert comm.size == 8
        assert comm.members.tolist() == list(range(8))

    def test_global_pe_and_local_rank(self, comm):
        assert comm.global_pe(3) == 3
        assert comm.local_rank_of(5) == 5

    def test_local_rank_of_nonmember(self):
        m = SimulatedMachine(8, spec=laptop_like())
        sub = m.comm([0, 2, 4])
        with pytest.raises(ValueError):
            sub.local_rank_of(1)

    def test_empty_comm_rejected(self):
        m = SimulatedMachine(4, spec=laptop_like())
        with pytest.raises(ValueError):
            m.comm([])

    def test_duplicate_members_deduplicated(self):
        m = SimulatedMachine(4, spec=laptop_like())
        assert m.comm([1, 1, 2]).size == 2


class TestCollectives:
    def test_bcast_returns_value_and_costs(self, comm):
        before = comm.machine.elapsed()
        value = comm.bcast(np.arange(10), root=0)
        assert np.array_equal(value, np.arange(10))
        assert comm.machine.elapsed() > before

    def test_bcast_bad_root(self, comm):
        with pytest.raises(IndexError):
            comm.bcast(1, root=99)

    def test_gather(self, comm):
        assert comm.gather(list(range(8)), root=0) == list(range(8))

    def test_allgather_arrays_concat(self, comm):
        arrays = [np.full(i, i) for i in range(8)]
        out = comm.allgather_arrays(arrays)
        assert out.size == sum(a.size for a in arrays)

    def test_allgather_arrays_merge_sorted(self, comm):
        arrays = [np.sort(np.random.default_rng(i).integers(0, 100, 5)) for i in range(8)]
        out = comm.allgather_arrays(arrays, merge_sorted=True)
        assert np.all(np.diff(out) >= 0)
        assert out.size == 40

    def test_allgather_arrays_all_empty(self, comm):
        out = comm.allgather_arrays([np.empty(0, dtype=np.int64)] * 8)
        assert out.size == 0

    def test_allreduce_scalar_sum_and_max(self, comm):
        values = [float(i) for i in range(8)]
        assert comm.allreduce_scalar(values) == pytest.approx(28.0)
        assert comm.allreduce_scalar(values, op=np.max) == pytest.approx(7.0)

    def test_allreduce_vec(self, comm):
        arrays = [np.arange(4) for _ in range(8)]
        out = comm.allreduce_vec(arrays)
        assert np.array_equal(out, 8 * np.arange(4))

    def test_allreduce_vec_length_mismatch(self, comm):
        arrays = [np.arange(4) for _ in range(7)] + [np.arange(3)]
        with pytest.raises(ValueError):
            comm.allreduce_vec(arrays)

    def test_exscan_vec_matches_reference(self, comm):
        rng = np.random.default_rng(0)
        vectors = [rng.integers(0, 10, 5) for _ in range(8)]
        prefixes, total = comm.exscan_vec(vectors)
        ref = vector_prefix_sum_reference(vectors)
        for ours, theirs in zip(prefixes, ref):
            assert np.array_equal(ours, theirs)
        assert np.array_equal(total, np.sum(vectors, axis=0))

    def test_wrong_arity_raises(self, comm):
        with pytest.raises(ValueError):
            comm.gather([1, 2, 3])

    def test_collectives_advance_all_clocks_equally(self, comm):
        comm.allreduce_scalar([1.0] * 8)
        clocks = comm.machine.clock
        assert np.allclose(clocks, clocks[0])
        assert clocks[0] > 0


class TestLocalCharges:
    def test_charge_local(self, comm):
        comm.charge_local(3, 0.5)
        assert comm.machine.clock[3] == 0.5

    def test_charge_local_many_shape(self, comm):
        with pytest.raises(ValueError):
            comm.charge_local_many([0.1] * 3)

    def test_charge_sort_merge_partition(self, comm):
        comm.charge_sort([100] * 8)
        comm.charge_merge([100] * 8, 4)
        comm.charge_partition([100] * 8, 16)
        assert comm.machine.elapsed() > 0


class TestSplit:
    def test_split_equal(self, comm):
        groups = comm.split(4)
        assert [g.size for g in groups] == [2, 2, 2, 2]
        assert groups[0].members.tolist() == [0, 1]
        assert groups[3].members.tolist() == [6, 7]

    def test_split_uneven(self):
        comm = SimulatedMachine(10, spec=laptop_like()).world()
        groups = comm.split(4)
        assert [g.size for g in groups] == [3, 3, 2, 2]
        assert sum(g.size for g in groups) == 10

    def test_split_invalid(self, comm):
        with pytest.raises(ValueError):
            comm.split(0)
        with pytest.raises(ValueError):
            comm.split(9)

    def test_level_of_subgroup(self):
        machine = SimulatedMachine(32, seed=0)  # supermuc spec, 16 cores/node
        world = machine.world()
        groups = world.split(2)
        assert groups[0].level == 0  # within one node
        assert world.level >= 1
