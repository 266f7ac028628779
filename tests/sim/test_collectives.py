"""Tests for :mod:`repro.sim.collectives`."""

import numpy as np
import pytest

from repro.machine.spec import laptop_like
from repro.sim.collectives import (
    binomial_bcast_order,
    binomial_rounds,
    hypercube_allgather_merge,
    hypercube_rounds,
    merge_sorted_arrays,
    tree_reduce,
    vector_prefix_sum_reference,
)
from repro.sim.machine import SimulatedMachine


def make_comm(p):
    return SimulatedMachine(p, spec=laptop_like(), seed=0).world()


class TestRoundCounts:
    @pytest.mark.parametrize("p,expected", [(1, 0), (2, 1), (3, 2), (4, 2), (8, 3), (9, 4)])
    def test_hypercube_rounds(self, p, expected):
        assert hypercube_rounds(p) == expected

    def test_invalid(self):
        with pytest.raises(ValueError):
            hypercube_rounds(0)

    def test_binomial_rounds_alias(self):
        assert binomial_rounds(16) == 4

    @pytest.mark.parametrize("p", [2, 3, 5, 8, 13])
    def test_closed_form_charge_matches_binomial_tree(self, p):
        # Comm charges collectives in closed form; their startup term must
        # be one alpha per round of the explicit binomial tree.
        comm = make_comm(p)
        rounds = 1 + max(r for r, _, _ in binomial_bcast_order(p))
        assert rounds == binomial_rounds(p)
        charged = comm.machine.cost.collective_time(p, words=0)
        assert charged == pytest.approx(comm.spec.alpha * rounds)


class TestMergeSortedArrays:
    def test_merges(self):
        out = merge_sorted_arrays([np.array([1, 4]), np.array([2, 3])])
        assert out.tolist() == [1, 2, 3, 4]

    def test_empty(self):
        assert merge_sorted_arrays([]).size == 0
        assert merge_sorted_arrays([np.empty(0)]).size == 0

    def test_single(self):
        a = np.array([1, 2, 3])
        out = merge_sorted_arrays([a])
        assert out.tolist() == [1, 2, 3]
        out[0] = 99
        assert a[0] == 1  # copy, no aliasing


class TestHypercubeAllgatherMerge:
    @pytest.mark.parametrize("p", [1, 2, 4, 8])
    def test_power_of_two_sizes(self, p):
        comm = make_comm(p)
        rng = np.random.default_rng(0)
        arrays = [np.sort(rng.integers(0, 100, 6)) for _ in range(p)]
        result = hypercube_allgather_merge(comm, arrays)
        expected = np.sort(np.concatenate(arrays))
        for r in result:
            assert np.array_equal(r, expected)

    @pytest.mark.parametrize("p", [3, 5, 6, 7])
    def test_non_power_of_two_sizes(self, p):
        comm = make_comm(p)
        rng = np.random.default_rng(1)
        arrays = [np.sort(rng.integers(0, 100, 4)) for _ in range(p)]
        result = hypercube_allgather_merge(comm, arrays)
        expected = np.sort(np.concatenate(arrays))
        for r in result:
            assert np.array_equal(r, expected)

    def test_costs_charged(self):
        comm = make_comm(8)
        arrays = [np.sort(np.random.default_rng(i).integers(0, 100, 10)) for i in range(8)]
        hypercube_allgather_merge(comm, arrays)
        assert comm.machine.elapsed() > 0

    def test_wrong_arity(self):
        comm = make_comm(4)
        with pytest.raises(ValueError):
            hypercube_allgather_merge(comm, [np.array([1])])


class TestBinomialBroadcast:
    def test_everyone_reached(self):
        sched = binomial_bcast_order(13, root=0)
        reached = {0}
        for _, src, dst in sched:
            assert src in reached
            reached.add(dst)
        assert reached == set(range(13))

    def test_round_count_log(self):
        sched = binomial_bcast_order(16, root=0)
        assert max(r for r, _, _ in sched) == 3

    def test_rotated_root(self):
        sched = binomial_bcast_order(8, root=5)
        reached = {5}
        for _, src, dst in sched:
            assert src in reached
            reached.add(dst)
        assert reached == set(range(8))

    def test_invalid_root(self):
        with pytest.raises(IndexError):
            binomial_bcast_order(4, root=7)


class TestTreeReduce:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 7, 8])
    def test_matches_numpy_sum(self, p):
        comm = make_comm(p)
        vectors = [np.arange(5) + i for i in range(p)]
        result = tree_reduce(comm, vectors)
        assert np.array_equal(result, np.sum(vectors, axis=0))

    def test_wrong_arity(self):
        comm = make_comm(4)
        with pytest.raises(ValueError):
            tree_reduce(comm, [np.array([1])])


class TestReferencePrefixSum:
    def test_matches_manual(self):
        vectors = [np.array([1, 1]), np.array([2, 0]), np.array([3, 5])]
        ref = vector_prefix_sum_reference(vectors)
        assert ref[0].tolist() == [0, 0]
        assert ref[1].tolist() == [1, 1]
        assert ref[2].tolist() == [3, 1]
