"""Tests for :mod:`repro.machine.topology`."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.machine.spec import supermuc_like
from repro.machine.topology import HierarchicalTopology, topology_for


class TestHierarchicalTopology:
    def test_same_node_level_zero(self):
        topo = HierarchicalTopology(64, cores_per_node=4, nodes_per_island=4)
        assert topo.distance_level(0, 3) == 0
        assert topo.distance_level(5, 6) == 0

    def test_same_island_level_one(self):
        topo = HierarchicalTopology(64, cores_per_node=4, nodes_per_island=4)
        assert topo.distance_level(0, 4) == 1
        assert topo.distance_level(0, 15) == 1

    def test_cross_island_level_two(self):
        topo = HierarchicalTopology(64, cores_per_node=4, nodes_per_island=4)
        assert topo.distance_level(0, 16) == 2
        assert topo.distance_level(0, 63) == 2

    def test_out_of_range_raises(self):
        topo = HierarchicalTopology(4, cores_per_node=2, nodes_per_island=2)
        with pytest.raises(IndexError):
            topo.distance_level(0, 4)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            HierarchicalTopology(0)

    def test_coordinates_roundtrip(self):
        topo = HierarchicalTopology(64, cores_per_node=4, nodes_per_island=4)
        coord = topo.coordinate(23)
        pe = coord.island * 16 + coord.node * 4 + coord.core
        assert pe == 23

    def test_islands_and_nodes_used(self):
        topo = HierarchicalTopology(40, cores_per_node=4, nodes_per_island=4)
        assert topo.nodes_used() == 10
        assert topo.islands_used() == 3

    def test_max_distance_level_contiguous_range(self):
        topo = HierarchicalTopology(64, cores_per_node=4, nodes_per_island=4)
        assert topo.max_distance_level(range(0, 4)) == 0
        assert topo.max_distance_level(range(0, 16)) == 1
        assert topo.max_distance_level(range(0, 64)) == 2
        assert topo.max_distance_level([3]) == 0

    @given(st.integers(1, 200), st.integers(1, 8), st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_distance_symmetric(self, p, cores, nodes):
        topo = HierarchicalTopology(p, cores_per_node=cores, nodes_per_island=nodes)
        a, b = 0, p - 1
        assert topo.distance_level(a, b) == topo.distance_level(b, a)


class TestTopologyFor:
    def test_hierarchical_from_spec(self):
        spec = supermuc_like()
        topo = topology_for(64, spec=spec)
        assert isinstance(topo, HierarchicalTopology)
        assert topo.cores_per_node == spec.cores_per_node
