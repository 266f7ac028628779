"""Network topologies for the simulated machine.

The paper (Section 5) points out that the PE groups of the multi-level
algorithms should be mapped to "natural" units of the machine: cores within a
node, nodes within an island/rack, islands within the full machine.  The
topology classes here provide exactly that information:

* a mapping from PE index to a coordinate in the hierarchy,
* the *distance level* between two PEs (0 = same node, 1 = same island,
  2 = different islands), which the cost model translates into a bandwidth
  penalty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


class Topology:
    """Abstract base class for network topologies of ``p`` PEs."""

    #: total number of PEs
    p: int

    def __init__(self, p: int):
        if p <= 0:
            raise ValueError(f"topology needs at least one PE, got p={p}")
        self.p = int(p)

    # ------------------------------------------------------------------
    # Interface
    # ------------------------------------------------------------------
    def distance_level(self, a: int, b: int) -> int:
        """Return the hierarchy level that traffic between ``a`` and ``b`` crosses.

        Level ``0`` is the cheapest (e.g. same node).  Larger levels are more
        expensive.  ``a == b`` is level ``0`` by convention.
        """
        raise NotImplementedError

    def max_distance_level(self, pes: Sequence[int]) -> int:
        """Worst (most expensive) distance level among a set of PEs.

        Used to price collectives and exchanges over a sub-communicator: the
        bulk-synchronous step is only as fast as its slowest link.
        """
        pes = list(pes)
        if len(pes) <= 1:
            return 0
        lo, hi = min(pes), max(pes)
        # For the hierarchical topologies used here, PEs are numbered
        # contiguously within nodes/islands, so the extreme indices realise
        # the maximum distance.
        return self.distance_level(lo, hi)

    def distance_levels(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`distance_level` over PE index pairs.

        Identical results to the scalar method; the lockstep engine uses it
        to price thousands of sub-groups at once.  Subclasses override it
        with pure array arithmetic.
        """
        return np.array(
            [self.distance_level(int(x), int(y)) for x, y in zip(a, b)],
            dtype=np.int64,
        )

    def describe(self) -> str:
        """One-line human readable description."""
        return f"{type(self).__name__}(p={self.p})"

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def validate_pe(self, pe: int) -> None:
        """Raise :class:`IndexError` when ``pe`` is out of range."""
        if not 0 <= pe < self.p:
            raise IndexError(f"PE index {pe} out of range 0..{self.p - 1}")


@dataclass(frozen=True)
class PECoordinate:
    """Hierarchical coordinate of one PE."""

    island: int
    node: int
    core: int


class HierarchicalTopology(Topology):
    """Cores within nodes within islands — the SuperMUC structure.

    PEs are numbered contiguously: PE ``i`` lives on core ``i % cores_per_node``
    of node ``(i // cores_per_node) % nodes_per_island`` of island
    ``i // (cores_per_node * nodes_per_island)``.
    """

    def __init__(self, p: int, cores_per_node: int = 16, nodes_per_island: int = 512):
        super().__init__(p)
        if cores_per_node <= 0:
            raise ValueError("cores_per_node must be positive")
        if nodes_per_island <= 0:
            raise ValueError("nodes_per_island must be positive")
        self.cores_per_node = int(cores_per_node)
        self.nodes_per_island = int(nodes_per_island)
        self.cores_per_island = self.cores_per_node * self.nodes_per_island

    # ------------------------------------------------------------------
    def coordinate(self, pe: int) -> PECoordinate:
        """Return the (island, node, core) coordinate of ``pe``."""
        self.validate_pe(pe)
        island = pe // self.cores_per_island
        rem = pe % self.cores_per_island
        node = rem // self.cores_per_node
        core = rem % self.cores_per_node
        return PECoordinate(island=island, node=node, core=core)

    def distance_level(self, a: int, b: int) -> int:
        ca = self.coordinate(a)
        cb = self.coordinate(b)
        if ca.island != cb.island:
            return 2
        if ca.node != cb.node:
            return 1
        return 0

    def distance_levels(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        same_island = (a // self.cores_per_island) == (b // self.cores_per_island)
        same_node = (a // self.cores_per_node) == (b // self.cores_per_node)
        return np.where(same_island, np.where(same_node, 0, 1), 2).astype(np.int64)

    def islands_used(self) -> int:
        """Number of islands the ``p`` PEs span."""
        return (self.p + self.cores_per_island - 1) // self.cores_per_island

    def nodes_used(self) -> int:
        """Number of nodes the ``p`` PEs span."""
        return (self.p + self.cores_per_node - 1) // self.cores_per_node

    def describe(self) -> str:
        return (
            f"HierarchicalTopology(p={self.p}, cores/node={self.cores_per_node}, "
            f"nodes/island={self.nodes_per_island}, islands={self.islands_used()})"
        )


def topology_for(p: int, spec=None) -> Topology:
    """Build a topology of ``p`` PEs matching a :class:`~repro.machine.spec.MachineSpec`.

    Parameters
    ----------
    p:
        Number of PEs.
    spec:
        Optional :class:`MachineSpec`; its ``cores_per_node`` and
        ``nodes_per_island`` determine the hierarchy.  When omitted a
        generic 16-cores/node hierarchy is returned.
    """
    if spec is None:
        return HierarchicalTopology(p, cores_per_node=16, nodes_per_island=512)
    return HierarchicalTopology(
        p,
        cores_per_node=spec.cores_per_node,
        nodes_per_island=spec.nodes_per_island,
    )
