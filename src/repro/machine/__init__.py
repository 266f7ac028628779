"""Machine model: hardware parameters, topology and communication cost.

This subpackage describes the *machine* on which the simulated sorting
algorithms run.  It intentionally mirrors the model of computation used in
Section 2.1 of the paper:

* single-ported message passing — sending a message of ``l`` machine words
  costs ``alpha + l * beta``,
* a black-box data exchange primitive ``Exch(P, h, r)`` parameterised by the
  subnetwork size ``P``, the per-PE bottleneck communication volume ``h`` and
  the per-PE number of message startups ``r``,
* a hierarchical network (cores within nodes within islands, as on SuperMUC)
  whose bandwidth degrades when messages cross higher levels of the
  hierarchy.

The classes here carry *no* simulation state; they are pure descriptions that
the :mod:`repro.sim` package consumes.
"""

from repro.machine.spec import (
    MachineSpec,
    supermuc_like,
    cray_xt4_like,
    cray_xe6_like,
    generic_cluster,
    laptop_like,
)
from repro.machine.topology import (
    Topology,
    HierarchicalTopology,
    topology_for,
)
from repro.machine.cost import CostModel
from repro.machine.counters import (
    PhaseTimer,
    TrafficCounters,
    PhaseBreakdown,
    PHASE_LOCAL_SORT,
    PHASE_SPLITTER_SELECTION,
    PHASE_BUCKET_PROCESSING,
    PHASE_DATA_DELIVERY,
    PHASE_OTHER,
    PAPER_PHASES,
)

__all__ = [
    "MachineSpec",
    "supermuc_like",
    "cray_xt4_like",
    "cray_xe6_like",
    "generic_cluster",
    "laptop_like",
    "Topology",
    "HierarchicalTopology",
    "topology_for",
    "CostModel",
    "PhaseTimer",
    "TrafficCounters",
    "PhaseBreakdown",
    "PHASE_LOCAL_SORT",
    "PHASE_SPLITTER_SELECTION",
    "PHASE_BUCKET_PROCESSING",
    "PHASE_DATA_DELIVERY",
    "PHASE_OTHER",
    "PAPER_PHASES",
]
