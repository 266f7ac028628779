"""Bulk-synchronous simulator of a distributed-memory message-passing machine.

The paper's algorithms are bulk synchronous (Section 2.1): every step is
either local work or a collective / irregular data exchange over a group of
PEs.  This package provides a deterministic simulator for such programs:

* :class:`~repro.sim.machine.SimulatedMachine` — owns the per-PE clocks,
  traffic counters and phase breakdown,
* :class:`~repro.sim.comm.Comm` — an MPI-communicator-like handle on a
  contiguous group of PEs offering collectives (broadcast, reduce,
  all-reduce, prefix sums, gather, all-gather) and the irregular
  ``Exch(P, h, r)`` exchange used by the sorting algorithms,
* :mod:`~repro.sim.exchange` — message-exchange schedules (direct sparse
  delivery and dense all-to-allv) with startup/volume accounting,
* :class:`~repro.sim.groups.GroupBatch` — lockstep charging of a batch of
  disjoint PE groups: the flat engine's building blocks (multisequence
  selection, data delivery) charge through it, one batch per recursion
  level (a one-group batch for the single-level baselines),
* :mod:`~repro.sim.collectives` — reference algorithms for the collectives
  (hypercube all-gather with merging, binomial trees) used for cost
  derivations and tests.

Algorithms written against :class:`Comm` look like per-step SPMD programs:
every collective takes a list with one entry per member PE and returns the
per-PE results, while the machine advances the simulated clocks by the
modelled communication cost.
"""

from repro.sim.machine import SimulatedMachine
from repro.sim.comm import Comm
from repro.sim.exchange import ExchangeResult, one_factor_schedule, direct_schedule
from repro.sim.groups import GroupBatch

__all__ = [
    "SimulatedMachine",
    "Comm",
    "ExchangeResult",
    "GroupBatch",
    "one_factor_schedule",
    "direct_schedule",
]
