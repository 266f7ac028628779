"""Bulk-synchronous simulator of a distributed-memory message-passing machine.

The paper's algorithms are bulk synchronous (Section 2.1): every step is
either local work or a collective / irregular data exchange over a group of
PEs.  This package provides a deterministic simulator for such programs:

* :class:`~repro.sim.machine.SimulatedMachine` — owns the per-PE clocks,
  traffic counters and phase breakdown,
* :class:`~repro.sim.comm.Comm` — an MPI-communicator-like handle on a
  contiguous group of PEs offering collectives (broadcast, gather,
  all-gather, all-reduce, prefix sums) and the irregular
  ``Exch(P, h, r)`` exchange used by the sorting algorithms,
* :mod:`~repro.sim.exchange` — the irregular exchange (sparse delivery or
  dense all-to-allv) with startup/volume accounting, its
  ``Exch(P, h, r)`` price and the 1-factor schedule whose length is the
  reported round count,
* :class:`~repro.sim.groups.GroupBatch` — lockstep charging of a batch of
  disjoint PE groups: the flat engine's building blocks (multisequence
  selection, data delivery) charge through it, one batch per recursion
  level (a one-group batch for the single-level baselines),
* :mod:`~repro.sim.collectives` — round-based reference executions of the
  collectives (hypercube all-gather with merging, binomial trees) that the
  tests check the closed-form collective charges against.

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
