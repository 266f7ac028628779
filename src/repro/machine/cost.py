"""Communication cost model for collectives.

The simulator charges three kinds of cost, following Section 2.1 of the
paper:

* collectives over vectors of length ``l`` on ``P`` PEs:
  ``O(l * beta + alpha * log P)`` (broadcast, reduction, prefix sums, [2, 30])
  — priced here by :meth:`CostModel.collective_time`,
* the data exchange primitive ``Exch(P, h, r)``: no PE sends or receives more
  than ``h`` words in total and at most ``r`` messages; the single-ported
  lower bound ``h * beta + r * alpha`` is what
  :func:`repro.sim.exchange.exchange_times` charges,
* local work: charged through :class:`~repro.machine.spec.MachineSpec`'s
  calibrated per-element constants.
"""

from __future__ import annotations

import math

from repro.machine.spec import MachineSpec
from repro.machine.topology import Topology


class CostModel:
    """Prices collectives on a given machine.

    Parameters
    ----------
    spec:
        The machine's performance parameters.
    topology:
        The machine's topology; determines bandwidth penalties for traffic
        that crosses nodes or islands.
    """

    def __init__(self, spec: MachineSpec, topology: Topology):
        self.spec = spec
        self.topology = topology

    def collective_time(
        self,
        participants: int,
        words: int = 1,
        level: int = 0,
        rounds_factor: float = 1.0,
    ) -> float:
        """Time of a tree-based collective (bcast/reduce/scan/gather).

        The model is the standard ``alpha * ceil(log2 P) + beta * l`` bound
        for pipelined two-tree collectives [30]; ``rounds_factor`` allows
        all-gather style operations to charge the extra volume they move
        (an allgather over ``P`` PEs moves ``P * l`` words through each PE in
        the worst case, expressed by ``rounds_factor=P``).
        """
        if participants <= 0:
            raise ValueError("collective needs at least one participant")
        if participants == 1:
            return 0.0
        log_p = math.ceil(math.log2(participants))
        beta = self.spec.beta_for_level(level)
        word_cost = self.spec.collective_word_ns * 1e-9 + beta
        return self.spec.alpha * log_p + word_cost * words * rounds_factor
