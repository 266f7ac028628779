"""Lockstep charging for batches of pairwise disjoint PE groups.

The deepest recursion level of the multi-level sorting algorithms runs the
*same* program on many independent PE groups (one per island of the previous
level).  The per-PE reference engine iterates the islands in Python; the flat
engine executes them in lockstep, which requires charging many disjoint
sub-communicators in one shot.

:class:`GroupBatch` provides exactly that: a batch of disjoint PE groups with
segmented synchronisation (``np.maximum.reduceat``), per-group collective
charges and per-group exchange charges.  Because the groups are disjoint,
every PE receives the same sequence of clock/phase updates (with the same
values) as it would under the island-by-island reference execution — the
batching only reorders updates *across* PEs, which the per-PE clocks,
breakdowns and counters cannot observe.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.dist.flatops import concat_ranges
from repro.sim.exchange import exchange_times


class GroupBatch:
    """A batch of pairwise disjoint PE groups charged in lockstep.

    Parameters
    ----------
    machine:
        The owning :class:`~repro.sim.machine.SimulatedMachine`.
    members:
        Global PE indices of all groups back to back; each group's slice
        must be sorted ascending.
    offsets:
        ``num_groups + 1`` offsets delimiting the groups inside ``members``.
        Groups must be non-empty.
    """

    def __init__(self, machine, members: np.ndarray, offsets: np.ndarray):
        self.machine = machine
        self.members = np.asarray(members, dtype=np.int64)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.sizes = np.diff(self.offsets)
        if np.any(self.sizes <= 0):
            raise ValueError("groups must be non-empty")
        if self.offsets[-1] != self.members.size:
            raise ValueError("offsets do not cover the member array")
        self._levels: Optional[np.ndarray] = None

    @property
    def num_groups(self) -> int:
        """Number of groups in the batch."""
        return int(self.sizes.size)

    def levels(self) -> np.ndarray:
        """Topology level of every group (cached; same as ``Comm.level``)."""
        if self._levels is None:
            topo = self.machine.topology
            self._levels = topo.distance_levels(
                self.members[self.offsets[:-1]],
                self.members[self.offsets[1:] - 1],
            )
        return self._levels

    def select(self, group_idx: np.ndarray) -> "GroupBatch":
        """Sub-batch containing only the given groups (by index)."""
        group_idx = np.asarray(group_idx, dtype=np.int64)
        sizes = self.sizes[group_idx]
        offsets = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        members = self.members[concat_ranges(self.offsets[group_idx], sizes)]
        sub = GroupBatch(self.machine, members, offsets)
        if self._levels is not None:
            sub._levels = self._levels[group_idx]
        return sub

    # ------------------------------------------------------------------
    def synchronize(self) -> None:
        """Barrier within every group (segmented clock maximum).

        Matches ``machine.synchronize(group)`` applied to every group: the
        waiting time is attributed to the current phase.
        """
        machine = self.machine
        clocks = machine.clock[self.members]
        t = np.maximum.reduceat(clocks, self.offsets[:-1])
        t_rep = np.repeat(t, self.sizes)
        waits = t_rep - clocks
        machine.clock[self.members] = t_rep
        vec = np.zeros(machine.p, dtype=np.float64)
        vec[self.members] = waits
        machine.breakdown.add_many(machine.current_phase, vec)

    def advance(self, per_group_seconds: Sequence[float]) -> None:
        """Advance every group's members by its own scalar time."""
        dts = np.repeat(np.asarray(per_group_seconds, dtype=np.float64), self.sizes)
        self.machine.advance_many(self.members, dts)

    def charge_collective(
        self,
        words: Sequence[int],
        rounds_factors: Optional[Sequence[float]] = None,
    ) -> None:
        """Per-group equivalent of ``Comm._charge_collective``.

        Synchronises every group, advances it by the closed-form collective
        time for its own word count / rounds factor, and records one
        collective op per member PE.  The scalar cost formula is evaluated
        per group with the exact same code path as the reference engine.
        """
        self.synchronize()
        cost = self.machine.cost
        levels = self.levels()
        n = self.num_groups
        # The scalar cost formula is evaluated through the exact same code
        # path as the reference engine; groups of one level are mostly
        # identical (size, words, level, rounds), so evaluate once per
        # distinct signature.  Large batches (the per-row / per-column
        # collectives of the grid sample sort) deduplicate with one
        # vectorised row-unique instead of a Python loop per group.
        if n > 8:
            key = np.empty((n, 4), dtype=np.float64)
            key[:, 0] = self.sizes
            key[:, 1] = np.maximum(np.asarray(words, dtype=np.int64), 0)
            key[:, 2] = levels
            key[:, 3] = 1.0 if rounds_factors is None else \
                np.asarray(rounds_factors, dtype=np.float64)
            uniq, inverse = np.unique(key, axis=0, return_inverse=True)
            t_uniq = np.array([
                cost.collective_time(
                    int(u[0]), words=int(u[1]), level=int(u[2]),
                    rounds_factor=float(u[3]),
                )
                for u in uniq
            ], dtype=np.float64)
            times = t_uniq[inverse.reshape(-1)]
        else:
            cache: dict = {}
            times = []
            for g in range(n):
                sig = (
                    int(self.sizes[g]),
                    max(int(words[g]), 0),
                    int(levels[g]),
                    1.0 if rounds_factors is None else float(rounds_factors[g]),
                )
                t = cache.get(sig)
                if t is None:
                    t = cost.collective_time(
                        sig[0], words=sig[1], level=sig[2], rounds_factor=sig[3]
                    )
                    cache[sig] = t
                times.append(t)
        self.advance(times)
        self.machine.counters.record_collective(self.members)

    def charge_exchange(
        self,
        words_sent: np.ndarray,
        words_received: np.ndarray,
        messages_sent: np.ndarray,
        messages_received: np.ndarray,
        charge_copy: bool = True,
    ) -> np.ndarray:
        """Per-group equivalent of the exchange charge in ``execute_exchange``.

        The four count vectors are indexed like ``members`` (one entry per
        batch PE).  Synchronises every group, charges the per-PE
        :func:`~repro.sim.exchange.exchange_times` with each group's own
        ``beta`` level, synchronises again and records one exchange op per
        member PE.  Returns the charged per-PE times.
        """
        machine = self.machine
        self.synchronize()
        beta = np.repeat(
            np.array(
                [machine.spec.beta_for_level(int(lv)) for lv in self.levels()],
                dtype=np.float64,
            ),
            self.sizes,
        )
        _, _, times = exchange_times(
            machine, self.members, beta, words_sent, words_received,
            messages_sent, messages_received, charge_copy,
        )
        machine.advance_many(self.members, times)
        self.synchronize()
        machine.counters.record_exchange(self.members)
        return times
