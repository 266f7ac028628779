"""MPI-communicator-like groups of simulated PEs with costed collectives."""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.dist.flatops import map_by_unique, map_by_unique2
from repro.machine.counters import PhaseTimer
from repro.sim.exchange import ExchangeResult, Message, execute_exchange


class Comm:
    """A communicator over a contiguous (or arbitrary) group of PEs.

    All collective operations follow the same convention: per-PE inputs are
    passed as sequences indexed by *local rank* (0 .. ``size - 1``) and the
    result is what every member PE would hold after the operation.  The
    communicator charges the modelled time of the operation to all member
    clocks and synchronises the group, because the algorithms in the paper
    are bulk synchronous.

    Parameters
    ----------
    machine:
        The owning :class:`repro.sim.machine.SimulatedMachine`.
    members:
        Global PE indices belonging to this communicator (ascending).
    """

    def __init__(self, machine, members: np.ndarray):
        members = np.asarray(members, dtype=np.int64)
        if members.size == 0:
            raise ValueError("a communicator needs at least one member")
        if np.any(members < 0) or np.any(members >= machine.p):
            raise ValueError("communicator member out of range")
        if np.any(np.diff(members) <= 0):
            raise ValueError("communicator members must be strictly increasing")
        self.machine = machine
        self.members = members
        self._level: Optional[int] = None

    # ------------------------------------------------------------------
    # Basic structure
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of member PEs."""
        return int(self.members.size)

    @property
    def level(self) -> int:
        """Topology level spanned by this communicator (cached)."""
        if self._level is None:
            self._level = self.machine.topology.max_distance_level(self.members)
        return self._level

    def global_pe(self, local_rank: int) -> int:
        """Global PE index of ``local_rank``."""
        return int(self.members[local_rank])

    def local_rank_of(self, global_pe: int) -> int:
        """Local rank of a global PE index (must be a member)."""
        idx = np.searchsorted(self.members, global_pe)
        if idx >= self.size or self.members[idx] != global_pe:
            raise ValueError(f"PE {global_pe} is not a member of this communicator")
        return int(idx)

    @property
    def spec(self):
        """The machine's :class:`~repro.machine.spec.MachineSpec`."""
        return self.machine.spec

    def phase(self, name: str) -> PhaseTimer:
        """Attribute subsequent costs to phase ``name`` (context manager)."""
        return self.machine.phase(name)

    # ------------------------------------------------------------------
    # Clock charging helpers
    # ------------------------------------------------------------------
    def charge_local(self, local_rank: int, seconds: float) -> None:
        """Charge ``seconds`` of local work to one member PE."""
        self.machine.advance(self.global_pe(local_rank), seconds)

    def charge_local_many(self, seconds: Sequence[float]) -> None:
        """Charge per-PE local work (one entry per local rank)."""
        seconds = np.asarray(seconds, dtype=np.float64)
        if seconds.shape != (self.size,):
            raise ValueError("need one charge per member PE")
        self.machine.advance_many(self.members, seconds)

    def charge_sort(self, sizes: Sequence[int]) -> None:
        """Charge a local sort of ``sizes[i]`` elements on each member."""
        self.charge_local_many(
            map_by_unique(np.asarray(sizes), lambda m: self.spec.local_sort_time(int(m)))
        )

    def charge_merge(self, sizes: Sequence[int], ways: Sequence[int] | int) -> None:
        """Charge a local multiway merge on each member."""
        if np.isscalar(ways):
            ways = [int(ways)] * self.size
        self.charge_local_many(
            map_by_unique2(
                np.asarray(sizes), np.asarray(ways),
                lambda m, w: self.spec.local_merge_time(m, w),
            )
        )

    def charge_partition(self, sizes: Sequence[int], buckets: int) -> None:
        """Charge a local multi-splitter partition on each member."""
        self.charge_local_many(
            map_by_unique(
                np.asarray(sizes),
                lambda m: self.spec.local_partition_time(int(m), int(buckets)),
            )
        )

    # ------------------------------------------------------------------
    # Internal collective cost charging
    # ------------------------------------------------------------------
    def _charge_collective(self, words: int, rounds_factor: float = 1.0) -> None:
        # Fault semantics (see :mod:`repro.sim.faults`): collective and
        # local charges pick up straggler scaling inside ``advance_many``;
        # only the irregular exchanges (``exchange`` and
        # ``GroupBatch.charge_exchange``) additionally run the timeout +
        # retransmit retry protocol.  Barrier waits are never fault-scaled —
        # idle time is idle regardless of the PE's speed.
        self.machine.synchronize(self.members)
        t = self.machine.cost.collective_time(
            self.size, words=max(int(words), 0), level=self.level,
            rounds_factor=rounds_factor,
        )
        self.machine.advance_many(self.members, t)
        self.machine.counters.record_collective(self.members)

    # ------------------------------------------------------------------
    # Collectives
    # ------------------------------------------------------------------
    def bcast(self, value, root: int = 0, words: Optional[int] = None):
        """Broadcast ``value`` from ``root`` to all members; returns ``value``.

        ``words`` is the modelled message length; when omitted it is inferred
        for numpy arrays (``value.size``) and assumed to be 1 otherwise.
        """
        if not 0 <= root < self.size:
            raise IndexError("broadcast root out of range")
        if words is None:
            words = int(value.size) if isinstance(value, np.ndarray) else 1
        self._charge_collective(words)
        return value

    def gather(self, values: Sequence, root: int = 0, words_each: int = 1) -> Optional[list]:
        """Gather one value per member at ``root``.

        Returns the gathered list (what the root holds); non-root PEs would
        hold ``None`` in a real execution.
        """
        if len(values) != self.size:
            raise ValueError("need one value per member PE")
        if not 0 <= root < self.size:
            raise IndexError("gather root out of range")
        self._charge_collective(words_each, rounds_factor=self.size)
        return list(values)

    def allgather_arrays(
        self,
        arrays: Sequence[np.ndarray],
        merge_sorted: bool = False,
    ) -> np.ndarray:
        """All-gather variable-length arrays; every PE receives their union.

        With ``merge_sorted=True`` the received runs are merged (each input
        must already be sorted), which is the "gossiping with merging" step
        of the fast work-inefficient sorting algorithm (Section 4.2).
        """
        if len(arrays) != self.size:
            raise ValueError("need one array per member PE")
        arrays = [np.asarray(a) for a in arrays]
        total = int(sum(a.size for a in arrays))
        mean_words = total / max(self.size, 1)
        self._charge_collective(max(1, int(math.ceil(mean_words))), rounds_factor=self.size)
        if total == 0:
            dtype = arrays[0].dtype if arrays else np.float64
            return np.empty(0, dtype=dtype)
        result = np.concatenate([a for a in arrays if a.size > 0])
        if merge_sorted:
            # Merging cost: every PE merges the full gathered sequence.
            merge_t = self.spec.local_merge_time(total, max(2, self.size))
            self.machine.advance_many(self.members, merge_t)
            result = np.sort(result, kind="stable")
        return result

    def allreduce_scalar(self, values: Sequence[float], op: Callable = np.sum) -> float:
        """All-reduce one scalar per member with reduction ``op``."""
        if len(values) != self.size:
            raise ValueError("need one value per member PE")
        self._charge_collective(1)
        return float(op(np.asarray(values, dtype=np.float64)))

    def allreduce_vec(self, arrays: Sequence[np.ndarray], op: Callable = np.add) -> np.ndarray:
        """Element-wise all-reduce of equal-length vectors (one per member)."""
        if len(arrays) != self.size:
            raise ValueError("need one vector per member PE")
        arrays = [np.asarray(a) for a in arrays]
        length = arrays[0].size
        for a in arrays:
            if a.size != length:
                raise ValueError("all vectors must have the same length")
        self._charge_collective(length)
        result = arrays[0].copy()
        for a in arrays[1:]:
            result = op(result, a)
        return result

    def exscan_vec(self, arrays: Sequence[np.ndarray]) -> Tuple[List[np.ndarray], np.ndarray]:
        """Vector-valued exclusive prefix sum over member ranks.

        ``exscan_vec([v_0, v_1, ..., v_{P-1}])`` returns ``(prefixes, total)``
        where ``prefixes[i] = v_0 + ... + v_{i-1}`` (zeros for rank 0) and
        ``total`` is the sum over all ranks.  This is the vector-valued
        prefix sum the data-delivery algorithms rely on (Section 4.3).
        """
        if len(arrays) != self.size:
            raise ValueError("need one vector per member PE")
        mats = np.asarray([np.asarray(a, dtype=np.int64) for a in arrays])
        if mats.ndim == 1:
            mats = mats[:, None]
        length = mats.shape[1]
        self._charge_collective(length)
        csum = np.cumsum(mats, axis=0)
        prefixes = [np.zeros(length, dtype=np.int64)]
        for i in range(1, self.size):
            prefixes.append(csum[i - 1].copy())
        total = csum[-1].copy()
        return prefixes, total

    # ------------------------------------------------------------------
    # Irregular exchange
    # ------------------------------------------------------------------
    def exchange(
        self,
        outboxes: Sequence[Sequence[Message]],
        schedule: str = "sparse",
        charge_copy: bool = True,
    ) -> ExchangeResult:
        """Perform an irregular personalised exchange (``Exch(P, h, r)``).

        See :func:`repro.sim.exchange.execute_exchange`.
        """
        return execute_exchange(self, outboxes, schedule=schedule, charge_copy=charge_copy)

    # ------------------------------------------------------------------
    # Splitting into groups
    # ------------------------------------------------------------------
    def split(self, num_groups: int) -> List["Comm"]:
        """Split into ``num_groups`` contiguous groups of near-equal size.

        The first ``size % num_groups`` groups get one extra PE.  Groups are
        contiguous in PE numbering so that they map onto natural units of the
        machine hierarchy (Section 5).
        """
        if not 1 <= num_groups <= self.size:
            raise ValueError(
                f"cannot split a communicator of size {self.size} into {num_groups} groups"
            )
        base = self.size // num_groups
        extra = self.size % num_groups
        groups: List[Comm] = []
        start = 0
        for g in range(num_groups):
            length = base + (1 if g < extra else 0)
            groups.append(Comm(self.machine, self.members[start:start + length]))
            start += length
        return groups

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        lo, hi = int(self.members[0]), int(self.members[-1])
        return f"Comm(size={self.size}, PEs {lo}..{hi})"
