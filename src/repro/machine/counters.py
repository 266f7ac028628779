"""Per-PE traffic counters and phase timers.

Section 7.1 of the paper divides every recursion level of both algorithms
into four phases — *splitter selection*, *bucket processing* (partitioning or
multiway merging), *data delivery* and *local sorting* — and reports the time
spent in each phase accumulated over all levels (Figure 8).  The classes in
this module provide exactly that bookkeeping for the simulator:

* :class:`TrafficCounters` — per-PE message/word counts, split by direction,
  plus the number of collective operations,
* :class:`PhaseBreakdown` — per-PE accumulated modelled time per phase,
* :class:`PhaseTimer` — a context manager the algorithms use to attribute
  clock advances to a phase.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

import numpy as np


# Canonical phase names (they match the labels used in Figure 8).
PHASE_LOCAL_SORT = "local_sort"
PHASE_SPLITTER_SELECTION = "splitter_selection"
PHASE_BUCKET_PROCESSING = "bucket_processing"
PHASE_DATA_DELIVERY = "data_delivery"
PHASE_OTHER = "other"

#: The four phases reported in the paper, in plotting order.
PAPER_PHASES = (
    PHASE_SPLITTER_SELECTION,
    PHASE_BUCKET_PROCESSING,
    PHASE_DATA_DELIVERY,
    PHASE_LOCAL_SORT,
)


class TrafficCounters:
    """Per-PE counters of communication activity.

    All arrays have length ``p`` (one slot per PE).  Counters are plain
    integers of messages / machine words; time is *not* tracked here (see
    :class:`PhaseBreakdown`).
    """

    def __init__(self, p: int):
        if p <= 0:
            raise ValueError("need at least one PE")
        self.p = int(p)
        self.messages_sent = np.zeros(p, dtype=np.int64)
        self.messages_received = np.zeros(p, dtype=np.int64)
        self.words_sent = np.zeros(p, dtype=np.int64)
        self.words_received = np.zeros(p, dtype=np.int64)
        self.collective_ops = np.zeros(p, dtype=np.int64)
        self.exchange_ops = np.zeros(p, dtype=np.int64)

    # ------------------------------------------------------------------
    def record_message(self, src: int, dst: int, words: int) -> None:
        """Record one point-to-point message of ``words`` machine words."""
        if words < 0:
            raise ValueError("negative message size")
        self.messages_sent[src] += 1
        self.messages_received[dst] += 1
        self.words_sent[src] += words
        self.words_received[dst] += words

    def record_messages(
        self, src: np.ndarray, dst: np.ndarray, words: np.ndarray
    ) -> None:
        """Record many point-to-point messages at once (vectorised).

        Equivalent to calling :meth:`record_message` for every triple; the
        counters are integers, so the accumulated state is identical.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        words = np.asarray(words, dtype=np.int64)
        if np.any(words < 0):
            raise ValueError("negative message size")
        np.add.at(self.messages_sent, src, 1)
        np.add.at(self.messages_received, dst, 1)
        np.add.at(self.words_sent, src, words)
        np.add.at(self.words_received, dst, words)

    def record_collective(self, pes: Iterable[int]) -> None:
        """Record participation of ``pes`` in one collective operation."""
        idx = np.asarray(list(pes), dtype=np.int64)
        self.collective_ops[idx] += 1

    def record_exchange(self, pes: Iterable[int]) -> None:
        """Record participation of ``pes`` in one irregular exchange."""
        idx = np.asarray(list(pes), dtype=np.int64)
        self.exchange_ops[idx] += 1

    # ------------------------------------------------------------------
    def max_startups(self) -> int:
        """Maximum over PEs of messages sent or received.

        This is the quantity the multi-level algorithms reduce from
        ``O(p)`` to ``O(k * p^(1/k))``.
        """
        if self.p == 0:
            return 0
        return int(max(self.messages_sent.max(initial=0),
                       self.messages_received.max(initial=0)))

    def max_volume(self) -> int:
        """Maximum over PEs of words sent or received (bottleneck volume ``h``)."""
        return int(max(self.words_sent.max(initial=0),
                       self.words_received.max(initial=0)))

    def total_volume(self) -> int:
        """Total number of words moved across the network."""
        return int(self.words_sent.sum())

    def total_messages(self) -> int:
        """Total number of point-to-point messages."""
        return int(self.messages_sent.sum())

    def summary(self) -> Dict[str, int]:
        """Machine-wide summary used by the experiment harness."""
        return {
            "total_messages": self.total_messages(),
            "total_words": self.total_volume(),
            "max_startups_per_pe": self.max_startups(),
            "max_words_per_pe": self.max_volume(),
            "collective_ops": int(self.collective_ops.max(initial=0)),
            "exchange_ops": int(self.exchange_ops.max(initial=0)),
        }

    def reset(self) -> None:
        """Zero all counters."""
        for arr in (self.messages_sent, self.messages_received,
                    self.words_sent, self.words_received,
                    self.collective_ops, self.exchange_ops):
            arr.fill(0)


class FaultCounters:
    """Per-PE tallies of injected faults and their recovery costs.

    Kept separate from :class:`TrafficCounters` so fault-free runs report
    byte-identical summaries with or without the fault layer compiled in.
    Event counts are integers; costs are modelled seconds.  Populated by
    :class:`repro.sim.faults.FaultState`:

    * ``dropped_rounds`` / ``resent_words`` / ``timeout_wait_s`` /
      ``recovery_s`` — retransmission protocol: number of per-PE exchange
      failures, words re-sent recovering from them, idle time waiting for
      timeouts, and the total extra exchange time (timeouts + resends).
    * ``straggle_s`` — the extra time straggler PEs spend on their charges.
    """

    def __init__(self, p: int):
        if p <= 0:
            raise ValueError("need at least one PE")
        self.p = int(p)
        self.dropped_rounds = np.zeros(p, dtype=np.int64)
        self.resent_words = np.zeros(p, dtype=np.int64)
        self.timeout_wait_s = np.zeros(p, dtype=np.float64)
        self.recovery_s = np.zeros(p, dtype=np.float64)
        self.straggle_s = np.zeros(p, dtype=np.float64)

    def summary(self) -> Dict[str, object]:
        """Machine-wide totals (JSON-safe plain scalars)."""
        return {
            "dropped_rounds": int(self.dropped_rounds.sum()),
            "resent_words": int(self.resent_words.sum()),
            "timeout_wait_s": float(self.timeout_wait_s.sum()),
            "recovery_s": float(self.recovery_s.sum()),
            "recovery_s_max": float(self.recovery_s.max(initial=0.0)),
            "straggle_s": float(self.straggle_s.sum()),
        }

    def reset(self) -> None:
        """Zero all tallies."""
        for arr in (self.dropped_rounds, self.resent_words,
                    self.timeout_wait_s, self.recovery_s, self.straggle_s):
            arr.fill(0)


class PhaseBreakdown:
    """Per-PE accumulated modelled time, attributed to named phases."""

    def __init__(self, p: int):
        if p <= 0:
            raise ValueError("need at least one PE")
        self.p = int(p)
        self._phases: Dict[str, np.ndarray] = {}

    def add(self, phase: str, pe: int, seconds: float) -> None:
        """Attribute ``seconds`` of PE ``pe``'s time to ``phase``."""
        if seconds < 0:
            raise ValueError(f"negative phase time {seconds} for phase {phase!r}")
        arr = self._phases.get(phase)
        if arr is None:
            arr = np.zeros(self.p, dtype=np.float64)
            self._phases[phase] = arr
        arr[pe] += seconds

    def add_many(self, phase: str, seconds_per_pe: np.ndarray) -> None:
        """Attribute a vector of per-PE times to ``phase``."""
        seconds_per_pe = np.asarray(seconds_per_pe, dtype=np.float64)
        if seconds_per_pe.shape != (self.p,):
            raise ValueError("per-PE time vector has wrong shape")
        if (seconds_per_pe < 0).any():
            raise ValueError("negative phase times")
        arr = self._phases.setdefault(phase, np.zeros(self.p, dtype=np.float64))
        arr += seconds_per_pe

    # ------------------------------------------------------------------
    def phases(self) -> List[str]:
        """Names of all phases that received any time."""
        return sorted(self._phases)

    def per_pe(self, phase: str) -> np.ndarray:
        """Per-PE time vector of ``phase`` (zeros if the phase never ran)."""
        return self._phases.get(phase, np.zeros(self.p, dtype=np.float64)).copy()

    def max_time(self, phase: str) -> float:
        """Bottleneck (max over PEs) time of ``phase``."""
        arr = self._phases.get(phase)
        return float(arr.max()) if arr is not None and arr.size else 0.0

    def mean_time(self, phase: str) -> float:
        """Average per-PE time of ``phase``."""
        arr = self._phases.get(phase)
        return float(arr.mean()) if arr is not None and arr.size else 0.0

    def total_max(self) -> float:
        """Sum over phases of the bottleneck time — the reported wall-time proxy."""
        return float(sum(self.max_time(ph) for ph in self._phases))

    def as_dict(self, phases: Optional[Iterable[str]] = None) -> Dict[str, float]:
        """Bottleneck time per phase as an ordinary dictionary."""
        names = list(phases) if phases is not None else self.phases()
        return {name: self.max_time(name) for name in names}

    def merge(self, other: "PhaseBreakdown") -> None:
        """Accumulate another breakdown (same ``p``) into this one."""
        if other.p != self.p:
            raise ValueError("cannot merge breakdowns with different PE counts")
        for phase, arr in other._phases.items():
            self.add_many(phase, arr)

    def reset(self) -> None:
        """Drop all accumulated times."""
        self._phases.clear()


@dataclass
class PhaseTimer:
    """Context manager that routes clock advances into a phase.

    The simulator keeps a *current phase* attribute; every time a PE clock is
    advanced the delta is attributed to the current phase.  Algorithms wrap
    their steps as::

        with machine.phase(PHASE_DATA_DELIVERY):
            comm.exchange(...)

    Nested phases are allowed; the innermost phase wins (matching how the
    paper instruments its implementation with per-phase barriers).

    When the machine has wall-clock profiling enabled (see
    :meth:`~repro.sim.machine.SimulatedMachine.enable_wall_profile`), phase
    transitions also accumulate *host* wall time per phase name — the
    simulator's own execution cost, not modelled time — which is what the
    ``--profile`` flag of ``benchmarks/bench_engine_scaling.py`` reports as
    ``phase_wall_s``.  Exclusive
    attribution: while a nested phase is open, wall time goes to the inner
    phase only.
    """

    machine: "object"
    phase: str
    previous: Optional[str] = field(default=None, init=False)

    def __enter__(self) -> "PhaseTimer":
        self.previous = getattr(self.machine, "current_phase", PHASE_OTHER)
        profile = getattr(self.machine, "wall_profile", None)
        if profile is not None:
            now = time.perf_counter()
            mark = getattr(self.machine, "_wall_mark", None)
            if mark is not None:
                profile[self.previous] = (
                    profile.get(self.previous, 0.0) + now - mark
                )
            self.machine._wall_mark = now
        self.machine.current_phase = self.phase
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        previous = self.previous if self.previous is not None else PHASE_OTHER
        profile = getattr(self.machine, "wall_profile", None)
        if profile is not None:
            now = time.perf_counter()
            mark = getattr(self.machine, "_wall_mark", None)
            if mark is not None:
                profile[self.phase] = profile.get(self.phase, 0.0) + now - mark
            self.machine._wall_mark = now
        self.machine.current_phase = previous
