"""The simulated machine: clocks, counters, phases and the world communicator."""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from repro.machine.cost import CostModel
from repro.machine.counters import (
    PHASE_OTHER,
    PhaseBreakdown,
    PhaseTimer,
    TrafficCounters,
)
from repro.dist.ctr_rng import CounterRNG
from repro.dist.flatops import enable_malloc_reuse
from repro.machine.spec import MachineSpec
from repro.machine.topology import Topology, topology_for

_PIVOT_SEED_SALT = 0x91F07_5E1EC7


class SimulatedMachine:
    """A distributed-memory machine of ``p`` PEs with modelled time.

    The machine does not execute PEs concurrently.  Instead, algorithms are
    written in a *whole-machine* (lockstep SPMD) style: every step is either
    local work (charged to each PE's clock with the modelled time of that
    work) or a communication step that advances the participating clocks by
    the modelled communication cost.  Because the algorithms in the paper
    are bulk synchronous this reproduces the same critical path a real
    message-passing execution would have, while remaining fully
    deterministic and runnable on a laptop.

    **Lockstep SPMD over flat arrays.**  Two execution engines drive this
    machine.  The *reference* engine materialises the distributed array as
    one numpy array per PE and loops ``for i in range(p)`` over local steps.
    The *flat* engine (:mod:`repro.dist`) stores the whole machine's data in
    a single :class:`~repro.dist.array.DistArray` (one contiguous ``values``
    buffer plus a CSR ``offsets`` vector, one segment per PE) and replaces
    the per-PE loops with whole-machine vectorised kernels: segmented sorts,
    ``bincount`` over combined ``(PE, bucket)`` keys, stable reorders by
    ``(PE, group)`` keys, and message batches assembled by offset
    arithmetic.  Both engines issue the same per-PE charge sequence, so
    clocks, phase breakdowns and traffic counters are byte-identical; only
    the wall-clock time of running the *simulation* differs (the flat
    engine scales to thousands of simulated PEs).

    **What is and is not charged.**  The cost model charges (a) local work
    through the calibrated per-element constants of
    :class:`~repro.machine.spec.MachineSpec` (sorting, merging,
    partitioning, copying, binary searches), (b) collectives through the
    closed-form ``alpha * ceil(log2 P) + beta * l`` bound, and (c) irregular
    exchanges through the ``Exch(P, h, r)`` bottleneck bound
    ``alpha * r + beta * h`` (plus packing when requested).  Bookkeeping
    that a real implementation keeps in registers or recomputes locally —
    piece-size arithmetic, enumeration order, replicated RNG draws, the
    simulator's own data movement — is *not* charged.  Synchronisation
    (waiting) time is attributed to the phase that caused it, matching the
    paper's per-phase barriers (Section 7.1).

    Parameters
    ----------
    p:
        Number of processing elements.
    spec:
        Hardware parameters; defaults to :func:`repro.machine.spec.supermuc_like`.
    topology:
        Network topology; defaults to a hierarchical topology matching ``spec``.
    seed:
        Key of the machine's counter-based random streams
        (:attr:`sample_rng`, :attr:`pivot_rng`): every draw is a pure
        function of the seed and its coordinates, never of earlier draws.
    faults:
        Optional :class:`~repro.sim.faults.FaultPlan` (or spec string like
        ``"stragglers:0.1,droprate:0.01"``) injecting deterministic
        stragglers and dropped exchange rounds into the modelled clocks.
        ``None`` — or a plan that injects nothing — leaves the machine
        byte-identical to a fault-free one.  Fault draws use their own
        salted counter streams, so sorted outputs and the sampling paths are
        unaffected.
    """

    def __init__(
        self,
        p: int,
        spec: Optional[MachineSpec] = None,
        topology: Optional[Topology] = None,
        seed: int = 0,
        faults: "object | str | None" = None,
    ):
        if p <= 0:
            raise ValueError(f"need at least one PE, got p={p}")
        # The flat engine's whole-machine temporaries dominate the wall
        # profile at large p unless freed blocks are recycled with their
        # pages still mapped; see :func:`repro.dist.flatops.enable_malloc_reuse`.
        enable_malloc_reuse()
        if spec is None:
            from repro.machine.spec import supermuc_like

            spec = supermuc_like()
        if topology is None:
            topology = topology_for(p, spec=spec)
        if topology.p < p:
            raise ValueError(
                f"topology holds only {topology.p} PEs but machine needs {p}"
            )
        self.p = int(p)
        self.spec = spec
        self.topology = topology
        self.cost = CostModel(spec, topology)
        self.clock = np.zeros(self.p, dtype=np.float64)
        self.counters = TrafficCounters(self.p)
        self.breakdown = PhaseBreakdown(self.p)
        self.current_phase: str = PHASE_OTHER
        self.seed = int(seed)
        #: Counter-based sample streams: every draw is a pure function of
        #: ``(seed, level, pe, index)``, so one vectorised call draws a whole
        #: level's samples and the per-PE reference draws the same values.
        self.sample_rng = CounterRNG(self.seed)
        #: The replicated pivot streams of the multisequence selection, under
        #: a salted seed so they are uncorrelated with the sample streams.
        self.pivot_rng = CounterRNG(self.seed ^ _PIVOT_SEED_SALT)
        self.wall_profile: Optional[dict] = None
        self._wall_mark: Optional[float] = None
        #: Name of the backend the most recent ``run_on_machine`` executed
        #: with — what the wall-profile attribution tooling reports.
        self.backend_used: Optional[str] = None
        from repro.sim.faults import FaultState, parse_fault_spec

        #: The attached :class:`~repro.sim.faults.FaultPlan` (or ``None``).
        self.fault_plan = parse_fault_spec(faults)
        #: Runtime fault state; ``None`` unless the plan injects something,
        #: so the fault-free hot paths stay a single attribute check.
        self.faults = (
            FaultState(self.fault_plan, self.p)
            if self.fault_plan is not None and self.fault_plan.enabled
            else None
        )
        from repro.dist.workspace import get_arena

        #: The process workspace arena level execution draws scratch from.
        self.arena = get_arena()

    def release_workspace(self) -> None:
        """Drop the pooled workspace buffers of the process arena.

        The next run simply faults its buffers back in; outputs and
        modelled clocks are unaffected.
        """
        self.arena.release()

    # ------------------------------------------------------------------
    # Clock management
    # ------------------------------------------------------------------
    def advance(self, pe: int, seconds: float) -> None:
        """Advance PE ``pe``'s clock by ``seconds`` attributing it to the current phase.

        With an active fault plan the charge is scaled by the PE's straggler
        slowdown first (see :mod:`repro.sim.faults`).
        """
        if seconds < 0:
            raise ValueError(f"cannot advance clock by negative time {seconds}")
        if seconds == 0.0:
            return
        if self.faults is not None:
            seconds = self.faults.scale_scalar(pe, seconds)
        self.clock[pe] += seconds
        self.breakdown.add(self.current_phase, pe, seconds)

    def advance_many(self, pes: Sequence[int], seconds: Sequence[float] | float) -> None:
        """Advance several PE clocks at once (fault-scaled like :meth:`advance`)."""
        idx = np.asarray(pes, dtype=np.int64)
        if np.isscalar(seconds):
            dts = np.full(idx.shape, float(seconds))
        else:
            dts = np.asarray(seconds, dtype=np.float64)
            if dts.shape != idx.shape:
                raise ValueError("pes and seconds must have the same length")
        if (dts < 0).any():
            raise ValueError("cannot advance clock by negative time")
        if self.faults is not None:
            dts = self.faults.scale(idx, dts)
        self.clock[idx] += dts
        vec = np.zeros(self.p, dtype=np.float64)
        np.add.at(vec, idx, dts)
        self.breakdown.add_many(self.current_phase, vec)

    def synchronize(self, pes: Sequence[int]) -> float:
        """Barrier over ``pes``: all clocks jump to the maximum clock among them.

        The idle (waiting) time is attributed to the current phase, matching
        the paper's instrumentation which places an MPI barrier before every
        phase so that imbalance shows up in the phase that caused it.

        Returns the synchronized time.
        """
        idx = np.asarray(pes, dtype=np.int64)
        if idx.size == 0:
            return 0.0
        t = float(self.clock[idx].max())
        waits = t - self.clock[idx]
        self.clock[idx] = t
        vec = np.zeros(self.p, dtype=np.float64)
        np.add.at(vec, idx, waits)
        self.breakdown.add_many(self.current_phase, vec)
        return t

    def elapsed(self, pes: Optional[Sequence[int]] = None) -> float:
        """Maximum clock value (over ``pes`` or over all PEs)."""
        if pes is None:
            return float(self.clock.max())
        idx = np.asarray(pes, dtype=np.int64)
        if idx.size == 0:
            return 0.0
        return float(self.clock[idx].max())

    def reset(self) -> None:
        """Reset clocks, counters, phase breakdown and fault tallies.

        The random streams carry no state, so there is none to reset: the
        same seed draws the same samples and pivots in every run on the
        machine, with or without a reset.  An enabled wall-clock profile is
        cleared but stays enabled.
        """
        self.clock.fill(0.0)
        self.counters.reset()
        self.breakdown.reset()
        self.current_phase = PHASE_OTHER
        if self.faults is not None:
            self.faults.reset()
        if self.wall_profile is not None:
            self.wall_profile.clear()  # in place: callers hold the reference
            self._wall_mark = None

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------
    def phase(self, name: str) -> PhaseTimer:
        """Context manager attributing subsequent clock advances to ``name``."""
        return PhaseTimer(self, name)

    def enable_wall_profile(self) -> dict:
        """Attribute host wall-clock time to algorithm phases.

        Returns the live profile dictionary (phase name → seconds of
        *simulator execution* time spent while that phase was the innermost
        open phase).  Unlike :attr:`breakdown`, which accumulates modelled
        PE time, this measures where the engine itself spends wall time —
        the sampling / sorting / routing / delivery attribution the perf
        tooling regresses against.  Profiling costs two ``perf_counter``
        calls per phase transition (phases are coarse, so the overhead is
        noise).
        """
        if self.wall_profile is None:
            self.wall_profile = {}
        return self.wall_profile

    # ------------------------------------------------------------------
    # Communicators
    # ------------------------------------------------------------------
    def world(self) -> "Comm":
        """Communicator spanning all PEs of the machine."""
        from repro.sim.comm import Comm

        return Comm(self, np.arange(self.p, dtype=np.int64))

    def comm(self, pes: Iterable[int]) -> "Comm":
        """Communicator over an explicit set of PEs."""
        from repro.sim.comm import Comm

        members = np.asarray(sorted(set(int(x) for x in pes)), dtype=np.int64)
        return Comm(self, members)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"SimulatedMachine(p={self.p}, spec={self.spec.name!r}, "
            f"topology={self.topology.describe()})"
        )
