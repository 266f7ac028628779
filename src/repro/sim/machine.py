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
        Seed for the machine's replicated random generator (used for
        decisions that the paper makes identically on all PEs, e.g. the
        shared random pivot in multisequence selection).
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
        self.rng = np.random.default_rng(self.seed)
        self._sample_rng = CounterRNG(self.seed)
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
    # Random number generation
    # ------------------------------------------------------------------
    @property
    def sample_rng(self) -> CounterRNG:
        """Counter-based random streams for the sampled algorithm paths.

        A :class:`~repro.dist.ctr_rng.CounterRNG` keyed by the machine seed:
        every draw is a pure function of ``(seed, level, pe, index)``, so one
        vectorised call produces the whole machine's sample positions for a
        recursion level while the per-PE reference path obtains *identical*
        values from the same helper.  Being stateless, the streams are
        unaffected by :meth:`reset` — same seed, same draws, in any
        batching.
        """
        return self._sample_rng

    def group_rng(self, level: int, root_pe: int) -> np.random.Generator:
        """Deterministic random stream replicated within one PE group.

        Used for decisions a *sub-group* of the machine makes identically on
        all of its members (e.g. the shared random pivots of a multisequence
        selection at recursion level ``level`` in the group whose first PE is
        ``root_pe``).  Unlike :attr:`rng` the stream depends only on
        ``(machine seed, level, root_pe)``, never on what other groups have
        drawn before — which is what lets the lockstep engine run all
        sibling groups of a recursion level as one batch while remaining
        byte-identical to the group-by-group reference execution.  A fresh
        generator is returned on every call.
        """
        if not 0 <= root_pe < self.p:
            raise IndexError(f"PE index {root_pe} out of range")
        if level < 0:
            raise ValueError("level must be non-negative")
        return np.random.default_rng(
            (self.seed + 1) * 2_147_483_629
            + (level + 1) * 15_485_863
            + root_pe
        )

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
        """Reset clocks, counters, phase breakdown and random generators.

        The counter-based sampling streams (:attr:`sample_rng`) carry no
        state and are therefore unaffected: the same seed draws the same
        samples before and after a reset.  An enabled wall-clock profile is
        cleared but stays enabled.
        """
        self.clock.fill(0.0)
        self.counters.reset()
        self.breakdown.reset()
        self.current_phase = PHASE_OTHER
        self.rng = np.random.default_rng(self.seed)
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
