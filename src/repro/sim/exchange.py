"""Irregular data exchange (``Exch(P, h, r)``) with startup/volume accounting.

The sorting algorithms move the bulk of their data with an irregular,
personalised exchange: every PE has prepared a number of *pieces*, each
destined for one particular PE of its group.  The paper models this step with
the black-box primitive ``Exch(P, h, r)`` (Section 2.1) where

* ``P``  — number of PEs in the (sub-)network performing the exchange,
* ``h``  — bottleneck communication volume: no PE sends or receives more
  than ``h`` machine words,
* ``r``  — bottleneck startup count: no PE sends or receives more than ``r``
  messages.

This module implements the exchange on the simulator and exposes the two
schedules discussed in Section 7.1:

* **sparse / 1-factor** delivery — only non-empty messages are transmitted
  (this is the behaviour of the authors' 1-factor implementation [31]),
* **dense all-to-allv** — every pair of PEs exchanges a (possibly empty)
  message, as a plain ``MPI_Alltoallv`` would (``P - 1`` startups per PE).

:func:`exchange_times` prices one exchange per PE; both the per-communicator
:func:`execute_exchange` and the lockstep
:meth:`~repro.sim.groups.GroupBatch.charge_exchange` charge through it.

:func:`one_factor_schedule` is a stand-alone implementation of the
1-factorisation of the complete graph that orders the point-to-point
transfers of a sparse exchange.  The exchange charges ``Exch(P, h, r)``
rather than round by round and reports the schedule's length (``P - 1`` or
``P`` rounds) in closed form; the tests check that count against the
schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np


Message = Tuple[int, np.ndarray]
"""A message is a pair ``(destination local rank, payload array)``."""


@dataclass
class ExchangeResult:
    """Outcome of one irregular exchange over a communicator of size ``P``.

    Attributes
    ----------
    inboxes:
        ``inboxes[j]`` is the list of ``(source local rank, payload)`` pairs
        received by local rank ``j``, ordered by source rank and, for equal
        sources, by send order.
    words_sent / words_received:
        Per-PE word counts.
    messages_sent / messages_received:
        Per-PE message counts (empty messages excluded unless the dense
        schedule was requested).
    h_words:
        Bottleneck volume ``h`` = max over PEs of max(sent, received) words.
    r_messages:
        Bottleneck startups ``r`` = max over PEs of max(sent, received)
        messages.
    time:
        Modelled time charged for the exchange (bottleneck PE).
    rounds:
        Number of communication rounds of the schedule (1-factor: ``P`` or
        ``P - 1``; direct: 1).
    """

    inboxes: List[List[Message]]
    words_sent: np.ndarray
    words_received: np.ndarray
    messages_sent: np.ndarray
    messages_received: np.ndarray
    h_words: int
    r_messages: int
    time: float
    rounds: int

    def received_arrays(self, local_rank: int) -> List[np.ndarray]:
        """Payload arrays received by ``local_rank`` (sources stripped)."""
        return [payload for _, payload in self.inboxes[local_rank]]


def one_factor_schedule(p: int) -> List[List[Tuple[int, int]]]:
    """Return the rounds of the 1-factor algorithm for ``p`` PEs.

    Every round is a list of disjoint pairs ``(i, j)`` with ``i < j``; over
    all rounds every unordered pair of distinct PEs appears exactly once.
    For even ``p`` there are ``p - 1`` rounds, for odd ``p`` there are ``p``
    rounds with one idle PE per round.  This is the schedule of Sanders and
    Träff's factor algorithm [31] which the paper's implementation uses for
    its all-to-all exchanges.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    if p == 1:
        return []
    rounds: List[List[Tuple[int, int]]] = []
    if p % 2 == 0:
        # Classic circle method: fix PE p-1, rotate the others.
        n = p - 1
        for r in range(n):
            pairs = [(r, p - 1)]
            for k in range(1, (n + 1) // 2):
                a = (r + k) % n
                b = (r - k) % n
                pairs.append((min(a, b), max(a, b)))
            rounds.append(sorted(set(pairs)))
    else:
        # Odd p: in round r, PE i is paired with (r - i) mod p; the PE with
        # 2i == r (mod p) is idle.
        for r in range(p):
            pairs = []
            seen = set()
            for i in range(p):
                j = (r - i) % p
                if i == j or i in seen or j in seen:
                    continue
                seen.add(i)
                seen.add(j)
                pairs.append((min(i, j), max(i, j)))
            rounds.append(sorted(pairs))
    return rounds


def direct_schedule(p: int) -> List[List[Tuple[int, int]]]:
    """A single-round 'schedule' in which all pairs communicate at once.

    This is not a feasible single-ported schedule; it describes direct
    delivery (the dense exchange), whose cost is charged through the
    ``Exch(P, h, r)`` bound instead of round by round.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    pairs = [(i, j) for i in range(p) for j in range(i + 1, p)]
    return [pairs] if pairs else []


def verify_one_factor(rounds: Sequence[Sequence[Tuple[int, int]]], p: int) -> bool:
    """Check that ``rounds`` is a valid 1-factorisation of the complete graph.

    Every unordered pair must appear exactly once and no PE may appear twice
    within a round.
    """
    seen: Dict[Tuple[int, int], int] = {}
    for rnd in rounds:
        used = set()
        for (a, b) in rnd:
            if a == b or not (0 <= a < p) or not (0 <= b < p):
                return False
            if a in used or b in used:
                return False
            used.add(a)
            used.add(b)
            seen[(a, b)] = seen.get((a, b), 0) + 1
    expected = p * (p - 1) // 2
    if len(seen) != expected:
        return False
    return all(count == 1 for count in seen.values())


def exchange_times(
    machine,
    members: np.ndarray,
    beta: float | np.ndarray,
    words_sent: np.ndarray,
    words_received: np.ndarray,
    messages_sent: np.ndarray,
    messages_received: np.ndarray,
    charge_copy: bool,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-PE price of ``Exch(P, h, r)``: ``alpha * r + beta * h``.

    The count vectors are indexed like ``members``; ``beta`` is the
    per-word time of the topology level the exchange crosses, a scalar or
    one value per PE.  ``charge_copy`` adds the local cost of packing and
    unpacking the moved words.  An active fault plan adds the cost of
    dropped rounds, keyed by each member's exchange counter *before* this
    exchange is recorded, so an exchange draws the same faults whether it
    is charged per communicator or in a lockstep batch.

    Returns the per-PE ``(h, r, times)``; charges nothing.
    """
    alpha = machine.spec.alpha
    h_per_pe = np.maximum(words_sent, words_received)
    r_per_pe = np.maximum(messages_sent, messages_received)
    times = alpha * r_per_pe + beta * h_per_pe
    if charge_copy:
        times = times + machine.spec.move_ns * 1e-9 * (words_sent + words_received)
    faults = machine.faults
    if faults is not None:
        times = times + faults.exchange_extra(
            members, machine.counters.exchange_ops[members],
            h_per_pe, r_per_pe, alpha, beta,
        )
    return h_per_pe, r_per_pe, times


def execute_exchange(
    comm,
    outboxes: Sequence[Sequence[Message]],
    schedule: str = "sparse",
    charge_copy: bool = True,
) -> ExchangeResult:
    """Run an irregular exchange on communicator ``comm``.

    Parameters
    ----------
    comm:
        The :class:`repro.sim.comm.Comm` performing the exchange.
    outboxes:
        ``outboxes[i]`` is the list of messages local rank ``i`` sends.
        Destinations are local ranks within ``comm``.
    schedule:
        ``'sparse'`` (only non-empty messages cost a startup, as with the
        1-factor implementation) or ``'dense'`` (``P - 1`` startups per PE,
        as with a plain all-to-allv).
    charge_copy:
        Whether to charge the local cost of packing/unpacking the moved
        elements in addition to the network transfer.

    Returns
    -------
    ExchangeResult
    """
    machine = comm.machine
    p = comm.size
    if len(outboxes) != p:
        raise ValueError(f"need one outbox per member PE ({p}), got {len(outboxes)}")
    if schedule not in ("sparse", "dense"):
        raise ValueError(f"unknown exchange schedule {schedule!r}")

    words_sent = np.zeros(p, dtype=np.int64)
    words_received = np.zeros(p, dtype=np.int64)
    messages_sent = np.zeros(p, dtype=np.int64)
    messages_received = np.zeros(p, dtype=np.int64)
    inboxes: List[List[Message]] = [[] for _ in range(p)]

    # Deliver messages (data semantics) and count traffic.
    for src in range(p):
        for dest, payload in outboxes[src]:
            if not 0 <= dest < p:
                raise IndexError(
                    f"message from local rank {src} addressed to invalid rank {dest}"
                )
            payload = np.asarray(payload)
            size = int(payload.size)
            inboxes[dest].append((src, payload))
            words_sent[src] += size
            words_received[dest] += size
            counted = size > 0 or schedule == "dense"
            if size > 0:
                machine.counters.record_message(
                    int(comm.members[src]), int(comm.members[dest]), size
                )
            if counted and size > 0:
                messages_sent[src] += 1
                messages_received[dest] += 1

    # Keep inboxes ordered by source rank for determinism.
    for dest in range(p):
        inboxes[dest].sort(key=lambda msg: msg[0])

    if schedule == "dense":
        messages_sent[:] = p - 1
        messages_received[:] = p - 1

    # Synchronise the group, then charge each PE its own cost; the group is
    # synchronised again afterwards because the step is bulk synchronous.
    machine.synchronize(comm.members)
    h_per_pe, r_per_pe, times = exchange_times(
        machine, comm.members, machine.spec.beta_for_level(comm.level),
        words_sent, words_received, messages_sent, messages_received,
        charge_copy,
    )
    machine.advance_many(comm.members, times)
    machine.synchronize(comm.members)
    machine.counters.record_exchange(comm.members)

    rounds = 1
    if schedule == "sparse" and p > 1:
        rounds = p - 1 if p % 2 == 0 else p

    return ExchangeResult(
        inboxes=inboxes,
        words_sent=words_sent,
        words_received=words_received,
        messages_sent=messages_sent,
        messages_received=messages_received,
        h_words=int(h_per_pe.max(initial=0)),
        r_messages=int(r_per_pe.max(initial=0)),
        time=float(times.max(initial=0.0)),
        rounds=rounds,
    )
