"""Reference algorithms for collective operations.

:class:`repro.sim.comm.Comm` charges collectives with closed-form costs
(``alpha * log2 P + beta * l``).  This module contains explicit round-based
algorithms for the collectives that the paper relies on, primarily

* the **hypercube all-gather with merging** used by the fast work-inefficient
  sorting algorithm ("gossiping", Section 4.2): received sorted runs are not
  concatenated but merged, so every PE ends up with the globally sorted
  union,
* binomial-tree broadcast/reduction orders (used in tests to validate the
  ``ceil(log2 P)`` round counts charged by the cost model).

The round-based implementations move real data through explicit messages so
the traffic counters reflect a realistic execution, and they work on
communicators of arbitrary (non-power-of-two) size.
"""

from __future__ import annotations

import math
from typing import Callable, List, Sequence, Tuple

import numpy as np


def hypercube_rounds(p: int) -> int:
    """Number of communication rounds of a hypercube gossip over ``p`` PEs."""
    if p <= 0:
        raise ValueError("p must be positive")
    return int(math.ceil(math.log2(p))) if p > 1 else 0


def hypercube_allgather_merge(comm, arrays: Sequence[np.ndarray]) -> List[np.ndarray]:
    """All-gather sorted runs along a (virtual) hypercube, merging as we go.

    Every member contributes a locally sorted array; after
    ``ceil(log2 P)`` pairwise exchange rounds every member holds the sorted
    union of all contributions.  For non-power-of-two sizes the missing
    partners simply contribute nothing in the affected rounds, which keeps
    the algorithm correct at the price of slight imbalance (the same
    remedy the paper suggests: a gather along a binomial tree followed by a
    broadcast).

    Returns the per-member result list (all entries are equal arrays).
    """
    p = comm.size
    if len(arrays) != p:
        raise ValueError("need one array per member PE")
    current: List[np.ndarray] = [np.sort(np.asarray(a), kind="stable") for a in arrays]
    if p == 1:
        return current

    rounds = hypercube_rounds(p)
    for k in range(rounds):
        bit = 1 << k
        outboxes: List[List[Tuple[int, np.ndarray]]] = [[] for _ in range(p)]
        for rank in range(p):
            partner = rank ^ bit
            if partner < p:
                outboxes[rank].append((partner, current[rank]))
        result = comm.exchange(outboxes, schedule="sparse", charge_copy=False)
        new_current: List[np.ndarray] = []
        merge_sizes = []
        for rank in range(p):
            received = result.received_arrays(rank)
            pieces = [current[rank]] + received
            merged = merge_sorted_arrays(pieces)
            new_current.append(merged)
            merge_sizes.append(merged.size)
        comm.charge_merge(merge_sizes, 2)
        current = new_current

    # Ranks whose partners were missing in some round may lack a few
    # contributions; a final all-gather round over the shortfall fixes this
    # without affecting power-of-two sizes.
    total = int(sum(np.asarray(a).size for a in arrays))
    if any(c.size != total for c in current):
        union = merge_sorted_arrays([np.asarray(a) for a in arrays])
        bcast = comm.bcast(union, root=0, words=union.size)
        current = [bcast.copy() for _ in range(p)]
    return current


def merge_sorted_arrays(pieces: Sequence[np.ndarray]) -> np.ndarray:
    """Merge already-sorted arrays into one sorted array (data helper)."""
    pieces = [np.asarray(piece) for piece in pieces if np.asarray(piece).size > 0]
    if not pieces:
        return np.empty(0, dtype=np.float64)
    if len(pieces) == 1:
        return pieces[0].copy()
    out = np.concatenate(pieces)
    out.sort(kind="stable")
    return out


def binomial_bcast_order(p: int, root: int = 0) -> List[Tuple[int, int, int]]:
    """Binomial-tree broadcast schedule.

    Returns a list of ``(round, source, destination)`` triples describing
    which PE informs which PE in which round; after ``ceil(log2 p)`` rounds
    every PE has received the broadcast value.  PE indices are relative to
    ``root`` (i.e. the schedule is for the rotated numbering
    ``(pe - root) mod p``), which is how MPI implementations realise
    broadcasts from arbitrary roots.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    if not 0 <= root < p:
        raise IndexError("root out of range")
    sched: List[Tuple[int, int, int]] = []
    have = {0}
    rnd = 0
    while len(have) < p:
        new = set()
        for src in have:
            dst = src + (1 << rnd)
            if dst < p:
                new.add(dst)
                sched.append((rnd, (src + root) % p, (dst + root) % p))
        have |= new
        rnd += 1
    return sched


def binomial_rounds(p: int) -> int:
    """Number of rounds of a binomial broadcast/reduction over ``p`` PEs."""
    return hypercube_rounds(p)


def tree_reduce(comm, values: Sequence[np.ndarray], op: Callable = np.add) -> np.ndarray:
    """Round-based binomial-tree reduction of per-PE vectors to rank 0.

    Computes the rank-0 result of :meth:`Comm.allreduce_vec` but moves real
    messages so that tests can compare the charged closed-form collective
    cost against an explicit execution.
    """
    p = comm.size
    if len(values) != p:
        raise ValueError("need one vector per member PE")
    partial = [np.asarray(v).copy() for v in values]
    alive = list(range(p))
    while len(alive) > 1:
        outboxes: List[List[Tuple[int, np.ndarray]]] = [[] for _ in range(p)]
        senders = alive[1::2]
        receivers = alive[0::2]
        for recv_rank, send_rank in zip(receivers, senders):
            outboxes[send_rank].append((recv_rank, partial[send_rank]))
        result = comm.exchange(outboxes, schedule="sparse", charge_copy=False)
        for recv_rank in receivers:
            for _, payload in result.inboxes[recv_rank]:
                partial[recv_rank] = op(partial[recv_rank], payload)
        alive = receivers
    return partial[0]


def vector_prefix_sum_reference(vectors: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Sequential reference for the vector-valued exclusive prefix sum.

    Used by the test-suite to validate :meth:`Comm.exscan_vec`.
    """
    out: List[np.ndarray] = []
    acc = None
    for v in vectors:
        v = np.asarray(v, dtype=np.int64)
        if acc is None:
            acc = np.zeros_like(v)
        out.append(acc.copy())
        acc = acc + v
    return out
