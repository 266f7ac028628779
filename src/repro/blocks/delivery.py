"""Data delivery to PE groups (Section 4.3, Section 4.3.1, Appendix A).

Both multi-level algorithms face the same redistribution problem: every PE
has partitioned its local data into ``r`` pieces and piece ``j`` must be
moved to PE *group* ``j`` such that all PEs of a group receive (almost) the
same amount of data, every piece is sent to only one or two consecutive
target PEs, and — crucially for scalability — no PE receives too many tiny
messages.

Four strategies are implemented, mirroring the paper:

``naive``
    The plain prefix-sum enumeration (beginning of Section 4.3): correct and
    perfectly balanced, but adversarial inputs can force ``Omega(p)`` tiny
    messages onto a single receiver (Figure 3, top).

``randomized``
    The first-stage fix: the PE numbering used for the prefix sum is a
    pseudorandom permutation per group (Figure 3, bottom), which spreads the
    tiny pieces over all receivers with high probability.

``deterministic``
    The two-phase deterministic algorithm of Section 4.3.1 (Figure 4): small
    pieces (size at most ``n / (2 p r)``) are assigned whole via a prefix
    sum, then large pieces fill the residual capacities.  Guarantees
    ``O(r)`` messages per PE.

``advanced``
    The advanced randomized algorithm of Appendix A: pieces larger than
    ``s = a*n/(r*p)`` are broken into chunks of size ``s``, chunk descriptors
    are delegated to pseudorandom PEs, and the per-group enumeration order is
    randomized, giving ``<= 1 + 2r(1 + 1/a)`` received messages w.h.p.
    (Lemma 6, Theorem 4).  The tuning parameter is Lemma 6's
    ``a = max(1, sqrt(r / ln(r p)))`` (:func:`_chunk_limit`).

All strategies deliver exactly the same multiset of elements to each group
and differ only in how the elements of a group are laid out across its PEs
and in the number of messages used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.blocks.feistel import FeistelPermutation
from repro.dist.array import DistArray
from repro.dist.flatops import (
    concat_ranges,
    stable_two_key_argsort,
    take_ranges,
)
from repro.dist.workspace import get_arena
from repro.machine.counters import PHASE_DATA_DELIVERY
from repro.sim.exchange import ExchangeResult


DELIVERY_METHODS = ("naive", "randomized", "deterministic", "advanced")


@dataclass
class DeliveryResult:
    """Outcome of a data delivery step.

    Attributes
    ----------
    received:
        ``received[i]`` is the list of arrays PE ``i`` (local rank within the
        delivering communicator) holds after the delivery — network messages
        and locally retained pieces, ordered by sending PE.  A PE that
        receives nothing holds one empty array of the pieces' dtype, so
        its output keeps the key dtype.
    received_sizes:
        Total number of elements each PE holds after the delivery.
    group_of_rank:
        Group index of every local rank.
    group_loads:
        Total number of elements delivered to each group.
    group_capacity:
        The per-PE capacity bound used for each group (elements).
    exchange:
        The underlying :class:`ExchangeResult` (message statistics).
    method:
        Strategy that produced this result.
    """

    received: List[List[np.ndarray]]
    received_sizes: np.ndarray
    group_of_rank: np.ndarray
    group_loads: np.ndarray
    group_capacity: np.ndarray
    exchange: ExchangeResult
    method: str

    def received_concat(self, local_rank: int) -> np.ndarray:
        """All data held by ``local_rank`` after delivery, concatenated."""
        return np.concatenate(self.received[local_rank])

    def max_received_messages(self) -> int:
        """Maximum number of network messages received by any PE."""
        return int(self.exchange.messages_received.max(initial=0))

    def max_sent_messages(self) -> int:
        """Maximum number of network messages sent by any PE."""
        return int(self.exchange.messages_sent.max(initial=0))


def _piece_sizes(pieces: Sequence[Sequence[np.ndarray]], p: int, r: int) -> np.ndarray:
    sizes = np.zeros((p, r), dtype=np.int64)
    for i in range(p):
        if len(pieces[i]) != r:
            raise ValueError(
                f"PE {i} provided {len(pieces[i])} pieces, expected one per group ({r})"
            )
        for j in range(r):
            sizes[i, j] = int(np.asarray(pieces[i][j]).size)
    return sizes


def _group_layout(groups) -> Tuple[np.ndarray, np.ndarray]:
    """Start rank (within the parent communicator) and size of every group."""
    starts = []
    sizes = []
    offset = 0
    for g in groups:
        starts.append(offset)
        sizes.append(g.size)
        offset += g.size
    return np.asarray(starts, dtype=np.int64), np.asarray(sizes, dtype=np.int64)


def _positions_to_destinations(
    start: int, count: int, block: int, group_start: int, group_size: int
) -> List[Tuple[int, int, int]]:
    """Map the position range ``[start, start+count)`` to destination PEs.

    Returns ``(dest_rank, offset_in_piece, length)`` triples where
    ``dest_rank`` is a local rank of the parent communicator.  Positions are
    laid out in blocks of ``block`` consecutive positions per PE.
    """
    out: List[Tuple[int, int, int]] = []
    if count <= 0:
        return out
    block = max(1, int(block))
    pos = start
    consumed = 0
    while consumed < count:
        pe_in_group = min(group_size - 1, pos // block)
        pe_end = (pe_in_group + 1) * block if pe_in_group < group_size - 1 else start + count
        take = min(count - consumed, max(1, pe_end - pos))
        out.append((int(group_start + pe_in_group), consumed, int(take)))
        pos += take
        consumed += take
    return out


def _assign_by_prefix(
    sizes: np.ndarray,
    pieces: Sequence[Sequence[np.ndarray]],
    group_starts: np.ndarray,
    group_sizes: np.ndarray,
    order_per_group: Optional[List[np.ndarray]] = None,
) -> Tuple[List[List[Tuple[int, np.ndarray]]], np.ndarray, np.ndarray]:
    """Prefix-sum position assignment shared by the naive/randomized/advanced paths.

    ``order_per_group[j]`` gives the order in which the pieces of group ``j``
    are enumerated (indices into the sending PEs); ``None`` means natural
    order (the naive algorithm).
    """
    p, r = sizes.shape
    outboxes: List[List[Tuple[int, np.ndarray]]] = [[] for _ in range(p)]
    group_loads = sizes.sum(axis=0)
    capacities = np.zeros(r, dtype=np.int64)
    for j in range(r):
        m_j = int(group_loads[j])
        p_g = int(group_sizes[j])
        block = int(math.ceil(m_j / p_g)) if m_j > 0 else 1
        capacities[j] = block
        order = order_per_group[j] if order_per_group is not None else np.arange(p)
        offset = 0
        for i in order:
            i = int(i)
            size = int(sizes[i, j])
            if size == 0:
                continue
            targets = _positions_to_destinations(
                offset, size, block, int(group_starts[j]), p_g
            )
            piece = np.asarray(pieces[i][j])
            for dest, piece_off, length in targets:
                outboxes[i].append((dest, piece[piece_off:piece_off + length]))
            offset += size
    return outboxes, group_loads, capacities


def _assign_deterministic(
    sizes: np.ndarray,
    pieces: Sequence[Sequence[np.ndarray]],
    group_starts: np.ndarray,
    group_sizes: np.ndarray,
) -> Tuple[List[List[Tuple[int, np.ndarray]]], np.ndarray, np.ndarray]:
    """The two-phase deterministic assignment of Section 4.3.1."""
    p, r = sizes.shape
    total = int(sizes.sum())
    outboxes: List[List[Tuple[int, np.ndarray]]] = [[] for _ in range(p)]
    group_loads = sizes.sum(axis=0)
    capacities = np.zeros(r, dtype=np.int64)
    threshold = max(1, total // (2 * p * r)) if total > 0 else 1

    for j in range(r):
        m_j = int(group_loads[j])
        p_g = int(group_sizes[j])
        group_start = int(group_starts[j])
        if m_j == 0:
            capacities[j] = 0
            continue
        cap = int(math.ceil(m_j / p_g))
        piece_sizes_j = sizes[:, j]
        small_senders = np.flatnonzero((piece_sizes_j > 0) & (piece_sizes_j <= threshold))
        large_senders = np.flatnonzero(piece_sizes_j > threshold)

        # Phase 1: small pieces are assigned whole, round-robin by their
        # enumeration index (piece s goes to group PE floor(s / r)).
        load = np.zeros(p_g, dtype=np.int64)
        for s_idx, i in enumerate(small_senders):
            pe_in_group = min(p_g - 1, s_idx // max(1, r))
            dest = group_start + pe_in_group
            outboxes[int(i)].append((dest, np.asarray(pieces[int(i)][j])))
            load[pe_in_group] += int(piece_sizes_j[i])

        # Phase 2: large pieces fill the residual capacities.
        large_total = int(piece_sizes_j[large_senders].sum())
        residual = np.maximum(0, cap - load)
        if residual.sum() < large_total:
            bump = int(math.ceil((large_total - int(residual.sum())) / p_g))
            cap += bump
            residual = np.maximum(0, cap - load)
        capacities[j] = int(cap)
        if large_total > 0:
            res_prefix = np.concatenate([[0], np.cumsum(residual)])
            offset = 0
            for i in large_senders:
                i = int(i)
                size = int(piece_sizes_j[i])
                piece = np.asarray(pieces[i][j])
                consumed = 0
                pos = offset
                while consumed < size:
                    # slot `pos` belongs to the PE whose residual range contains it
                    pe_in_group = int(np.searchsorted(res_prefix, pos, side="right")) - 1
                    pe_in_group = min(pe_in_group, p_g - 1)
                    pe_room_end = int(res_prefix[pe_in_group + 1]) if pe_in_group + 1 < res_prefix.size else pos + (size - consumed)
                    take = min(size - consumed, max(1, pe_room_end - pos))
                    dest = group_start + pe_in_group
                    outboxes[i].append((dest, piece[consumed:consumed + take]))
                    pos += take
                    consumed += take
                offset += size
        else:
            capacities[j] = int(cap)
    return outboxes, group_loads, capacities


def _chunk_limit(sizes: np.ndarray) -> int:
    """Chunk size ``s = a*n/(r*p)`` of the advanced algorithm (at least 1).

    ``a = max(1, sqrt(r / ln(r p)))`` as in Lemma 6.
    """
    p, r = sizes.shape
    total = int(sizes.sum())
    if total == 0:
        return 1
    a = max(1.0, math.sqrt(r / math.log(max(r * p, 2))))
    return max(1, int(math.ceil(a * total / max(1, r * p))))


def _advanced_orders(
    sizes: np.ndarray,
    group_sizes: np.ndarray,
    seed: int,
) -> Tuple[List[List[Tuple[int, int, int]]], int]:
    """Chunk lists for the advanced randomized algorithm.

    Returns, per group, a pseudorandomly ordered list of chunks
    ``(sender, offset, length)`` plus the number of delegated (large) chunks
    over all groups (used to charge the descriptor exchange).
    """
    p, r = sizes.shape
    limit = _chunk_limit(sizes)
    per_group: List[List[Tuple[int, int, int]]] = []
    delegated = 0
    for j in range(r):
        chunks: List[Tuple[int, int, int]] = []
        for i in range(p):
            size = int(sizes[i, j])
            if size == 0:
                continue
            if size <= limit:
                chunks.append((i, 0, size))
            else:
                off = 0
                while off < size:
                    length = min(limit, size - off)
                    chunks.append((i, off, length))
                    off += length
                    delegated += 1
        if len(chunks) > 1:
            perm = FeistelPermutation(len(chunks), seed=seed * 7919 + j)
            order = np.argsort(perm.permutation_array(), kind="stable")
            chunks = [chunks[int(t)] for t in order]
        per_group.append(chunks)
    return per_group, delegated


def deliver_to_groups(
    comm,
    groups,
    pieces: Sequence[Sequence[np.ndarray]],
    method: str = "deterministic",
    seed: int = 0,
    schedule: str = "sparse",
) -> DeliveryResult:
    """Deliver per-PE pieces to PE groups and return the received data.

    Parameters
    ----------
    comm:
        Parent communicator whose PEs hold the pieces.
    groups:
        Sub-communicators from ``comm.split(r)``; group ``j`` receives the
        ``j``-th piece of every PE.
    pieces:
        ``pieces[i][j]`` is the piece of local rank ``i`` destined for group
        ``j``.  Pieces may be empty.
    method:
        One of :data:`DELIVERY_METHODS`.
    seed:
        Seed for the pseudorandom permutations of the randomized methods.
    schedule:
        Exchange schedule: ``'sparse'`` (AMS-sort, RLM-sort, quicksort) or
        ``'dense'`` (sample sort, and mergesort: RLM-sort's level at r = p).

    The modelled time goes to the data-delivery phase.
    """
    if method not in DELIVERY_METHODS:
        raise ValueError(f"unknown delivery method {method!r}; choose from {DELIVERY_METHODS}")
    p = comm.size
    r = len(groups)
    if r == 0:
        raise ValueError("need at least one target group")
    sizes = _piece_sizes(pieces, p, r)
    group_starts, group_sizes = _group_layout(groups)
    if int(group_sizes.sum()) != p:
        raise ValueError("groups must partition the parent communicator")

    with comm.phase(PHASE_DATA_DELIVERY):
        # The vector-valued prefix sum over piece sizes (cost accounting for
        # the enumeration step; the actual positions are computed below).
        comm.exscan_vec([sizes[i] for i in range(p)])

        if method == "naive":
            outboxes, group_loads, capacities = _assign_by_prefix(
                sizes, pieces, group_starts, group_sizes, order_per_group=None
            )
        elif method == "randomized":
            orders = []
            for j in range(r):
                perm = FeistelPermutation(p, seed=seed * 104729 + j)
                orders.append(np.argsort(perm.permutation_array(), kind="stable"))
            outboxes, group_loads, capacities = _assign_by_prefix(
                sizes, pieces, group_starts, group_sizes, order_per_group=orders
            )
        elif method == "deterministic":
            outboxes, group_loads, capacities = _assign_deterministic(
                sizes, pieces, group_starts, group_sizes
            )
        else:  # advanced
            chunk_lists, delegated = _advanced_orders(sizes, group_sizes, seed)
            # Descriptor delegation: every delegated chunk sends a constant
            # size descriptor to a pseudorandom PE (Appendix A); modelled as
            # a small exchange.
            if delegated > 0:
                desc_out: List[List[Tuple[int, np.ndarray]]] = [[] for _ in range(p)]
                perm = FeistelPermutation(max(delegated, 1), seed=seed * 15485863 + 1)
                t = 0
                for j, chunks in enumerate(chunk_lists):
                    for (i, off, length) in chunks:
                        if length < 1:
                            continue
                        # only chunks from broken-up pieces are delegated
                        if sizes[i, j] > length or off > 0:
                            dest = int(perm.apply(t % max(delegated, 1))) % p
                            desc_out[i].append((dest, np.zeros(3, dtype=np.int64)))
                            t += 1
                comm.exchange(desc_out, schedule=schedule, charge_copy=False)
            # Build outboxes from the chunk enumeration order.
            outboxes = [[] for _ in range(p)]
            group_loads = sizes.sum(axis=0)
            capacities = np.zeros(r, dtype=np.int64)
            for j, chunks in enumerate(chunk_lists):
                m_j = int(group_loads[j])
                p_g = int(group_sizes[j])
                block = int(math.ceil(m_j / p_g)) if m_j > 0 else 1
                capacities[j] = block
                offset = 0
                for (i, off, length) in chunks:
                    piece = np.asarray(pieces[i][j])
                    targets = _positions_to_destinations(
                        offset, length, block, int(group_starts[j]), p_g
                    )
                    for dest, t_off, t_len in targets:
                        outboxes[i].append((dest, piece[off + t_off: off + t_off + t_len]))
                    offset += length

        # Keep local (self-addressed) pieces out of the network.
        net_out: List[List[Tuple[int, np.ndarray]]] = [[] for _ in range(p)]
        kept: List[List[Tuple[int, np.ndarray]]] = [[] for _ in range(p)]
        for i in range(p):
            for dest, payload in outboxes[i]:
                if dest == i:
                    kept[i].append((i, payload))
                    comm.charge_local(i, comm.spec.local_move_time(int(payload.size)))
                else:
                    net_out[i].append((dest, payload))

        exchange = comm.exchange(net_out, schedule=schedule)

        received: List[List[np.ndarray]] = []
        received_sizes = np.zeros(p, dtype=np.int64)
        nothing = np.asarray(pieces[0][0])[:0]
        for i in range(p):
            entries = list(exchange.inboxes[i]) + kept[i]
            entries.sort(key=lambda e: e[0])
            arrays = [np.asarray(payload) for _, payload in entries]
            received.append(arrays or [nothing])
            received_sizes[i] = int(sum(a.size for a in arrays))

        group_of_rank = np.zeros(p, dtype=np.int64)
        for j in range(r):
            start = int(group_starts[j])
            group_of_rank[start:start + int(group_sizes[j])] = j

    return DeliveryResult(
        received=received,
        received_sizes=received_sizes,
        group_of_rank=group_of_rank,
        group_loads=group_loads.astype(np.int64),
        group_capacity=capacities,
        exchange=exchange,
        method=method,
    )


# ======================================================================
# Vectorised assignments of the lockstep (DistArray) engine
# ======================================================================
#
# The functions below are vectorised ports of the per-PE assignment
# algorithms above, called by :func:`deliver_to_groups_batched`.  Pieces
# are given as one flat value buffer plus one flat vector of piece sizes;
# messages are built as flat ``(src, dest, start, length)`` index arrays
# instead of per-piece Python loops.  Every port emits *exactly* the
# message stream of its per-PE counterpart (same sources, destinations and
# payload slices), which keeps costs and data byte-identical.


def _enumerate_pieces(
    p_k: np.ndarray,
    r_k: np.ndarray,
    piece_off: np.ndarray,
    isl_off: np.ndarray,
    sel: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pieces of islands ``sel`` in (island, group, sender) order.

    A delivery's one enumeration, read by the column-major piece starts
    and the deterministic and prefix-sum assignments.  Returns per piece
    its index into the row-major (island, sender, group) piece list, its
    sender's batch rank and its position in its island's column-major
    (group, sender) order.
    """
    pcs = p_k[sel] * r_k[sel]
    pos = concat_ranges(np.zeros(sel.size, dtype=np.int64), pcs)
    isl = np.repeat(sel, pcs)
    group, local = np.divmod(pos, p_k[isl])
    return piece_off[isl] + local * r_k[isl] + group, isl_off[isl] + local, pos


def _randomized_order(
    pos: np.ndarray, p_k: np.ndarray, r_k: np.ndarray, seed: int
) -> np.ndarray:
    """The enumerated pieces reordered as the randomized delivery sends them.

    ``pos`` comes from :func:`_enumerate_pieces` over islands of sizes
    ``p_k`` with ``r_k`` groups.  Group ``j`` of an island of ``p`` PEs
    enumerates sender ``i`` at position ``pi(i)`` of the bijection
    ``FeistelPermutation(p, seed * 104729 + j)``, as the reference does.
    """
    pcs = p_k * r_k
    pk_rep = np.repeat(p_k, pcs)
    rank = np.empty_like(pos)
    for pk in np.unique(p_k).tolist():
        of_pk = pk_rep == pk
        rank[of_pk] = np.concatenate([
            FeistelPermutation(pk, seed=seed * 104729 + j).permutation_array()
            for j in range(int(r_k[p_k == pk].max()))
        ])[pos[of_pk]]
    piece = np.arange(pos.size, dtype=np.int64)
    order = np.empty_like(piece)
    order[piece - pos % pk_rep + rank] = piece
    return order


def _flat_assign_by_prefix_batched(
    sz: np.ndarray,
    st: np.ndarray,
    sender: np.ndarray,
    pair_len: np.ndarray,
    p_g: np.ndarray,
    g_start: np.ndarray,
) -> np.ndarray:
    """Vectorised :func:`_assign_by_prefix` for many (island, group) pairs.

    The pieces come pair by pair, ``pair_len`` of them in each pair's
    enumeration order; ``p_g`` and ``g_start`` are every pair's group size
    and first batch rank.  A pair lays its ``m`` elements out back to back
    and hands position ``x`` to group PE ``min(x // ceil(m / p_g), p_g - 1)``,
    so a piece becomes one message per group PE its positions meet.
    Returns the stacked ``(src, dest, start, length)`` messages.
    """
    pair_off = np.zeros(pair_len.size + 1, dtype=np.int64)
    np.cumsum(pair_len, out=pair_off[1:])
    csum = np.zeros(sz.size + 1, dtype=np.int64)
    np.cumsum(sz, out=csum[1:])
    block = np.maximum(1, -(-(csum[pair_off[1:]] - csum[pair_off[:-1]]) // p_g))
    nz = np.flatnonzero(sz > 0)
    pair = np.repeat(np.arange(pair_len.size, dtype=np.int64), pair_len)[nz]
    at = csum[nz] - csum[pair_off[pair]]  # position of each piece in its pair
    end = at + sz[nz]
    b = block[pair]
    first = np.minimum(at // b, p_g[pair] - 1)
    cnt = np.minimum((end - 1) // b, p_g[pair] - 1) - first + 1
    msg = np.repeat(np.arange(nz.size, dtype=np.int64), cnt)
    pe = concat_ranges(first, cnt)
    lo = pe * b[msg]
    hi = lo + b[msg]
    head = np.cumsum(cnt) - cnt
    lo[head] = at
    hi[head + cnt - 1] = end
    return np.stack([
        sender[nz][msg], g_start[pair][msg] + pe,
        st[nz][msg] + (lo - at[msg]), hi - lo,
    ])


def _flat_assign_deterministic_batched(
    sz: np.ndarray,
    st: np.ndarray,
    sender: np.ndarray,
    p_k: np.ndarray,
    r_k: np.ndarray,
    p_g: np.ndarray,
    g_start: np.ndarray,
) -> np.ndarray:
    """Vectorised :func:`_assign_deterministic` for many islands in one pass.

    ``sz``, ``st`` and ``sender`` list the pieces of islands of sizes
    ``p_k`` with ``r_k`` groups in (island, group, sender) order
    (:func:`_enumerate_pieces`); ``p_g`` and ``g_start`` give every
    ``(island, group)`` pair's group size and the batch rank of its first
    PE.  Runs the two-phase deterministic assignment of every pair at
    once: phase-1 small pieces place by a segmented enumeration count,
    phase-2 large pieces split against the residual capacities through
    one composed-key interval merge — no Python loop over islands or
    groups.  Emits exactly the messages of the per-PE reference; their
    order differs, which is unobservable because the deterministic
    assignment sends at most one message per ``(source, destination)``
    pair.  Returns the stacked ``(src, dest, start, length)`` message
    matrix (``(4, 0)`` when nothing is sent).

    Raises :class:`OverflowError` when the composed ``(pair, position)``
    keys do not fit in int64, which needs ``p * n >= 2**61`` for ``p`` PEs
    and ``n`` keys.
    """
    pcs = p_k * r_k
    g_off = np.zeros(p_k.size + 1, dtype=np.int64)
    np.cumsum(r_k, out=g_off[1:])

    # One pair per (island, group); pieces of a pair are contiguous.
    n_pairs = int(g_off[-1])
    pair_len = np.repeat(p_k, r_k)
    pair_off = np.zeros(n_pairs + 1, dtype=np.int64)
    np.cumsum(pair_len, out=pair_off[1:])
    pair_of_piece = np.repeat(np.arange(n_pairs, dtype=np.int64), pair_len)

    m_j = np.add.reduceat(sz, pair_off[:-1])
    isl_tot = np.add.reduceat(m_j, g_off[:-1])
    thr_rep = np.repeat(np.maximum(1, isl_tot // (2 * pcs)), pcs)

    parts: List[np.ndarray] = []

    # Phase 1: small pieces whole, round-robin by enumeration index.
    small = (sz > 0) & (sz <= thr_rep)
    excl = np.cumsum(small.astype(np.int64)) - small
    s_idx = excl - np.repeat(excl[pair_off[:-1]], pair_len)
    pe_small = np.minimum(
        p_g[pair_of_piece] - 1, s_idx // np.maximum(1, np.repeat(r_k, pcs))
    )
    sm = np.flatnonzero(small)
    if sm.size:
        parts.append(np.stack([
            sender[sm], g_start[pair_of_piece[sm]] + pe_small[sm],
            st[sm], sz[sm],
        ]))

    # Residual capacities per (pair, group PE) slot.
    slot_off = np.zeros(n_pairs + 1, dtype=np.int64)
    np.cumsum(p_g, out=slot_off[1:])
    total_slots = int(slot_off[-1])
    load = np.bincount(
        slot_off[pair_of_piece[sm]] + pe_small[sm],
        weights=sz[sm], minlength=total_slots,
    ).astype(np.int64)
    large = sz > thr_rep
    large_total = np.add.reduceat(
        np.where(large, sz, 0), pair_off[:-1]
    )
    cap = -(-m_j // np.maximum(p_g, 1))
    residual = np.maximum(0, np.repeat(cap, p_g) - load)
    res_sum = np.add.reduceat(residual, slot_off[:-1])
    bump = np.where(
        res_sum < large_total,
        -(-(large_total - res_sum) // np.maximum(p_g, 1)),
        0,
    )
    cap = cap + bump
    residual = np.maximum(0, np.repeat(cap, p_g) - load)

    # Phase 2: large pieces fill the residuals.  All pairs with large
    # pieces run one composed-key interval merge: candidate split points
    # are the large-piece bounds and the interior residual prefixes, keyed
    # by (pair, position) so one sort + dedupe + two searchsorted calls
    # produce every pair's message intervals at once.
    lp = np.flatnonzero(large_total > 0)
    if lp.size == 0:
        return (np.concatenate(parts, axis=1) if parts
                else np.empty((4, 0), dtype=np.int64))
    n_lp = int(lp.size)
    lp_flag = np.zeros(n_pairs, dtype=bool)
    lp_flag[lp] = True
    dense = np.zeros(n_pairs, dtype=np.int64)
    dense[lp] = np.arange(n_lp, dtype=np.int64)

    lg = np.flatnonzero(large & lp_flag[pair_of_piece])
    l_pair = pair_of_piece[lg]
    l_cnt = np.bincount(dense[l_pair], minlength=n_lp)
    l_off = np.zeros(n_lp + 1, dtype=np.int64)
    np.cumsum(l_cnt, out=l_off[1:])
    l_sz = sz[lg]
    lexcl = np.cumsum(l_sz) - l_sz
    lexcl = lexcl - np.repeat(lexcl[l_off[:-1]], l_cnt)  # bounds[piece]

    # Candidate points: each large piece's lower bound, each pair's total,
    # and the interior residual prefixes strictly inside (0, total).
    res_in_lp = residual[concat_ranges(slot_off[lp], p_g[lp])]
    rexcl = np.cumsum(res_in_lp) - res_in_lp
    rp_pair = np.repeat(np.arange(n_lp, dtype=np.int64), p_g[lp])
    rexcl = rexcl - np.repeat(rexcl[np.cumsum(p_g[lp]) - p_g[lp]], p_g[lp])
    cut_keep = (rexcl > 0) & (rexcl < large_total[lp][rp_pair])

    vmax = max(int(large_total[lp].max()), int(rexcl.max(initial=0)))
    bits = max(1, vmax.bit_length())
    if (n_lp << bits) >= (1 << 62):
        raise OverflowError("composed delivery keys would overflow int64")
    key = np.int64(1) << np.int64(bits)
    # The piece bounds are already sorted (pair-major, ascending within
    # each pair) and so are the residual cuts, so the candidate points
    # merge by insertion — no sort.
    nb = l_cnt + 1
    nb_off = np.zeros(n_lp + 1, dtype=np.int64)
    np.cumsum(nb, out=nb_off[1:])
    # The candidate-point planes (m1, the merged pts buffer and its scatter
    # index) are piece-scale scratch, dead once the unique points are
    # extracted — all workspace checkouts.
    ws = get_arena()
    m1 = ws.empty(int(nb_off[-1]), np.int64)
    idx = concat_ranges(nb_off[:-1], l_cnt, arena=ws)
    m1[idx] = dense[l_pair] * key + lexcl
    ws.recycle(idx)
    m1[nb_off[1:] - 1] = dense[lp] * key + large_total[lp]
    ck = rp_pair[cut_keep] * key + rexcl[cut_keep]
    cpos = np.searchsorted(m1, ck, side="left") + \
        np.arange(ck.size, dtype=np.int64)
    pts_buf = ws.empty(m1.size + ck.size, np.int64)
    keep_m = np.ones(pts_buf.size, dtype=bool)
    keep_m[cpos] = False
    pts_buf[cpos] = ck
    pts_buf[keep_m] = m1
    ws.recycle(m1)
    uniq = np.ones(pts_buf.size, dtype=bool)
    uniq[1:] = pts_buf[1:] != pts_buf[:-1]
    pts = pts_buf[uniq]
    ws.recycle(pts_buf)
    pt_pair = pts >> np.int64(bits)
    pt_val = pts & (key - 1)
    # Intervals: consecutive unique points of the same pair.
    same = pt_pair[1:] == pt_pair[:-1]
    ivl = np.flatnonzero(same)
    abs_start = pt_val[ivl]
    lengths = pt_val[ivl + 1] - abs_start
    ivl_pair = pt_pair[ivl]

    # Piece of every interval: composed-key bisection into the bounds.
    bound_keys = dense[l_pair] * key + lexcl
    piece_idx = np.searchsorted(
        bound_keys, ivl_pair * key + abs_start, side="right"
    ) - 1 - l_off[ivl_pair]
    piece = lg[l_off[ivl_pair] + piece_idx]
    # Destination PE: composed-key bisection into the residual prefixes.
    rp_off = np.zeros(n_lp + 1, dtype=np.int64)
    np.cumsum(p_g[lp], out=rp_off[1:])
    res_keys = rp_pair * key + rexcl
    pe = np.minimum(
        np.searchsorted(res_keys, ivl_pair * key + abs_start, side="right")
        - 1 - rp_off[ivl_pair],
        p_g[lp][ivl_pair] - 1,
    )
    parts.append(np.stack([
        sender[piece],
        g_start[lp[ivl_pair]] + pe,
        st[piece] + (abs_start - lexcl[l_off[ivl_pair] + piece_idx]),
        lengths,
    ]))
    return np.concatenate(parts, axis=1)


def _flat_chunks_for_group(
    psj: np.ndarray, limit: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Chunk arrays ``(sender, offset, length)`` for one group (advanced).

    Pieces larger than ``limit`` are split into ``ceil(size / limit)``
    chunks, in sender order.
    """
    senders = np.flatnonzero(psj > 0)
    n_chunks = -(-psj[senders] // limit)
    chunk_src = np.repeat(senders, n_chunks)
    chunk_off = concat_ranges(np.zeros(senders.size, dtype=np.int64), n_chunks) * limit
    return chunk_src, chunk_off, np.minimum(limit, psj[chunk_src] - chunk_off)


def _flat_advanced_parts(
    sizes: np.ndarray,
    piece_starts: np.ndarray,
    group_starts: np.ndarray,
    group_sizes: np.ndarray,
    seed: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised advanced randomized assignment (Appendix A), charge-free.

    Reproduces :func:`_advanced_orders` and the chunk-order prefix
    enumeration of the reference path.  Returns the messages plus the
    descriptor delegation messages ``(desc_src, desc_dest)``, which
    :func:`deliver_to_groups_batched` charges for all islands as one
    whole-machine batch.
    """
    p, r = sizes.shape
    limit = _chunk_limit(sizes)
    per_group = []
    for j in range(r):
        chunks = _flat_chunks_for_group(sizes[:, j], limit)
        if chunks[0].size > 1:
            perm = FeistelPermutation(chunks[0].size, seed=seed * 7919 + j)
            order = np.argsort(perm.permutation_array(), kind="stable")
            chunks = tuple(c[order] for c in chunks)
        per_group.append(chunks)
    chunk_src, chunk_off, chunk_len = (np.concatenate(c) for c in zip(*per_group))
    n_chunks = np.array([c[0].size for c in per_group], dtype=np.int64)
    group = np.repeat(np.arange(r, dtype=np.int64), n_chunks)

    # Descriptor delegation: every chunk of a broken-up piece sends one
    # constant-size descriptor to a pseudorandom PE (Appendix A).
    desc_src = chunk_src[sizes[chunk_src, group] > chunk_len]
    desc_dest = desc_src.copy()
    if desc_src.size:
        perm = FeistelPermutation(desc_src.size, seed=seed * 15485863 + 1)
        desc_dest = perm.apply(np.arange(desc_src.size, dtype=np.int64)) % p

    msgs = _flat_assign_by_prefix_batched(
        chunk_len, piece_starts[chunk_src, group] + chunk_off, chunk_src,
        n_chunks, group_sizes, group_starts,
    )
    return msgs, desc_src, desc_dest


# ======================================================================
# Batched (lockstep) delivery over many islands at once
# ======================================================================


@dataclass
class BatchedDeliveryResult:
    """Outcome of a lockstep data-delivery step over a batch of islands.

    Attributes
    ----------
    received:
        :class:`DistArray` over the *batch* PEs (``islands.members`` order):
        what every PE holds after its island's delivery, runs ordered by
        (source rank, send order) exactly like the reference path.
    received_sizes:
        Per-batch-PE element counts after delivery.
    nonempty_runs:
        Per-batch-PE number of non-empty received runs (messages plus kept
        pieces) — the multiway-merge fan-in RLM-sort charges.
    """

    received: DistArray
    received_sizes: np.ndarray
    nonempty_runs: np.ndarray


def deliver_to_groups_batched(
    islands,
    group_counts: np.ndarray,
    subgroup_sizes: np.ndarray,
    piece_values: np.ndarray,
    piece_sizes: np.ndarray,
    method: str = "deterministic",
    seed: int = 0,
    schedule: str = "sparse",
    piece_layout: str = "rowmaj",
) -> BatchedDeliveryResult:
    """Run the data deliveries of all islands of one recursion level at once.

    The flat engine's only delivery: the lockstep counterpart of calling
    :func:`deliver_to_groups` once per island.  Per-island collectives
    become :class:`~repro.sim.groups.GroupBatch` charges and the message
    streams of all islands are executed as one whole-machine exchange.
    Because the islands are pairwise disjoint, every PE receives exactly
    the charge sequence (and the received data) of the island-by-island
    execution.  Every level of every flat sort is one call; the level
    layout arrives as flat arrays, island after island.

    Parameters
    ----------
    islands:
        :class:`~repro.sim.groups.GroupBatch` of the islands delivering at
        this level; "batch PEs" are ``islands.members`` in order.
    group_counts:
        Per island ``k``, its number ``r_k >= 1`` of destination sub-groups.
    subgroup_sizes:
        The sizes of every island's ``r_k`` sub-groups, island after island
        (``sum(r_k)`` entries; an island's sizes sum to its PE count).
    piece_values:
        One flat buffer holding every batch PE's pieces, each piece one
        contiguous run, in the order ``piece_layout`` names.
    piece_sizes:
        The piece sizes in row-major ``(island, batch PE, group)`` order
        (``sum(p_k * r_k)`` entries), whatever ``piece_layout`` is.
    method, seed, schedule:
        As for :func:`deliver_to_groups`; the per-group pseudorandom
        permutation seeds restart at every island exactly like the
        per-island reference calls.  An unknown ``schedule`` raises the
        :class:`ValueError` of :func:`repro.sim.exchange.execute_exchange`.
    piece_layout:
        ``'rowmaj'`` (default): ``piece_values`` holds the pieces in
        ``(batch PE, destination group)`` order.  ``'colmaj'``: in
        ``(island, destination group, batch PE)`` order.  Every method
        addresses pieces only through their starts, so both layouts send
        the same messages.  The column-major buffer is ordered by
        (receiver, source, send order) — it *is* the received layout, and
        the delivery returns it as the received values without
        reassembling them — in two cases: under the naive method at every
        level, because each ``(island, group)`` pair's prefix-sum stream
        is that pair's run of the buffer cut in receiver order; and when
        every destination group is one PE (the final recursion level) and
        the method is not ``'advanced'``, because each piece is then one
        whole message to that PE.
    """
    if method not in DELIVERY_METHODS:
        raise ValueError(f"unknown delivery method {method!r}; choose from {DELIVERY_METHODS}")
    if schedule not in ("sparse", "dense"):
        raise ValueError(f"unknown exchange schedule {schedule!r}")
    if piece_layout not in ("rowmaj", "colmaj"):
        raise ValueError("piece_layout must be 'rowmaj' or 'colmaj'")
    machine = islands.machine
    spec = machine.spec
    q = int(islands.members.size)
    n_isl = islands.num_groups
    p_k = islands.sizes
    r_k = np.asarray(group_counts, dtype=np.int64)
    if r_k.shape != (n_isl,):
        raise ValueError("need one group count per island")
    if np.any(r_k < 1):
        raise ValueError("need at least one target group")
    g_off = np.zeros(n_isl + 1, dtype=np.int64)
    np.cumsum(r_k, out=g_off[1:])
    piece_cnt = p_k * r_k
    piece_off = np.zeros(n_isl + 1, dtype=np.int64)
    np.cumsum(piece_cnt, out=piece_off[1:])
    g_size = np.asarray(subgroup_sizes, dtype=np.int64)
    flat_sizes = np.asarray(piece_sizes, dtype=np.int64)
    piece_values = np.asarray(piece_values)
    if g_size.shape != (int(g_off[-1]),) or np.any(
        np.add.reduceat(g_size, g_off[:-1]) != p_k
    ):
        raise ValueError("sub-groups must partition their island")
    if flat_sizes.shape != (int(piece_off[-1]),):
        raise ValueError("need one piece size per (island, PE, group)")
    if int(flat_sizes.sum()) != piece_values.size:
        raise ValueError("piece_values size does not match piece_sizes")
    isl_off = islands.offsets
    pe_isl = np.repeat(np.arange(n_isl, dtype=np.int64), p_k)
    # Islands are contiguous batch-rank ranges partitioned by their
    # groups, so every group's first batch rank is a running sum.
    g_start = np.cumsum(g_size) - g_size

    with machine.phase(PHASE_DATA_DELIVERY):
        # Same enumeration prefix-sum collective as the per-island reference.
        islands.charge_collective(r_k)

        parts: List[np.ndarray] = []
        desc_parts: List[np.ndarray] = []

        # Islands whose destination groups are single PEs (the final
        # recursion level, usually the vast majority of islands): every
        # assignment but the advanced one degenerates to "each non-empty
        # piece is one whole message to its group's only PE".  The
        # per-(src, dest) message multiplicity is one, so neither the
        # per-group enumeration order nor the batching across islands can
        # be observed — build these islands' messages in one pass.
        whole = (
            (r_k == p_k) if method != "advanced"
            else np.zeros(n_isl, dtype=bool)
        )
        in_place = piece_layout == "colmaj" and (
            method == "naive" or bool(whole.all())
        )
        if piece_layout == "rowmaj":
            starts_flat = np.cumsum(flat_sizes) - flat_sizes
        elif in_place:
            # The buffer is the received layout: no piece start is read,
            # and the zeros only fill the messages' start row.
            starts_flat = np.zeros_like(flat_sizes)
        else:
            # Column-major starts come from the enumeration of every
            # island, which the assignments then read for all of them.
            starts_flat = None
            whole[:] = False
        if whole.any():
            el = np.flatnonzero(whole)
            ws = get_arena()
            idx_full = concat_ranges(piece_off[el], piece_cnt[el], arena=ws)
            isl_of_piece = np.repeat(el, piece_cnt[el])
            nz = flat_sizes[idx_full] > 0
            idx = idx_full[nz]
            ws.recycle(idx_full)
            isl_of_piece = isl_of_piece[nz]
            local_idx = idx - piece_off[isl_of_piece]
            parts.append(np.stack([
                isl_off[isl_of_piece] + local_idx // r_k[isl_of_piece],
                isl_off[isl_of_piece] + local_idx % r_k[isl_of_piece],
                starts_flat[idx],
                flat_sizes[idx],
            ]))

        # The other islands' pieces, enumerated once (island, group,
        # sender); the naive and randomized prefix sums and the
        # deterministic assignment run over all of them in one pass.
        sel = np.flatnonzero(~whole)
        if sel.size and (method != "advanced" or starts_flat is None):
            idx, sender, pos = _enumerate_pieces(p_k, r_k, piece_off, isl_off, sel)
            sz = flat_sizes[idx]
            if starts_flat is not None:
                st = starts_flat[idx]
            else:
                st = np.cumsum(sz) - sz
                if method == "advanced":
                    starts_flat = np.empty_like(flat_sizes)
                    starts_flat[idx] = st
            pairs = concat_ranges(g_off[sel], r_k[sel])
            if method == "deterministic":
                parts.append(_flat_assign_deterministic_batched(
                    sz, st, sender, p_k[sel], r_k[sel],
                    g_size[pairs], g_start[pairs],
                ))
            elif method != "advanced":
                if method == "randomized":
                    order = _randomized_order(pos, p_k[sel], r_k[sel], seed)
                    sz, st, sender = sz[order], st[order], sender[order]
                parts.append(_flat_assign_by_prefix_batched(
                    sz, st, sender, np.repeat(p_k[sel], r_k[sel]),
                    g_size[pairs], g_start[pairs],
                ))
        # Advanced delivery assigns island by island.
        for k in sel.tolist() if method == "advanced" else ():
            pk, rk = int(p_k[k]), int(r_k[k])
            sizes_k = flat_sizes[piece_off[k]:piece_off[k + 1]].reshape(pk, rk)
            starts_k = starts_flat[piece_off[k]:piece_off[k + 1]].reshape(pk, rk)
            msgs, desc_src, desc_dest = _flat_advanced_parts(
                sizes_k, starts_k, g_start[g_off[k]:g_off[k + 1]] - isl_off[k],
                g_size[g_off[k]:g_off[k + 1]], seed,
            )
            if desc_src.size:
                desc_parts.append(np.stack([
                    desc_src + isl_off[k], desc_dest + isl_off[k],
                    np.full(desc_src.size, k, dtype=np.int64),
                ]))
            # Island-local ranks -> batch ranks (starts are global already).
            msgs[:2] += isl_off[k]
            parts.append(msgs)

        # Advanced: one batched cost-only descriptor exchange for the
        # islands that delegated chunks (the others skip it, as per island).
        if desc_parts:
            dsrc, ddest, disl = np.concatenate(desc_parts, axis=1)
            desc_islands = np.unique(disl)
            words_s = np.zeros(q, dtype=np.int64)
            words_r = np.zeros(q, dtype=np.int64)
            np.add.at(words_s, dsrc, 3)
            np.add.at(words_r, ddest, 3)
            msg_s = np.bincount(dsrc, minlength=q).astype(np.int64)
            msg_r = np.bincount(ddest, minlength=q).astype(np.int64)
            machine.counters.record_messages(
                islands.members[dsrc], islands.members[ddest],
                np.full(dsrc.size, 3, dtype=np.int64),
            )
            if schedule == "dense":
                dense = np.repeat(p_k - 1, p_k)
                msg_s = dense.copy()
                msg_r = dense.copy()
            in_desc = np.isin(pe_isl, desc_islands)
            islands.select(desc_islands).charge_exchange(
                words_s[in_desc], words_r[in_desc], msg_s[in_desc],
                msg_r[in_desc], charge_copy=False,
            )

        if parts:
            stacked = np.concatenate(parts, axis=1)
            src, dest, start, length = stacked
        else:
            src = dest = start = length = np.empty(0, dtype=np.int64)

        # Locally kept (self-addressed) pieces stay off the network; charged
        # in send order, exactly like the per-island reference.  For the
        # prefix/deterministic assignments every (src, dest) pair carries at
        # most one message, so each PE has at most one kept piece and the
        # charges vectorise; the advanced chunking can keep several pieces
        # per PE, whose per-PE charge order the loop preserves.
        kept_mask = src == dest
        if method == "advanced":
            for k in np.flatnonzero(kept_mask):
                machine.advance(
                    int(islands.members[src[k]]),
                    spec.local_move_time(int(length[k])),
                )
        elif kept_mask.any():
            kidx = np.flatnonzero(kept_mask)
            machine.advance_many(
                islands.members[src[kidx]],
                spec.move_ns * 1e-9 * np.maximum(length[kidx], 0),
            )

        # The whole level's network messages as one batched exchange.
        net = ~kept_mask
        words_sent = np.bincount(
            src[net], weights=length[net], minlength=q
        ).astype(np.int64)
        words_received = np.bincount(
            dest[net], weights=length[net], minlength=q
        ).astype(np.int64)
        net_nonempty = net & (length > 0)
        messages_sent = np.bincount(src[net_nonempty], minlength=q).astype(np.int64)
        messages_received = np.bincount(dest[net_nonempty], minlength=q).astype(np.int64)
        if net_nonempty.any():
            machine.counters.record_messages(
                islands.members[src[net_nonempty]],
                islands.members[dest[net_nonempty]],
                length[net_nonempty],
            )
        if schedule == "dense":
            dense = np.repeat(p_k - 1, p_k)
            messages_sent = dense.copy()
            messages_received = dense.copy()
        islands.charge_exchange(
            words_sent, words_received, messages_sent, messages_received
        )

        # Assemble the received DistArray from all runs (network + kept),
        # ordered by (receiver, source, send order) as in the reference.
        # An in-place column-major buffer is already in that order;
        # otherwise messages are gathered out of the piece buffer.
        if in_place:
            recv_values = piece_values
        else:
            order = stable_two_key_argsort(dest, src, q, q)
            recv_values = take_ranges(piece_values, start[order], length[order])
        received_sizes = np.bincount(
            dest, weights=length, minlength=q
        ).astype(np.int64)
        received = DistArray.from_sizes(recv_values, received_sizes)
        nonempty_runs = np.bincount(
            dest[length > 0], minlength=q
        ).astype(np.int64)

    return BatchedDeliveryResult(
        received=received,
        received_sizes=received_sizes,
        nonempty_runs=nonempty_runs,
    )
