"""Adaptive Multi-level Sample sort (AMS-sort), Section 6 of the paper.

One level of AMS-sort on a group of ``p`` PEs that is to be split into ``r``
sub-groups:

1. **Splitter selection** — every PE contributes a random sample
   (oversampling factor ``a``, overpartitioning factor ``b``); the sample is
   sorted with the fast work-inefficient grid sort (Section 4.2) and
   ``b*r - 1`` splitters of equidistant ranks are broadcast to all PEs.
2. **Bucket processing** — every PE partitions its local data into the
   ``b*r`` buckets (super scalar sample sort style partitioning); a global
   all-reduce yields the global bucket sizes, and the optimal scanning
   algorithm (Lemma 1 / Appendix C) assigns consecutive bucket ranges to the
   ``r`` PE groups such that the maximum group load is minimised.
3. **Data delivery** — the per-group pieces are delivered with one of the
   algorithms of Section 4.3 / Appendix A so that all PEs of a group receive
   the same amount of data up to rounding and the number of message
   startups per PE stays ``O(r)``.
4. **Recursion** — each group recursively sorts its data; on a single PE the
   recursion bottoms out with a local sort.

The result is a globally sorted distributed array with at most a
``(1 + eps)`` output imbalance (Theorem 3).

Two execution engines produce the same algorithm:

* :func:`ams_sort` — the *flat* engine: the distributed array lives in a
  :class:`~repro.dist.array.DistArray` (one contiguous buffer + CSR
  offsets) and every phase is a handful of vectorised numpy calls over the
  whole machine, which is what makes ``p = 4096`` runs feasible.
* :func:`ams_sort_reference` — the original per-PE implementation
  (``List[np.ndarray]`` + ``for i in range(p)`` loops), kept as the
  executable specification.  The flat engine is verified to reproduce its
  outputs, clocks and phase breakdowns byte for byte.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.blocks.delivery import deliver_to_groups, deliver_to_groups_batched
from repro.blocks.fast_sort import (
    grid_shape,
    select_splitters_by_rank,
)
from repro.blocks.grouping import (
    optimal_bucket_grouping,
    optimal_bucket_grouping_batched,
)
from repro.blocks.sampling import (
    SamplingParams,
    draw_samples,
    draw_samples_flat,
)
from repro.core.config import AMSConfig
from repro.dist.array import DistArray
from repro.dist.flatops import (
    bincount,
    blockwise_searchsorted,
    concat_ranges,
    gather,
    map_by_unique,
    map_by_unique2,
    segmented_sort_values,
    stable_key_argsort,
    stable_two_key_argsort,
    take_ranges,
)
from repro.dist.workspace import get_arena
from repro.machine.counters import (
    PHASE_BUCKET_PROCESSING,
    PHASE_LOCAL_SORT,
    PHASE_SPLITTER_SELECTION,
)
from repro.seq.partition import bucket_indices
from repro.sim.groups import GroupBatch


def _partition_into_group_pieces(
    comm,
    local_data: List[np.ndarray],
    splitters: np.ndarray,
    boundaries: np.ndarray,
    r: int,
) -> List[List[np.ndarray]]:
    """Partition each PE's data into ``r`` pieces according to bucket boundaries.

    ``boundaries`` delimits which buckets belong to which group; elements are
    routed by a single ``searchsorted`` against the splitters, then gathered
    per group.  The modelled cost of the partition is charged here.
    """
    p = comm.size
    num_buckets = int(splitters.size) + 1
    pieces: List[List[np.ndarray]] = []
    partition_sizes = []
    for i in range(p):
        data = np.asarray(local_data[i])
        partition_sizes.append(int(data.size))
        if splitters.size == 0:
            bucket_of = np.zeros(data.size, dtype=np.int64)
        else:
            bucket_of = bucket_indices(data, splitters)
        # Map bucket index -> group index using the grouping boundaries.
        group_of = np.searchsorted(boundaries[1:-1], bucket_of, side="right") \
            if boundaries.size > 2 else np.zeros(data.size, dtype=np.int64)
        pe_pieces = []
        for g in range(r):
            pe_pieces.append(data[group_of == g])
        pieces.append(pe_pieces)
    comm.charge_partition(partition_sizes, max(2, num_buckets))
    return pieces


def ams_sort_reference(
    comm,
    local_data: Sequence[np.ndarray],
    config: Optional[AMSConfig] = None,
    level: int = 0,
    _plan: Optional[List[int]] = None,
    _n_total: Optional[int] = None,
) -> List[np.ndarray]:
    """Per-PE reference implementation of AMS-sort (the seed engine).

    Semantically identical to :func:`ams_sort` but materialises every PE's
    data as its own array and loops over PEs in Python; kept as the
    executable specification the flat engine is verified against, and for
    small-``p`` debugging.
    """
    if config is None:
        config = AMSConfig()
    p = comm.size
    if len(local_data) != p:
        raise ValueError("need one local array per member PE")
    local_data = [np.asarray(d) for d in local_data]

    # ------------------------------------------------------------------
    # Base case: a single PE sorts locally.
    # ------------------------------------------------------------------
    if p == 1:
        with comm.phase(PHASE_LOCAL_SORT):
            out = np.sort(local_data[0], kind="stable")
            comm.charge_sort([out.size])
        return [out]

    if _plan is None:
        _plan = config.plan_for(p)
    if _n_total is None:
        _n_total = int(sum(d.size for d in local_data))

    # Number of groups for this level (never more than the PEs available).
    if level < len(_plan):
        r = min(int(_plan[level]), p)
    else:
        r = p
    r = max(2, min(r, p)) if p > 1 else 1

    sampling = config.sampling_for(max(_n_total, 2))
    num_buckets = sampling.num_buckets(r)
    num_splitters = sampling.num_splitters(r)

    # ------------------------------------------------------------------
    # 1. Splitter selection
    # ------------------------------------------------------------------
    with comm.phase(PHASE_SPLITTER_SELECTION):
        samples = draw_samples(
            local_data, sampling, p, r,
            comm.machine.sample_rng, level, comm.members,
        )
    splitters = select_splitters_by_rank(comm, samples, num_splitters)

    # ------------------------------------------------------------------
    # 2. Bucket processing: partition, global bucket sizes, bucket grouping
    # ------------------------------------------------------------------
    with comm.phase(PHASE_BUCKET_PROCESSING):
        local_bucket_sizes = []
        for i in range(p):
            data = local_data[i]
            if splitters.size == 0:
                counts = np.array([data.size], dtype=np.int64)
            else:
                idx = bucket_indices(data, splitters)
                counts = np.bincount(idx, minlength=splitters.size + 1).astype(np.int64)
            local_bucket_sizes.append(counts)
        global_bucket_sizes = comm.allreduce_vec(local_bucket_sizes)
        grouping = optimal_bucket_grouping(global_bucket_sizes, r, method="accelerated")
        # The parallel bound search of Appendix C costs O(br + alpha log p);
        # charge one extra small collective per search round.
        comm.allreduce_scalar([float(grouping.bound)] * p, op=np.max)
        pieces = _partition_into_group_pieces(
            comm, list(local_data), splitters, grouping.boundaries, r
        )

    # ------------------------------------------------------------------
    # 3. Data delivery
    # ------------------------------------------------------------------
    groups = comm.split(r)
    delivery = deliver_to_groups(
        comm,
        groups,
        pieces,
        method=config.delivery,
        seed=comm.machine.seed + level + 1,
    )

    # ------------------------------------------------------------------
    # 4. Recursion within each group
    # ------------------------------------------------------------------
    output: List[np.ndarray] = [None] * p  # type: ignore[list-item]
    for g, group in enumerate(groups):
        group_rank_offset = comm.local_rank_of(int(group.members[0]))
        group_local = [
            delivery.received_concat(group_rank_offset + j) for j in range(group.size)
        ]
        sorted_group = ams_sort_reference(
            group,
            group_local,
            config=config,
            level=level + 1,
            _plan=_plan,
            _n_total=_n_total,
        )
        for j in range(group.size):
            output[group_rank_offset + j] = sorted_group[j]
    return output


def _level_r(plan: List[int], level: int, sizes: np.ndarray) -> np.ndarray:
    """Group counts a recursion level uses for islands of ``sizes`` PEs."""
    r = np.minimum(int(plan[level]), sizes) if level < len(plan) else sizes
    return np.where(sizes > 1, np.maximum(2, r), 1)


def _split_sizes(p: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Sub-group sizes of ``Comm.split`` for islands of ``p`` PEs split into
    ``r`` groups each, concatenated: near-equal, first groups larger."""
    base, extra = np.divmod(p, r)
    group = concat_ranges(np.zeros_like(r), r)  # group index in its island
    return np.repeat(base, r) + (group < np.repeat(extra, r))


def _level_islands(comm, dist: DistArray, isl_offsets: np.ndarray) -> tuple:
    """The islands of one batched level that still hold more than one PE.

    ``isl_offsets`` delimits the level's islands as contiguous rank ranges
    of ``comm``.  Returns ``(active, batch_ranks, islands, dist_b)``: the
    indices of the islands of more than one PE, the comm ranks of their
    PEs, those islands as one :class:`GroupBatch` and their PEs' data.
    Singleton islands are at their base case and sit the level out.
    Shared by the level executors of AMS-sort, RLM-sort (and so
    single-level mergesort) and parallel quicksort, as is
    :func:`_level_result`.
    """
    sizes_isl = np.diff(isl_offsets)
    active = np.flatnonzero(sizes_isl > 1)
    act_sizes = sizes_isl[active]
    act_off = np.zeros(active.size + 1, dtype=np.int64)
    np.cumsum(act_sizes, out=act_off[1:])
    batch_ranks = concat_ranges(isl_offsets[active], act_sizes)
    islands = GroupBatch(comm.machine, comm.members[batch_ranks], act_off)
    if active.size != sizes_isl.size:
        dist = dist.take_segments(batch_ranks)
    return active, batch_ranks, islands, dist


def _level_result(
    dist: DistArray,
    isl_offsets: np.ndarray,
    active: np.ndarray,
    batch_ranks: np.ndarray,
    received: DistArray,
    r_act: np.ndarray,
    sub_sizes: np.ndarray,
) -> tuple:
    """Assemble one batched level's result and the next island layout.

    Scatters the batch PEs' received segments back into comm order (passive
    singleton islands keep their data untouched) and splits every active
    island's rank range into its ``r_act`` sub-groups, whose sizes
    ``sub_sizes`` lists island after island.

    Returns ``(new_dist, next_isl_offsets)``.
    """
    sizes_isl = np.diff(isl_offsets)
    num_isl = int(sizes_isl.size)
    if int(active.size) == num_isl:
        new_dist = received
    else:
        new_sizes = np.diff(dist.offsets).copy()
        new_sizes[batch_ranks] = received.sizes()
        new_offsets = np.zeros(new_sizes.size + 1, dtype=np.int64)
        np.cumsum(new_sizes, out=new_offsets[1:])
        # ``new_values`` escapes as the level's DistArray; the two scatter
        # index planes are dead right after use and come from the arena.
        ws = get_arena()
        new_values = np.empty(int(new_offsets[-1]), dtype=received.dtype)
        idx = concat_ranges(new_offsets[batch_ranks], received.sizes(), arena=ws)
        new_values[idx] = received.values
        ws.recycle(idx)
        passive = np.setdiff1d(
            np.arange(num_isl, dtype=np.int64), active, assume_unique=True
        )
        passive_ranks = isl_offsets[passive]
        old_sizes = np.diff(dist.offsets)
        idx = concat_ranges(
            new_offsets[passive_ranks], old_sizes[passive_ranks], arena=ws
        )
        new_values[idx] = take_ranges(
            dist.values, dist.offsets[passive_ranks], old_sizes[passive_ranks]
        )
        ws.recycle(idx)
        new_dist = DistArray(new_values, new_offsets)

    # Next-level islands: a passive island stays whole and an active one
    # becomes its sub-groups; the running sum of their sizes is the layout.
    cnt = np.ones(num_isl, dtype=np.int64)
    cnt[active] = r_act
    out_off = np.zeros(num_isl + 1, dtype=np.int64)
    np.cumsum(cnt, out=out_off[1:])
    next_sizes = np.repeat(sizes_isl, cnt)
    next_sizes[concat_ranges(out_off[active], r_act)] = sub_sizes
    next_offsets = np.zeros(next_sizes.size + 1, dtype=np.int64)
    np.cumsum(next_sizes, out=next_offsets[1:])
    return new_dist, next_offsets


def _segmented_sample_splitters(
    samples_b: DistArray,
    isl_sample_tot: np.ndarray,
    ns: np.ndarray,
) -> tuple:
    """Sort the batch sample per island and pick ``ns`` equidistant splitters.

    One segmented (per-island) value sort over the whole batch, then one
    vectorised :func:`~repro.blocks.sampling.splitter_ranks` pick for
    every island at once; islands with no sample or no splitters get an
    empty slice.  Returns the concatenated splitters ``(spl_values,
    spl_off)``.  Charge-free — the caller charges the sample sort.
    Shared with the baselines' splitter and pivot picks.
    """
    n_act = int(isl_sample_tot.size)
    sample_off = np.zeros(n_act + 1, dtype=np.int64)
    np.cumsum(isl_sample_tot, out=sample_off[1:])
    sorted_samples = segmented_sort_values(samples_b.values, sample_off)
    ns = np.where((ns > 0) & (isl_sample_tot > 0), ns, 0)
    spl_off = np.zeros(n_act + 1, dtype=np.int64)
    np.cumsum(ns, out=spl_off[1:])
    total = int(spl_off[-1])
    if total == 0:
        return sorted_samples[:0], spl_off
    # splitter i of island k sits at sample rank
    # min((i + 1) * tot_k // (ns_k + 1), tot_k - 1), exactly splitter_ranks.
    i1 = np.arange(total, dtype=np.int64) - np.repeat(spl_off[:-1], ns) + 1
    tot_rep = np.repeat(isl_sample_tot, ns)
    ranks = np.minimum((i1 * tot_rep) // (np.repeat(ns, ns) + 1), tot_rep - 1)
    return sorted_samples[np.repeat(sample_off[:-1], ns) + ranks], spl_off


def _batched_grid_splitters(
    comm,
    islands: GroupBatch,
    samples_b: DistArray,
    act_sizes: np.ndarray,
    r_act: np.ndarray,
    sampling: SamplingParams,
) -> tuple:
    """Fast work-inefficient sample sort + splitter pick for a level batch.

    Lockstep port of :func:`repro.blocks.fast_sort.select_splitters_by_rank`
    applied to every island at once: the sample-sort *data* result of island
    ``k`` is its samples' global stable order (one segmented argsort over the
    whole batch), while the modelled grid costs — local sample sorts, the
    hand-off exchanges of PEs outside a non-square grid, row/column gossip,
    ranking merges, column rank reductions, and the final splitter broadcast
    — are charged step for step like the per-island reference.
    """
    machine = islands.machine
    spec = machine.spec
    batch_members = islands.members
    act_off = islands.offsets
    n_act = islands.num_groups
    q = int(batch_members.size)
    pe_isl = np.repeat(np.arange(n_act, dtype=np.int64), act_sizes)

    with comm.phase(PHASE_SPLITTER_SELECTION):
        s_sizes = samples_b.sizes()
        machine.advance_many(
            batch_members,
            map_by_unique(s_sizes, lambda m: spec.local_sort_time(int(m))),
        )
        isl_sample_tot = np.add.reduceat(s_sizes, act_off[:-1])
        grid_mask = isl_sample_tot > 0
        # Grid shapes, one evaluation per distinct island size.
        uniq_p, inv_p = np.unique(act_sizes, return_inverse=True)
        shapes_u = [grid_shape(int(pk)) for pk in uniq_p]
        rows_a = np.array([s.rows for s in shapes_u], dtype=np.int64)[inv_p]
        cols_a = np.array([s.cols for s in shapes_u], dtype=np.int64)[inv_p]
        gp_a = rows_a * cols_a

        # PEs outside a non-square grid hand their sample to a grid PE;
        # the reference ships values and ids in two cost-only exchanges.
        # All handoff islands assemble their exchange vectors in one pass.
        handoff = np.flatnonzero(grid_mask & (gp_a < act_sizes))
        grid_sizes = s_sizes.copy()
        if handoff.size:
            n_out = act_sizes[handoff] - gp_a[handoff]
            j = concat_ranges(gp_a[handoff], n_out)  # local index in [gp, p_k)
            h_rep = np.repeat(handoff, n_out)
            outside = act_off[h_rep] + j
            dests = act_off[h_rep] + j % gp_a[h_rep]
            words_s = np.zeros(q, dtype=np.int64)
            words_r = np.zeros(q, dtype=np.int64)
            msg_s = np.zeros(q, dtype=np.int64)
            msg_r = np.zeros(q, dtype=np.int64)
            words_s[outside] = s_sizes[outside]
            np.add.at(words_r, dests, s_sizes[outside])
            nonempty = s_sizes[outside] > 0
            src_all = outside[nonempty]
            dest_all = dests[nonempty]
            msg_s[src_all] = 1
            np.add.at(msg_r, dest_all, 1)
            np.add.at(grid_sizes, dests, s_sizes[outside])
            ho_flag = np.zeros(n_act, dtype=bool)
            ho_flag[handoff] = True
            sel = ho_flag[pe_isl]
            sub = islands.select(handoff)
            for _ in range(2):  # sample values, then their ids
                if src_all.size:
                    machine.counters.record_messages(
                        batch_members[src_all], batch_members[dest_all],
                        s_sizes[src_all],
                    )
                sub.charge_exchange(
                    words_s[sel], words_r[sel], msg_s[sel], msg_r[sel],
                    charge_copy=False,
                )

        grid_active = np.flatnonzero(grid_mask)
        if grid_active.size:
            # Row/column gossip over a padded (island, row, col) cube: rows
            # are contiguous PE runs inside each grid, columns are strided;
            # one scatter of the grid sample sizes yields every island's
            # row/column totals, words and member layouts without touching
            # islands, rows or columns in Python.
            rows_g = rows_a[grid_active]
            cols_g = cols_a[grid_active]
            gp_g = gp_a[grid_active]
            n_g = int(grid_active.size)
            R = int(rows_g.max())
            C = int(cols_g.max())
            gidx = concat_ranges(np.zeros(n_g, dtype=np.int64), gp_g)
            g_rep = np.repeat(np.arange(n_g, dtype=np.int64), gp_g)
            grid_pos = act_off[grid_active][g_rep] + gidx
            cols_rep = cols_g[g_rep]
            sz_pad = np.zeros((n_g, R, C), dtype=np.int64)
            sz_pad[g_rep, gidx // cols_rep, gidx % cols_rep] = grid_sizes[grid_pos]
            row_tot = sz_pad.sum(axis=2)  # (n_g, R)
            col_tot = sz_pad.sum(axis=1)  # (n_g, C)
            valid_row = np.arange(R, dtype=np.int64)[None, :] < rows_g[:, None]
            valid_col = np.arange(C, dtype=np.int64)[None, :] < cols_g[:, None]

            grid_members = batch_members[grid_pos]
            row_lengths = np.repeat(cols_g, rows_g)
            row_off = np.zeros(row_lengths.size + 1, dtype=np.int64)
            np.cumsum(row_lengths, out=row_off[1:])
            row_words = np.maximum(1, -(-row_tot // cols_g[:, None]))[valid_row]
            row_batch = GroupBatch(machine, grid_members, row_off)
            row_batch.charge_collective(row_words, rounds_factors=row_lengths)

            # Column members in (island, col, row) order via a broadcast
            # index cube masked down to each island's true grid.
            r_idx = np.arange(R, dtype=np.int64)
            c_idx = np.arange(C, dtype=np.int64)
            cube = (
                act_off[grid_active][:, None, None]
                + r_idx[None, None, :] * cols_g[:, None, None]
                + c_idx[None, :, None]
            )
            cube_valid = (
                (c_idx[None, :, None] < cols_g[:, None, None])
                & (r_idx[None, None, :] < rows_g[:, None, None])
            )
            col_lengths = np.repeat(rows_g, cols_g)
            col_off = np.zeros(col_lengths.size + 1, dtype=np.int64)
            np.cumsum(col_lengths, out=col_off[1:])
            col_words = np.maximum(1, -(-col_tot // rows_g[:, None]))[valid_col]
            col_batch = GroupBatch(
                machine, batch_members[cube[cube_valid]], col_off
            )
            col_batch.charge_collective(col_words, rounds_factors=col_lengths)

            merge_szs = (row_tot[:, :, None] + col_tot[:, None, :])[
                valid_row[:, :, None] & valid_col[:, None, :]
            ]
            machine.advance_many(
                grid_members,
                map_by_unique(merge_szs, lambda m: spec.local_merge_time(int(m), 2)),
            )
            col_batch.charge_collective(col_tot[valid_col])

        # Sample-sort data: shared segmented argsort + splitter pick; only
        # islands that actually have splitters charge the broadcast.
        uniq_r, inv_r = np.unique(r_act, return_inverse=True)
        spl_values, spl_off = _segmented_sample_splitters(
            samples_b, isl_sample_tot, np.array(
                [sampling.num_splitters(int(rk)) for rk in uniq_r],
                dtype=np.int64,
            )[inv_r],
        )
        spl_sizes = np.diff(spl_off)
        bcast_idx = np.flatnonzero(spl_sizes > 0)
        if bcast_idx.size:
            islands.select(bcast_idx).charge_collective(spl_sizes[bcast_idx])
    return spl_values, spl_off


# Bucket processing walks a level's batch in blocks of about this many
# elements, cut at PE boundaries, so that each block's key, count and
# reorder passes stay in cache, as in super scalar sample sort's
# distribution passes (Sanders & Winkel, ESA 2004).  The size comes from a
# sweep over 2**14..2**18 (ROADMAP, "Settled by measurement").
_BLOCK_ELEMS = 2 ** 16


class _LevelBlocks:
    """One level's batch cut into cache-sized blocks for bucket processing.

    A block is a range of batch PEs: either a run of whole islands or a
    PE-aligned slice of one island that holds more than ``_BLOCK_ELEMS``
    elements.  A run of whole islands ends before the first island that
    starts in a new window of ``_BLOCK_ELEMS`` elements; a larger island
    is cut before every PE whose island-local start enters a new window.
    Every block's bucket keys, piece counts and piece reorder then touch
    only the block's own elements.
    """

    def __init__(
        self,
        pe_off: np.ndarray,
        act_off: np.ndarray,
        isl_elem: np.ndarray,
        nb_off: np.ndarray,
    ):
        self.pe_off = pe_off  # element offsets of the batch PEs
        self.act_off = act_off  # batch-PE offsets of the islands
        self.isl_elem = isl_elem  # element offsets of the islands
        self.nb_off = nb_off  # bucket offsets of the islands
        n_act = int(act_off.size) - 1
        size = _BLOCK_ELEMS
        if int(isl_elem[-1]) <= size:
            self.blocks = [(0, int(act_off[-1]), 0, int(isl_elem[-1]),
                            0, n_act, False)]
            return
        big = np.diff(isl_elem) > size
        win = isl_elem[:-1] // size
        starts = np.ones(n_act, dtype=bool)
        starts[1:] = (win[1:] != win[:-1]) | big[1:]
        cuts = [act_off[:-1][starts], act_off[-1:]]
        if big.any():
            pe_isl = np.repeat(np.arange(n_act), np.diff(act_off))
            pe_win = (pe_off[:-1] - isl_elem[pe_isl]) // size
            cuts.append(1 + np.flatnonzero(
                big[pe_isl[1:]]
                & (pe_isl[1:] == pe_isl[:-1])
                & (pe_win[1:] != pe_win[:-1])
            ))
        cuts = np.unique(np.concatenate(cuts))
        pe_lo, pe_hi = cuts[:-1], cuts[1:]
        i_lo = np.searchsorted(act_off, pe_lo, side="right") - 1
        i_hi = np.searchsorted(act_off, pe_hi - 1, side="right")
        split = (act_off[i_lo] != pe_lo) | (act_off[i_hi] != pe_hi)
        self.blocks = list(zip(
            pe_lo.tolist(), pe_hi.tolist(), pe_off[pe_lo].tolist(),
            pe_off[pe_hi].tolist(), i_lo.tolist(), i_hi.tolist(),
            split.tolist(),
        ))

    def _bucket_key(self, bucket_of, e_lo, e_hi, i_lo, i_hi):
        """Island-offset bucket keys of one block's elements."""
        key = bucket_of[e_lo:e_hi]
        if i_hi - i_lo > 1:
            key = np.repeat(
                self.nb_off[i_lo:i_hi] - self.nb_off[i_lo],
                np.diff(self.isl_elem[i_lo:i_hi + 1]),
            ) + key
        return key

    def bucket_sizes(self, bucket_of: np.ndarray) -> np.ndarray:
        """Global bucket sizes of every island: the sum of block histograms."""
        nb_off = self.nb_off
        sizes = np.zeros(int(nb_off[-1]), dtype=np.int64)
        for _, _, e_lo, e_hi, i_lo, i_hi, _ in self.blocks:
            if e_hi > e_lo:
                b_lo, b_hi = int(nb_off[i_lo]), int(nb_off[i_hi])
                sizes[b_lo:b_hi] += bincount(
                    self._bucket_key(bucket_of, e_lo, e_hi, i_lo, i_hi),
                    minlength=b_hi - b_lo,
                )
        return sizes

    def reorder_pieces(
        self,
        values: np.ndarray,
        bucket_of: np.ndarray,
        lut: np.ndarray,
        r_act: np.ndarray,
        bucket_sizes: np.ndarray,
    ) -> tuple:
        """Piece sizes and the column-major piece plane, block by block.

        ``lut`` maps every island's buckets to its groups (one slice per
        island, nondecreasing).  Returns ``(piece_values, piece_len)``:
        ``piece_len`` holds the ``(PE, group)`` piece sizes in row-major
        order, and ``piece_values`` the elements ordered by ``(island,
        group)`` — a stable reorder, so ties keep ``(PE, original)`` order
        and every piece is one contiguous run.  A block of whole islands
        reorders into its own element range.  The blocks of a split island
        place each group's run at a cursor that starts at the group's
        offset in the island (prefix sums of the global bucket sizes).
        """
        pe_off, act_off, nb_off = self.pe_off, self.act_off, self.nb_off
        isl_elem = self.isl_elem
        seg_sizes = np.diff(pe_off)
        pc_off = np.zeros(int(act_off[-1]) + 1, dtype=np.int64)
        np.cumsum(np.repeat(r_act, np.diff(act_off)), out=pc_off[1:])
        g_off = np.zeros(r_act.size + 1, dtype=np.int64)
        np.cumsum(r_act, out=g_off[1:])
        piece_len = np.zeros(int(pc_off[-1]), dtype=np.int64)
        out = np.empty(values.size, dtype=values.dtype)
        cursor_isl, cursor = -1, None
        for pe_lo, pe_hi, e_lo, e_hi, i_lo, i_hi, split in self.blocks:
            if e_hi == e_lo:
                continue
            b_lo, b_hi = int(nb_off[i_lo]), int(nb_off[i_hi])
            group = np.take(
                lut[b_lo:b_hi],
                self._bucket_key(bucket_of, e_lo, e_hi, i_lo, i_hi),
            )
            pc_lo, pc_hi = int(pc_off[pe_lo]), int(pc_off[pe_hi])
            piece_len[pc_lo:pc_hi] = bincount(
                np.repeat(pc_off[pe_lo:pe_hi] - pc_lo, seg_sizes[pe_lo:pe_hi])
                + group,
                minlength=pc_hi - pc_lo,
            )
            n_isl = i_hi - i_lo
            bound = int(g_off[i_hi] - g_off[i_lo])
            if n_isl == 1:
                order = stable_key_argsort(group, bound)
            else:
                isl_sizes = np.diff(isl_elem[i_lo:i_hi + 1])
                if bound <= 2 ** 16:
                    order = stable_key_argsort(np.repeat(
                        g_off[i_lo:i_hi] - g_off[i_lo], isl_sizes
                    ) + group, bound)
                else:
                    order = stable_two_key_argsort(
                        np.repeat(np.arange(n_isl), isl_sizes), group,
                        n_isl, int(r_act[i_lo:i_hi].max()),
                    )
            moved = gather(values[e_lo:e_hi], order)
            if not split:
                out[e_lo:e_hi] = moved
                continue
            r = int(r_act[i_lo])
            if cursor_isl != i_lo:
                cum = np.zeros(b_hi - b_lo + 1, dtype=np.int64)
                np.cumsum(bucket_sizes[b_lo:b_hi], out=cum[1:])
                cursor = isl_elem[i_lo] + cum[np.searchsorted(
                    lut[b_lo:b_hi], np.arange(r)
                )]
                cursor_isl = i_lo
            runs = piece_len[pc_lo:pc_hi].reshape(pe_hi - pe_lo, r).sum(axis=0)
            out[concat_ranges(cursor, runs)] = moved
            cursor += runs
        return out, piece_len


def _ams_level_batched(
    comm,
    dist: DistArray,
    isl_offsets: np.ndarray,
    config: AMSConfig,
    level: int,
    plan: List[int],
    n_total: int,
) -> tuple:
    """Run one AMS-sort recursion level for *all* islands in lockstep.

    ``isl_offsets`` delimits the current recursion islands (groups of the
    previous level) as contiguous rank ranges of ``comm``; every island of
    size > 1 executes this level's four phases as part of one whole-machine
    batch of segmented operations, charged per ``(group, PE)`` through
    :class:`GroupBatch`.  Singleton islands are already at their base case
    and pass through untouched (their final local sort is charged by the
    caller, which is where the reference recursion charges it too — the
    deferral is invisible to per-PE clocks because base cases never
    synchronise with anyone).

    Returns ``(new_dist, new_isl_offsets)`` for the next level.
    """
    machine = comm.machine
    spec = comm.spec
    active, batch_ranks, islands, dist_b = _level_islands(comm, dist, isl_offsets)
    n_act = islands.num_groups
    act_sizes, act_off = islands.sizes, islands.offsets
    batch_members = islands.members
    pe_isl = np.repeat(np.arange(n_act, dtype=np.int64), act_sizes)
    data_sizes = dist_b.sizes()

    # Group and sampling counts depend on the island only through its
    # size; the sampling counts are evaluated once per distinct size.
    uniq_sz, inv_sz = np.unique(act_sizes, return_inverse=True)
    r_uniq = _level_r(plan, level, uniq_sz)
    r_act = r_uniq[inv_sz]
    sampling = config.sampling_for(max(n_total, 2))

    # ------------------------------------------------------------------
    # 1. Splitter selection (segmented sampling + batched sample sort)
    # ------------------------------------------------------------------
    with comm.phase(PHASE_SPLITTER_SELECTION):
        per_pe_counts = np.repeat(
            np.array(
                [
                    sampling.samples_per_pe(int(pk), int(rk))
                    for pk, rk in zip(uniq_sz, r_uniq)
                ],
                dtype=np.int64,
            )[inv_sz],
            act_sizes,
        )
        samples_b = draw_samples_flat(
            dist_b, per_pe_counts, machine.sample_rng, level, batch_members
        )
    spl_values, spl_off = _batched_grid_splitters(
        comm, islands, samples_b, act_sizes, r_act, sampling
    )

    # ------------------------------------------------------------------
    # 2. Bucket processing: one segmented search per element, then per
    #    cache-sized block a bucket histogram, and after the grouping the
    #    block's piece counts and piece reorder
    # ------------------------------------------------------------------
    with comm.phase(PHASE_BUCKET_PROCESSING):
        spl_sizes = np.diff(spl_off)
        nb_per_isl = np.where(spl_sizes > 0, spl_sizes + 1, 1)
        elem_off = dist_b.offsets[act_off]  # element range per island
        bucket_of = blockwise_searchsorted(
            spl_values, spl_off, dist_b.values, elem_off, side="right"
        )
        nb_off = np.zeros(n_act + 1, dtype=np.int64)
        np.cumsum(nb_per_isl, out=nb_off[1:])
        blocks = _LevelBlocks(dist_b.offsets, act_off, elem_off, nb_off)
        gbs_flat = blocks.bucket_sizes(bucket_of)
        islands.charge_collective(nb_per_isl)

        # Bucket -> destination group per island through one ragged lookup
        # table (buckets are few, elements are not).  From 64 islands on,
        # all islands' Appendix C bound searches advance in lockstep; below
        # that the scalar per-island search is faster, because the lockstep
        # probe machinery has a fixed per-step cost.  Measured on a 2-core
        # host (b = 16, 16r buckets per island): at 32 islands the lockstep
        # search took 13.1 ms against 6.2 ms (r = 16) and 29.0 against
        # 11.0 ms (r = 32); at 64 islands the two are about even (r = 4:
        # 2.7 against 4.5 ms, r = 32: 26.6 against 21.2 ms); from 128
        # islands on the lockstep search wins for every r (r = 16 with 512
        # islands: 39 against 122 ms).  Both return identical boundaries.
        if n_act >= 64:
            lut = optimal_bucket_grouping_batched(
                gbs_flat, nb_off, r_act
            ).bucket_group_lut()
        else:
            lut = np.concatenate([
                np.repeat(
                    np.arange(int(r_act[k]), dtype=np.int64),
                    np.diff(optimal_bucket_grouping(
                        gbs_flat[nb_off[k]:nb_off[k + 1]], int(r_act[k]),
                        method="accelerated",
                    ).boundaries),
                )
                for k in range(n_act)
            ])
        islands.charge_collective(np.ones(n_act, dtype=np.int64))

        # Piece plane: the elements ordered (island, group, PE, original
        # order), so every piece is one contiguous run.  Deliveries address
        # pieces only through their starts, so this column-major layout
        # sends the same messages as a (PE, group) one.  At the final level
        # group j of an island is its PE j, and the plane is the received
        # layout itself (receiver, source, original order): the
        # non-advanced deliveries reassemble nothing.  Group ids fit 32
        # bits; the narrow table halves each block's group-key bytes.
        piece_values, piece_len = blocks.reorder_pieces(
            dist_b.values, bucket_of, lut.astype(np.int32, copy=False),
            r_act, gbs_flat,
        )
        machine.advance_many(
            batch_members,
            map_by_unique2(
                data_sizes,
                np.maximum(2, nb_per_isl[pe_isl]),
                lambda m, nb: spec.local_partition_time(m, nb),
            ),
        )

    # ------------------------------------------------------------------
    # 3. Data delivery for every island at once
    # ------------------------------------------------------------------
    sub_sizes = _split_sizes(act_sizes, r_act)
    received = deliver_to_groups_batched(
        islands,
        r_act,
        sub_sizes,
        piece_values,
        piece_len,
        method=config.delivery,
        seed=machine.seed + level + 1,
        piece_layout="colmaj",
    ).received

    # ------------------------------------------------------------------
    # 4. Next-level island layout (+ pass-through of singleton islands)
    # ------------------------------------------------------------------
    return _level_result(
        dist, isl_offsets, active, batch_ranks, received, r_act, sub_sizes
    )


def _run_levels(
    comm, dist: DistArray, level_fn, sort_first: bool = False
) -> DistArray:
    """Run a batched recursion level by level, with one local sort.

    ``level_fn(dist, isl_offsets, level)`` executes one level for all
    islands and returns ``(dist, isl_offsets)`` for the next; the loop ends
    when every island is one PE.  The local sort is one segmented sort
    charged with every PE's own local-sort time.  By default it runs after
    the levels, where the recursive base cases of AMS-sort, sample sort and
    parallel quicksort collapse into it; with ``sort_first`` it runs before
    them, because the levels of RLM-sort and single-level mergesort split
    and merge sorted runs.  Every flat sort is one call of this loop.
    """
    def local_sort(dist):
        with comm.phase(PHASE_LOCAL_SORT):
            out = dist.sort_segments()
            comm.charge_sort(dist.sizes())
        return out

    if sort_first:
        dist = local_sort(dist)
    isl_offsets = np.array([0, comm.size], dtype=np.int64)
    level = 0
    while int(np.diff(isl_offsets).max()) > 1:
        dist, isl_offsets = level_fn(dist, isl_offsets, level)
        level += 1
    return dist if sort_first else local_sort(dist)


def _ams_sort_flat(comm, dist: DistArray, config: AMSConfig) -> DistArray:
    """AMS-sort on the flat engine: the whole recursion in lockstep.

    Every recursion level executes the *entire* batch of sibling sub-groups
    (islands) as whole-machine vectorised phases — see
    :func:`_ams_level_batched` — until all islands are single PEs, whose
    base-case sorts collapse into one final segmented sort.  All modelled
    charges are issued per PE in the same order and with the same arguments
    as the depth-first per-PE reference, which only the batching across
    *disjoint* PE sets makes possible.
    """
    plan = config.plan_for(comm.size)
    n_total = dist.total
    return _run_levels(comm, dist, lambda d, isl_offsets, level: _ams_level_batched(
        comm, d, isl_offsets, config, level, plan, n_total
    ))


def _dispatch(flat_func, comm, local_data, *args):
    """Run a flat-engine sort, converting list inputs at the boundary.

    ``local_data`` is a :class:`~repro.dist.array.DistArray` or the classic
    per-PE list (one array per member PE, converted with the cheap
    ``DistArray.from_list`` / ``to_list`` round-trip); the output has the
    input's representation.
    """
    if isinstance(local_data, DistArray):
        if local_data.p != comm.size:
            raise ValueError("need one local segment per member PE")
        return flat_func(comm, local_data, *args)
    if len(local_data) != comm.size:
        raise ValueError("need one local array per member PE")
    dist = DistArray.from_list([np.asarray(d) for d in local_data])
    return flat_func(comm, dist, *args).to_list()


def ams_sort(
    comm,
    local_data: Union[DistArray, Sequence[np.ndarray]],
    config: Optional[AMSConfig] = None,
) -> Union[DistArray, List[np.ndarray]]:
    """Sort a distributed array with AMS-sort (flat engine).

    Parameters
    ----------
    comm:
        Communicator over the PEs holding the data.
    local_data:
        The distributed input: either a :class:`~repro.dist.array.DistArray`
        or the classic per-PE list (one array per member PE), which is
        converted with the cheap ``DistArray.from_list`` / ``to_list``
        round-trip at this boundary.
    config:
        :class:`AMSConfig`; defaults to two levels with the paper's sampling
        parameters.

    Returns
    -------
    DistArray or list of numpy.ndarray
        The sorted output in the same representation as the input.
    """
    return _dispatch(
        _ams_sort_flat, comm, local_data,
        AMSConfig() if config is None else config,
    )
