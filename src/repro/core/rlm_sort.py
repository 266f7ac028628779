"""Recurse Last Multiway Mergesort (RLM-sort), Section 5 of the paper.

One level of RLM-sort on a group of ``p`` PEs to be split into ``r``
sub-groups:

1. **Local sort** — every PE sorts its local data (only at the first level;
   deeper levels receive data that is already locally sorted because the
   received runs were merged).
2. **Splitter selection** — a distributed multisequence selection
   (Section 4.1) computes, for every PE, split positions such that the
   ``r`` resulting parts have *exactly* equal global sizes (perfect
   splitting: this is what distinguishes RLM-sort from AMS-sort).
3. **Data delivery** — the parts are delivered to the ``r`` PE groups
   (Section 4.3).
4. **Bucket processing** — every PE merges the sorted runs it received.
5. **Recursion** — each group recursively applies the next level; a single
   PE is already done because its data is sorted after the merge.

Theorem 2 gives the running time; the isoefficiency function is
``O(p^(1 + 1/k) log p)``, a ``log^2 p`` factor worse than AMS-sort, which the
slowdown experiment (Figure 7) makes visible.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from repro.blocks.delivery import deliver_to_groups, deliver_to_groups_batched
from repro.blocks.multiselect import multisequence_select, multisequence_select_batched
from repro.core.ams_sort import _level_r, _level_result, _split_sizes
from repro.core.config import RLMConfig
from repro.dist.array import DistArray
from repro.dist.flatops import concat_ranges, map_by_unique2
from repro.machine.counters import (
    PHASE_BUCKET_PROCESSING,
    PHASE_DATA_DELIVERY,
    PHASE_LOCAL_SORT,
    PHASE_SPLITTER_SELECTION,
)
from repro.seq.merge import merge_runs_numpy
from repro.sim.groups import GroupBatch


def rlm_sort_reference(
    comm,
    local_data: Sequence[np.ndarray],
    config: Optional[RLMConfig] = None,
    level: int = 0,
    _plan: Optional[List[int]] = None,
    _presorted: bool = False,
) -> List[np.ndarray]:
    """Per-PE reference implementation of RLM-sort (the seed engine).

    Semantically identical to :func:`rlm_sort`; kept as the executable
    specification the flat engine is verified against.
    """
    if config is None:
        config = RLMConfig()
    p = comm.size
    if len(local_data) != p:
        raise ValueError("need one local array per member PE")
    local_data = [np.asarray(d) for d in local_data]

    # ------------------------------------------------------------------
    # Local sorting (first level only)
    # ------------------------------------------------------------------
    if not _presorted:
        with comm.phase(PHASE_LOCAL_SORT):
            local_sorted = [np.sort(d, kind="stable") for d in local_data]
            comm.charge_sort([d.size for d in local_data])
    else:
        local_sorted = [d for d in local_data]

    if p == 1:
        return [local_sorted[0].copy() if _presorted else local_sorted[0]]

    if _plan is None:
        _plan = config.plan_for(p)
    if level < len(_plan):
        r = min(int(_plan[level]), p)
    else:
        r = p
    r = max(2, min(r, p))

    n_total = int(sum(d.size for d in local_sorted))
    groups = comm.split(r)

    # ------------------------------------------------------------------
    # Splitter selection: exact multisequence selection at ranks
    # proportional to the group sizes (equal to i*n/r when p divides evenly),
    # so every PE ends up with n/p elements regardless of rounding.
    # ------------------------------------------------------------------
    with comm.phase(PHASE_SPLITTER_SELECTION):
        cumulative_pes = np.cumsum([g.size for g in groups])
        ranks = [int((n_total * int(c)) // p) for c in cumulative_pes[:-1]]
        # Per-group pivot stream: sibling groups draw independently, which
        # is what lets the flat engine run them in lockstep (the draws are
        # identical either way because the stream only depends on
        # (machine seed, level, first group PE)).
        selection = multisequence_select(
            comm, local_sorted, ranks,
            rng=comm.machine.group_rng(level, comm.global_pe(0)),
        )

    # ------------------------------------------------------------------
    # Build the r pieces per PE from the split positions
    # ------------------------------------------------------------------
    pieces: List[List[np.ndarray]] = []
    for i in range(p):
        slices = selection.pieces_for_pe(i, int(local_sorted[i].size))
        pieces.append([local_sorted[i][s] for s in slices])

    # ------------------------------------------------------------------
    # Data delivery
    # ------------------------------------------------------------------
    delivery = deliver_to_groups(
        comm,
        groups,
        pieces,
        method=config.delivery,
        seed=comm.machine.seed + level + 1,
        phase=PHASE_DATA_DELIVERY,
        schedule=config.exchange_schedule,
    )

    # ------------------------------------------------------------------
    # Bucket processing: merge the received sorted runs on every PE
    # ------------------------------------------------------------------
    with comm.phase(PHASE_BUCKET_PROCESSING):
        merged: List[np.ndarray] = []
        merge_sizes = []
        merge_ways = []
        for i in range(p):
            runs = delivery.received[i]
            out = merge_runs_numpy(runs)
            merged.append(out)
            merge_sizes.append(int(out.size))
            merge_ways.append(max(2, len([x for x in runs if x.size > 0])))
        comm.charge_merge(merge_sizes, merge_ways)

    # ------------------------------------------------------------------
    # Recursion within each group (data already locally sorted)
    # ------------------------------------------------------------------
    output: List[np.ndarray] = [None] * p  # type: ignore[list-item]
    for g, group in enumerate(groups):
        offset = comm.local_rank_of(int(group.members[0]))
        group_local = [merged[offset + j] for j in range(group.size)]
        sorted_group = rlm_sort_reference(
            group,
            group_local,
            config=config,
            level=level + 1,
            _plan=_plan,
            _presorted=True,
        )
        for j in range(group.size):
            output[offset + j] = sorted_group[j]
    return output


def _rlm_level_batched(
    comm,
    dist: DistArray,
    isl_offsets: np.ndarray,
    config: RLMConfig,
    level: int,
    plan,
) -> tuple:
    """Run one RLM-sort recursion level for *all* islands in lockstep.

    Mirrors :func:`repro.core.ams_sort._ams_level_batched`: the exact
    multisequence selections of every island run as one batched pivot loop
    (:func:`multisequence_select_batched`), the piece delivery of the whole
    level is one :func:`deliver_to_groups_batched` call, and the
    post-delivery multiway merges collapse into one segmented sort.
    Singleton islands are already sorted and pass through untouched (their
    base case charges nothing).
    """
    machine = comm.machine
    spec = comm.spec
    sizes_isl = np.diff(isl_offsets)
    num_isl = int(sizes_isl.size)
    active = np.flatnonzero(sizes_isl > 1)
    n_act = int(active.size)
    act_sizes = sizes_isl[active]
    act_off = np.zeros(n_act + 1, dtype=np.int64)
    np.cumsum(act_sizes, out=act_off[1:])
    batch_ranks = concat_ranges(isl_offsets[active], act_sizes)
    batch_members = comm.members[batch_ranks]
    islands = GroupBatch(machine, batch_members, act_off)
    dist_b = dist if n_act == num_isl else dist.take_segments(batch_ranks)
    data_sizes = dist_b.sizes()

    # Group counts and sub-group layouts depend only on the island size;
    # evaluate once per distinct size.
    uniq_sz, inv_sz = np.unique(act_sizes, return_inverse=True)
    r_uniq = np.array(
        [_level_r(plan, level, int(pk)) for pk in uniq_sz], dtype=np.int64
    )
    r_act = r_uniq[inv_sz]
    sub_cache = {
        int(pk): _split_sizes(int(pk), int(rk))
        for pk, rk in zip(uniq_sz, r_uniq)
    }
    sub_sizes = [sub_cache[int(pk)] for pk in act_sizes]

    # ------------------------------------------------------------------
    # 1. Splitter selection: exact multisequence selection, all islands in
    #    lockstep with per-island replicated pivot streams
    # ------------------------------------------------------------------
    with comm.phase(PHASE_SPLITTER_SELECTION):
        isl_totals = np.add.reduceat(data_sizes, act_off[:-1])
        # All islands' target ranks in one pass: per-island inclusive
        # cumsum of the sub-group sizes, last entry dropped, scaled by
        # total/p.  With a, b = divmod(total, p), a*c + (b*c)//p equals
        # (total*c)//p exactly and cannot overflow (b*c < p**2).
        sub_flat = np.concatenate(sub_sizes)  # a level has an active island
        sub_off = np.zeros(n_act + 1, dtype=np.int64)
        np.cumsum(r_act, out=sub_off[1:])
        cum = np.cumsum(sub_flat)
        cum -= np.repeat(cum[sub_off[:-1]] - sub_flat[sub_off[:-1]], r_act)
        keep = np.ones(int(sub_off[-1]), dtype=bool)
        keep[sub_off[1:] - 1] = False
        nr = r_act - 1
        p_rep = np.repeat(act_sizes, nr)
        a, b = np.divmod(np.repeat(isl_totals, nr), p_rep)
        c = cum[keep]
        ranks_flat = a * c + (b * c) // p_rep
        ranks_per_island = np.split(ranks_flat, np.cumsum(nr)[:-1])
        rngs = [
            machine.group_rng(level, int(batch_members[act_off[k]]))
            for k in range(n_act)
        ]
        selections = multisequence_select_batched(
            islands, dist_b, ranks_per_island, rngs
        )

    # ------------------------------------------------------------------
    # 2. Pieces: consecutive slices of the sorted segments
    # ------------------------------------------------------------------
    piece_mats = []
    for k in range(n_act):
        pk = int(act_sizes[k])
        bounds = np.vstack([
            np.zeros((1, pk), dtype=np.int64),
            selections[k].splits,
            data_sizes[act_off[k]:act_off[k + 1]][None, :],
        ])
        piece_mats.append(np.diff(bounds, axis=0).T.astype(np.int64))

    # ------------------------------------------------------------------
    # 3. Data delivery for every island at once
    # ------------------------------------------------------------------
    delivery = deliver_to_groups_batched(
        islands,
        sub_sizes,
        dist_b.values,
        piece_mats,
        method=config.delivery,
        seed=machine.seed + level + 1,
        phase=PHASE_DATA_DELIVERY,
        schedule=config.exchange_schedule,
    )
    received = delivery.received

    # ------------------------------------------------------------------
    # 4. Bucket processing: one segmented sort merges all received runs
    # ------------------------------------------------------------------
    with comm.phase(PHASE_BUCKET_PROCESSING):
        merged = received.sort_segments()
        machine.advance_many(
            batch_members,
            map_by_unique2(
                delivery.received_sizes,
                np.maximum(2, delivery.nonempty_runs),
                lambda m, w: spec.local_merge_time(m, w),
            ),
        )

    # ------------------------------------------------------------------
    # 5. Next-level island layout (+ pass-through of singleton islands)
    # ------------------------------------------------------------------
    return _level_result(
        dist, isl_offsets, active, batch_ranks, merged, sub_sizes
    )


def _rlm_sort_flat(comm, dist: DistArray, config: RLMConfig) -> DistArray:
    """RLM-sort on the flat engine: the whole recursion in lockstep.

    The first-level local sort and every post-delivery multiway merge are
    single segmented stable sorts of the flat buffer; the exact splitting of
    all islands of a level runs as one batched multisequence selection, and
    the piece delivery of a level is one whole-machine batch.  Deeper levels
    receive data that is already locally sorted, so after the last level the
    array is globally sorted and perfectly balanced.
    """
    p = comm.size

    # ------------------------------------------------------------------
    # Local sorting (first level only)
    # ------------------------------------------------------------------
    with comm.phase(PHASE_LOCAL_SORT):
        dist = dist.sort_segments()
        comm.charge_sort(dist.sizes())
    if p == 1:
        return dist

    plan = config.plan_for(p)
    isl_offsets = np.array([0, p], dtype=np.int64)
    level = 0
    while int(np.diff(isl_offsets).max(initial=0)) > 1:
        dist, isl_offsets = _rlm_level_batched(
            comm, dist, isl_offsets, config, level, plan
        )
        level += 1
    return dist


def rlm_sort(
    comm,
    local_data: Union[DistArray, Sequence[np.ndarray]],
    config: Optional[RLMConfig] = None,
) -> Union[DistArray, List[np.ndarray]]:
    """Sort a distributed array with RLM-sort (flat engine).

    Parameters
    ----------
    comm:
        Communicator over the PEs holding the data.
    local_data:
        The distributed input: a :class:`~repro.dist.array.DistArray` or the
        classic per-PE list (converted at this boundary).
    config:
        :class:`RLMConfig`; defaults to two levels.

    Returns
    -------
    DistArray or list of numpy.ndarray
        The sorted output in the same representation as the input.  The
        output is perfectly balanced: every PE holds ``floor(n/p)`` or
        ``ceil(n/p)`` elements.
    """
    if config is None:
        config = RLMConfig()
    if isinstance(local_data, DistArray):
        if local_data.p != comm.size:
            raise ValueError("need one local segment per member PE")
        return _rlm_sort_flat(comm, local_data, config)
    if len(local_data) != comm.size:
        raise ValueError("need one local array per member PE")
    dist = DistArray.from_list([np.asarray(d) for d in local_data])
    return _rlm_sort_flat(comm, dist, config).to_list()
