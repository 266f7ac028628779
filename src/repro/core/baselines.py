"""Single-level baseline algorithms the paper compares against.

* :func:`single_level_sample_sort` — classic parallel sample sort [6]:
  centralized splitter selection (gather :data:`OVERSAMPLING` samples per
  PE, sort them on one PE, broadcast ``p - 1`` splitters), a dense
  all-to-allv with ``p - 1`` message startups per PE (a plain
  ``MPI_Alltoallv``, as the paper describes single-level algorithms), and a
  final local sort.  Its isoefficiency function is ``Omega(p^2 / log p)`` —
  the scalability gap the multi-level algorithms close.
* :func:`single_level_mergesort` — single-level multiway mergesort in the
  style of MP-sort [12] (Section 7.3): local sort, exact ``p``-way
  splitting via multisequence selection, the same dense all-to-allv, and a
  final local merge of the received runs.
* :func:`parallel_quicksort` — recursive parallel quicksort [19]: the PEs
  are repeatedly split into two halves around a pivot, moving all data once
  per level for ``log2 p`` levels, with pivots from :data:`OVERSAMPLING`
  samples per PE and a sparse exchange.  It represents the "prohibitive
  communication volume" end of the design space discussed in the
  introduction.
"""

from __future__ import annotations

from functools import partial
from typing import List, Sequence, Union

import numpy as np

from repro.blocks.delivery import deliver_to_groups, deliver_to_groups_batched
from repro.blocks.multiselect import multisequence_select
from repro.blocks.sampling import draw_samples_flat, splitter_ranks
from repro.core.ams_sort import (
    _LevelBlocks,
    _dispatch,
    _level_islands,
    _level_result,
    _run_levels,
    _segmented_sample_splitters,
    _split_sizes,
)
from repro.core.rlm_sort import _rlm_level_batched
from repro.dist.array import DistArray
from repro.dist.flatops import blockwise_searchsorted, map_by_unique, map_by_unique2
from repro.machine.counters import (
    PHASE_BUCKET_PROCESSING,
    PHASE_LOCAL_SORT,
    PHASE_SPLITTER_SELECTION,
)
from repro.seq.merge import merge_runs_numpy
from repro.seq.partition import bucket_indices
from repro.sim.groups import GroupBatch

#: Samples per PE of sample sort's splitter and quicksort's pivot selection.
OVERSAMPLING = 16


def single_level_sample_sort_reference(
    comm,
    local_data: Sequence[np.ndarray],
) -> List[np.ndarray]:
    """Per-PE reference implementation of the classic sample sort."""
    p = comm.size
    if len(local_data) != p:
        raise ValueError("need one local array per member PE")
    local_data = [np.asarray(d) for d in local_data]
    if p == 1:
        with comm.phase(PHASE_LOCAL_SORT):
            out = np.sort(local_data[0], kind="stable")
            comm.charge_sort([out.size])
        return [out]

    # --- centralized splitter selection -------------------------------
    with comm.phase(PHASE_SPLITTER_SELECTION):
        samples = draw_samples_flat(
            DistArray.from_list(local_data), OVERSAMPLING,
            comm.machine.sample_rng, 0, comm.members,
        ).to_list()
        gathered = comm.gather(samples, root=0, words_each=OVERSAMPLING)
        pieces = [np.asarray(s) for s in gathered if np.asarray(s).size > 0]
        sample = np.sort(np.concatenate(pieces), kind="stable") if pieces else np.empty(0)
        comm.charge_local(0, comm.spec.local_sort_time(int(sample.size)))
        if sample.size == 0:
            splitters = sample[:0]
        else:
            ranks = splitter_ranks(int(sample.size), p - 1)
            splitters = sample[ranks]
        comm.bcast(splitters, root=0, words=int(splitters.size))

    # --- partition into p buckets --------------------------------------
    with comm.phase(PHASE_BUCKET_PROCESSING):
        pieces_per_pe: List[List[np.ndarray]] = []
        for i in range(p):
            data = local_data[i]
            if splitters.size == 0:
                dest = np.zeros(data.size, dtype=np.int64)
            else:
                dest = bucket_indices(data, splitters)
            pieces_per_pe.append([data[dest == j] for j in range(p)])
        comm.charge_partition([d.size for d in local_data], p)

    # --- direct all-to-all exchange ------------------------------------
    groups = comm.split(p)  # every PE is its own group
    delivery = deliver_to_groups(
        comm, groups, pieces_per_pe, method="naive", schedule="dense"
    )

    # --- final local sort ------------------------------------------------
    with comm.phase(PHASE_LOCAL_SORT):
        output = []
        for i in range(p):
            data = delivery.received_concat(i)
            output.append(np.sort(data, kind="stable"))
        comm.charge_sort([o.size for o in output])
    return output


def single_level_mergesort_reference(
    comm,
    local_data: Sequence[np.ndarray],
) -> List[np.ndarray]:
    """Per-PE reference implementation of single-level multiway mergesort."""
    p = comm.size
    if len(local_data) != p:
        raise ValueError("need one local array per member PE")
    local_data = [np.asarray(d) for d in local_data]

    with comm.phase(PHASE_LOCAL_SORT):
        local_sorted = [np.sort(d, kind="stable") for d in local_data]
        comm.charge_sort([d.size for d in local_data])

    if p == 1:
        return [local_sorted[0]]

    n_total = int(sum(d.size for d in local_sorted))

    with comm.phase(PHASE_SPLITTER_SELECTION):
        ranks = [(g * n_total) // p for g in range(1, p)]
        selection = multisequence_select(comm, local_sorted, ranks, level=0)

    pieces: List[List[np.ndarray]] = []
    for i in range(p):
        slices = selection.pieces_for_pe(i, int(local_sorted[i].size))
        pieces.append([local_sorted[i][s] for s in slices])

    groups = comm.split(p)
    delivery = deliver_to_groups(
        comm, groups, pieces, method="naive", schedule="dense"
    )

    with comm.phase(PHASE_BUCKET_PROCESSING):
        output: List[np.ndarray] = []
        sizes = []
        ways = []
        for i in range(p):
            runs = delivery.received[i]
            out = merge_runs_numpy(runs)
            output.append(out)
            sizes.append(int(out.size))
            ways.append(max(2, len([x for x in runs if x.size > 0])))
        comm.charge_merge(sizes, ways)
    return output


def parallel_quicksort_reference(
    comm,
    local_data: Sequence[np.ndarray],
    _seed_offset: int = 0,
) -> List[np.ndarray]:
    """Per-PE reference implementation of recursive parallel quicksort.

    ``_seed_offset`` is the recursion depth (it keys the sample and the
    delivery permutation); callers leave it at 0.
    """
    p = comm.size
    if len(local_data) != p:
        raise ValueError("need one local array per member PE")
    local_data = [np.asarray(d) for d in local_data]

    if p == 1:
        with comm.phase(PHASE_LOCAL_SORT):
            out = np.sort(local_data[0], kind="stable")
            comm.charge_sort([out.size])
        return [out]

    # --- pivot selection from a small sample ---------------------------
    with comm.phase(PHASE_SPLITTER_SELECTION):
        samples = draw_samples_flat(
            DistArray.from_list(local_data), OVERSAMPLING,
            comm.machine.sample_rng, _seed_offset, comm.members,
        ).to_list()
        gathered = comm.allgather_arrays(samples, merge_sorted=True)
        if gathered.size == 0:
            pivot = None
        else:
            pivot = gathered[gathered.size // 2]

    # --- partition into two pieces and deliver to two halves -----------
    with comm.phase(PHASE_BUCKET_PROCESSING):
        pieces: List[List[np.ndarray]] = []
        for i in range(p):
            data = local_data[i]
            if pivot is None:
                pieces.append([data, data[:0]])
            else:
                mask = data <= pivot
                pieces.append([data[mask], data[~mask]])
        comm.charge_partition([d.size for d in local_data], 2)

    groups = comm.split(2)
    delivery = deliver_to_groups(
        comm, groups, pieces, method="naive", seed=_seed_offset
    )

    output: List[np.ndarray] = [None] * p  # type: ignore[list-item]
    for g, group in enumerate(groups):
        offset = comm.local_rank_of(int(group.members[0]))
        group_local = [delivery.received_concat(offset + j) for j in range(group.size)]
        sorted_group = parallel_quicksort_reference(
            group, group_local, _seed_offset=_seed_offset + 1
        )
        for j in range(group.size):
            output[offset + j] = sorted_group[j]
    return output


# ======================================================================
# Flat (DistArray) engine ports
# ======================================================================
#
# Every baseline is one run of the multi-level sorts' level loop,
# ``_run_levels``.  Quicksort's levels are its recursion depths, all
# islands of a depth in lockstep, and sample sort's one level splits the
# machine into single PEs.  Both split islands with AMS-sort's cache-blocked
# bucket pass; the naive delivery takes the column-major piece plane as the
# received data.  Single-level mergesort is RLM-sort's level with r = p.


def _split_islands(
    dist_b: DistArray, act_off: np.ndarray, bucket_of: np.ndarray, r: int
) -> tuple:
    """Split every island into its ``r`` groups, bucket ``j`` to group ``j``.

    ``act_off`` delimits the islands of ``dist_b``'s PEs and ``bucket_of``
    holds every element's bucket.  Returns
    :meth:`~repro.core.ams_sort._LevelBlocks.reorder_pieces`'s column-major
    piece plane and ``(PE, group)`` piece sizes.
    """
    n = int(act_off.size) - 1
    blocks = _LevelBlocks(
        dist_b.offsets, act_off, dist_b.offsets[act_off],
        r * np.arange(n + 1, dtype=np.int64),
    )
    return blocks.reorder_pieces(
        dist_b.values, bucket_of, np.tile(np.arange(r, dtype=np.int32), n),
        np.full(n, r, dtype=np.int64), blocks.bucket_sizes(bucket_of),
    )


def _sample_sort_level(comm, dist: DistArray, *_) -> tuple:
    """Sample sort's one level, which splits the machine into single PEs."""
    p = comm.size

    # --- centralized splitter selection (counter-RNG sample) ------------
    with comm.phase(PHASE_SPLITTER_SELECTION):
        samples = draw_samples_flat(
            dist, OVERSAMPLING, comm.machine.sample_rng, 0, comm.members
        )
        comm.gather(samples.to_list(), root=0, words_each=OVERSAMPLING)
        comm.charge_local(0, comm.spec.local_sort_time(samples.total))
        splitters, spl_off = _segmented_sample_splitters(
            samples, np.array([samples.total]), np.array([p - 1])
        )
        comm.bcast(splitters, root=0, words=int(splitters.size))

    # --- partition into p buckets, bucket j to PE j ----------------------
    with comm.phase(PHASE_BUCKET_PROCESSING):
        bucket_of = blockwise_searchsorted(
            splitters, spl_off, dist.values, np.array([0, dist.total]),
            side="right",
        )
        piece_values, piece_len = _split_islands(
            dist, np.array([0, p]), bucket_of, p
        )
        comm.charge_partition(dist.sizes(), p)

    # --- dense all-to-allv (every PE is its own group) ------------------
    delivery = deliver_to_groups_batched(
        GroupBatch(comm.machine, comm.members, np.array([0, p])),
        np.array([p]), np.ones(p, dtype=np.int64), piece_values, piece_len,
        method="naive", schedule="dense", piece_layout="colmaj",
    )
    return delivery.received, np.arange(p + 1, dtype=np.int64)


def _single_level_sample_sort_flat(comm, dist: DistArray) -> DistArray:
    """Flat-engine port of the classic single-level sample sort.

    One level into single PEs, then their local sorts (at ``p = 1`` only
    the local sort, as in the reference).
    """
    return _run_levels(comm, dist, partial(_sample_sort_level, comm))


def _single_level_mergesort_flat(comm, dist: DistArray) -> DistArray:
    """Flat-engine port of single-level multiway mergesort (MP-sort style).

    RLM-sort's one level with ``r = p``: the local sort, the exact ``p``-way
    selection, a naive delivery over the dense all-to-allv and the merge of
    the received runs (at ``p = 1`` only the local sort).
    """
    return _run_levels(comm, dist, partial(
        _rlm_level_batched, comm, plan=[comm.size], delivery="naive",
        schedule="dense",
    ), sort_first=True)


def _quicksort_level_batched(
    comm, dist: DistArray, isl_offsets: np.ndarray, depth: int
) -> tuple:
    """One recursion depth of parallel quicksort, all islands in lockstep.

    Charges every island of more than one PE as the reference charges one
    recursive call; singleton islands pass through.  Returns
    ``(new_dist, new_isl_offsets)``.
    """
    spec = comm.spec
    active, batch_ranks, islands, dist_b = _level_islands(comm, dist, isl_offsets)
    act_sizes, act_off = islands.sizes, islands.offsets

    # --- pivot: the middle element of the island's gathered sample ------
    with comm.phase(PHASE_SPLITTER_SELECTION):
        samples = draw_samples_flat(
            dist_b, OVERSAMPLING, comm.machine.sample_rng, depth, islands.members
        )
        s_tot = np.add.reduceat(samples.sizes(), act_off[:-1])
        # The all-gather with merging: ceil(mean sample) words, one round
        # per PE, then every PE merges the whole sample if there is one.
        islands.charge_collective(
            np.maximum(1, -(-s_tot // act_sizes)), rounds_factors=act_sizes
        )
        drew = np.flatnonzero(s_tot)
        if drew.size:
            islands.select(drew).advance(map_by_unique2(
                s_tot[drew], np.maximum(2, act_sizes[drew]), spec.local_merge_time
            ))
        pivots, _ = _segmented_sample_splitters(
            samples, s_tot, np.ones_like(s_tot)
        )

    # --- split at the pivot into two pieces per PE -----------------------
    with comm.phase(PHASE_BUCKET_PROCESSING):
        # The reference's ``data <= pivot`` (so a NaN goes right).  An
        # island without a sample holds no element (every non-empty PE
        # draws), so the drawing islands' pivots cover every element.
        isl_elems = np.diff(dist_b.offsets[act_off])
        right = ~(dist_b.values <= np.repeat(pivots, isl_elems[s_tot > 0]))
        piece_values, piece_len = _split_islands(dist_b, act_off, right, 2)
        islands.machine.advance_many(islands.members, map_by_unique(
            dist_b.sizes(), lambda m: spec.local_partition_time(m, 2)
        ))

    r_act = np.full_like(act_sizes, 2)
    sub_sizes = _split_sizes(act_sizes, r_act)
    received = deliver_to_groups_batched(
        islands, r_act, sub_sizes, piece_values, piece_len,
        method="naive", piece_layout="colmaj",
    ).received
    return _level_result(
        dist, isl_offsets, active, batch_ranks, received, r_act, sub_sizes
    )


def _parallel_quicksort_flat(comm, dist: DistArray) -> DistArray:
    """Flat-engine port of recursive parallel quicksort, depth by depth.

    The depth keys the sample streams, as in the reference.
    """
    return _run_levels(comm, dist, partial(_quicksort_level_batched, comm))


def single_level_sample_sort(
    comm,
    local_data: "Union[DistArray, Sequence[np.ndarray]]",
) -> "Union[DistArray, List[np.ndarray]]":
    """Classic single-level sample sort with centralized splitter selection.

    Runs on the flat engine; accepts a :class:`DistArray` or the classic
    per-PE list (converted at this boundary).  Every PE draws
    :data:`OVERSAMPLING` samples; the root picks ``p - 1`` equidistant
    splitters from the gathered, sorted sample.  The exchange is a dense
    all-to-allv (``p - 1`` startups per PE), as the paper describes
    single-level algorithms.
    """
    return _dispatch(_single_level_sample_sort_flat, comm, local_data)


def single_level_mergesort(
    comm,
    local_data: "Union[DistArray, Sequence[np.ndarray]]",
) -> "Union[DistArray, List[np.ndarray]]":
    """Single-level multiway mergesort (perfect splitting, MP-sort style).

    Runs on the flat engine; accepts a :class:`DistArray` or the classic
    per-PE list.  The pieces travel in one dense all-to-allv and every PE
    merges the sorted runs it receives.
    """
    return _dispatch(_single_level_mergesort_flat, comm, local_data)


def parallel_quicksort(
    comm,
    local_data: "Union[DistArray, Sequence[np.ndarray]]",
) -> "Union[DistArray, List[np.ndarray]]":
    """Recursive parallel quicksort: split the PEs in two around a pivot.

    Runs on the flat engine; accepts a :class:`DistArray` or the classic
    per-PE list.  Every element is moved ``Theta(log p)`` times, which is
    exactly the "prohibitive communication volume" regime the introduction
    of the paper describes for parallelised classic algorithms.
    """
    return _dispatch(_parallel_quicksort_flat, comm, local_data)
