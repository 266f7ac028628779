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

from typing import List, Sequence, Union

import numpy as np

from repro.blocks.delivery import deliver_to_groups, deliver_to_groups_batched
from repro.blocks.multiselect import multisequence_select, multisequence_select_batched
from repro.blocks.sampling import draw_samples_flat, splitter_ranks
from repro.dist.array import DistArray
from repro.dist.flatops import (
    bincount,
    gather,
    segmented_sort_values,
    stable_key_argsort,
    stable_two_key_argsort,
)
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
        selection = multisequence_select(comm, local_sorted, ranks)

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
# Each baseline runs its delivery (and mergesort its splitting) through the
# flat engine's lockstep building blocks on a one-island batch: the same
# code path AMS-sort and RLM-sort run for every island of a level.


def _one_island(comm) -> GroupBatch:
    """``comm`` as a one-island :class:`~repro.sim.groups.GroupBatch`."""
    return GroupBatch(
        comm.machine, comm.members, np.array([0, comm.size], dtype=np.int64)
    )


def _single_level_sample_sort_flat(comm, dist: DistArray) -> DistArray:
    """Flat-engine port of the classic single-level sample sort."""
    p = comm.size
    if p == 1:
        with comm.phase(PHASE_LOCAL_SORT):
            out = dist.sort_segments()
            comm.charge_sort([out.total])
        return out
    sizes = dist.sizes()

    # --- centralized splitter selection (counter-RNG sample) ------------
    with comm.phase(PHASE_SPLITTER_SELECTION):
        samples = draw_samples_flat(
            dist, OVERSAMPLING, comm.machine.sample_rng, 0, comm.members
        ).to_list()
        gathered = comm.gather(samples, root=0, words_each=OVERSAMPLING)
        pieces = [np.asarray(s) for s in gathered if np.asarray(s).size > 0]
        sample = np.concatenate(pieces) if pieces else np.empty(0)
        sample = segmented_sort_values(sample, np.array([0, sample.size]))
        comm.charge_local(0, comm.spec.local_sort_time(int(sample.size)))
        if sample.size == 0:
            splitters = sample[:0]
        else:
            ranks = splitter_ranks(int(sample.size), p - 1)
            splitters = sample[ranks]
        comm.bcast(splitters, root=0, words=int(splitters.size))

    # --- partition into p buckets (one argsort over (PE, bucket) keys) --
    with comm.phase(PHASE_BUCKET_PROCESSING):
        seg = dist.segment_ids()
        if splitters.size == 0:
            dest = np.zeros(dist.total, dtype=np.int64)
        else:
            dest = bucket_indices(dist.values, splitters)
        key = seg * p + dest
        order = stable_two_key_argsort(seg, dest, p, p)
        piece_values = gather(dist.values, order)
        piece_sizes = bincount(key, minlength=p * p).reshape(p, p).astype(
            np.int64, copy=False
        )
        comm.charge_partition(sizes, p)

    # --- dense all-to-allv (every PE is its own group) ------------------
    delivery = deliver_to_groups_batched(
        _one_island(comm), [np.ones(p, dtype=np.int64)], piece_values,
        [piece_sizes], method="naive", schedule="dense",
    )

    # --- final local sort ------------------------------------------------
    with comm.phase(PHASE_LOCAL_SORT):
        output = delivery.received.sort_segments()
        comm.charge_sort(delivery.received_sizes)
    return output


def _single_level_mergesort_flat(comm, dist: DistArray) -> DistArray:
    """Flat-engine port of single-level multiway mergesort (MP-sort style)."""
    p = comm.size

    with comm.phase(PHASE_LOCAL_SORT):
        local_sorted = dist.sort_segments()
        comm.charge_sort(dist.sizes())

    if p == 1:
        return local_sorted

    n_total = local_sorted.total
    sizes = local_sorted.sizes()
    island = _one_island(comm)

    with comm.phase(PHASE_SPLITTER_SELECTION):
        ranks = [(g * n_total) // p for g in range(1, p)]
        selection = multisequence_select_batched(
            island, local_sorted, [ranks], [comm.rng]
        )[0]

    bounds = np.vstack([
        np.zeros((1, p), dtype=np.int64), selection.splits, sizes[None, :],
    ])
    piece_sizes = np.diff(bounds, axis=0).T.astype(np.int64)

    delivery = deliver_to_groups_batched(
        island, [np.ones(p, dtype=np.int64)], local_sorted.values,
        [piece_sizes], method="naive", schedule="dense",
    )

    with comm.phase(PHASE_BUCKET_PROCESSING):
        # Merging the received sorted runs in source order equals a stable
        # segmented sort of the received buffer; the charge is the merge.
        output = delivery.received.sort_segments()
        ways = np.maximum(2, delivery.nonempty_runs)
        comm.charge_merge(delivery.received_sizes, ways)
    return output


def _parallel_quicksort_flat(
    comm, dist: DistArray, seed_offset: int = 0
) -> DistArray:
    """Flat-engine port of recursive parallel quicksort.

    ``seed_offset`` is the recursion depth, as in the reference.
    """
    p = comm.size

    if p == 1:
        with comm.phase(PHASE_LOCAL_SORT):
            out = dist.sort_segments()
            comm.charge_sort([out.total])
        return out
    sizes = dist.sizes()

    # --- pivot selection from a small sample ---------------------------
    with comm.phase(PHASE_SPLITTER_SELECTION):
        samples = draw_samples_flat(
            dist, OVERSAMPLING, comm.machine.sample_rng, seed_offset, comm.members
        ).to_list()
        gathered = comm.allgather_arrays(samples, merge_sorted=True)
        if gathered.size == 0:
            pivot = None
        else:
            pivot = gathered[gathered.size // 2]

    # --- partition into two pieces and deliver to two halves -----------
    with comm.phase(PHASE_BUCKET_PROCESSING):
        seg = dist.segment_ids()
        if pivot is None:
            side = np.zeros(dist.total, dtype=np.int64)
        else:
            side = (dist.values > pivot).astype(np.int64)
        key = seg * 2 + side
        order = stable_key_argsort(key, p * 2)
        piece_values = gather(dist.values, order)
        piece_sizes = bincount(key, minlength=p * 2).reshape(p, 2).astype(
            np.int64, copy=False
        )
        comm.charge_partition(sizes, 2)

    groups = comm.split(2)
    delivery = deliver_to_groups_batched(
        _one_island(comm), [np.array([g.size for g in groups], dtype=np.int64)],
        piece_values, [piece_sizes], method="naive", seed=seed_offset,
    )

    parts: List[DistArray] = []
    start_rank = 0
    for group in groups:
        sub = delivery.received.slice_segments(start_rank, start_rank + group.size)
        parts.append(_parallel_quicksort_flat(group, sub, seed_offset + 1))
        start_rank += group.size
    return DistArray.concatenate(parts)


def _dispatch(flat_func, comm, local_data):
    """Run a flat baseline, converting list inputs at the boundary."""
    if isinstance(local_data, DistArray):
        if local_data.p != comm.size:
            raise ValueError("need one local segment per member PE")
        return flat_func(comm, local_data)
    if len(local_data) != comm.size:
        raise ValueError("need one local array per member PE")
    dist = DistArray.from_list([np.asarray(d) for d in local_data])
    return flat_func(comm, dist).to_list()


def single_level_sample_sort(
    comm,
    local_data: "Union[DistArray, Sequence[np.ndarray]]",
) -> "Union[DistArray, List[np.ndarray]]":
    """Classic single-level sample sort with centralized splitter selection.

    Runs on the flat engine; accepts a :class:`DistArray` or the classic
    per-PE list (converted at this boundary).  Every PE draws
    :data:`OVERSAMPLING` samples; the root picks ``p - 1`` equidistant
    splitters from the gathered, sorted sample.  The exchange is a dense
    all-to-allv (``p - 1`` startups per PE), the behaviour the paper
    attributes to single-level algorithms.
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
