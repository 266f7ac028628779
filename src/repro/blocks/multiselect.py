"""Distributed multisequence selection (Section 4.1, Figure 2).

Given one locally *sorted* array per PE and a set of ``r`` target global
ranks, find for every PE and every rank a split position such that exactly
the requested number of elements lies to the left of the splits, and the
split is order-consistent (no element left of a split is larger than an
element right of it).

The algorithm is the distributed adaptation of quickselect described in the
paper:

1. pick a pivot uniformly at random among the remaining candidate elements —
   the same random number is used on all PEs (replicated randomness), and a
   prefix sum over the candidate counts locates the owning PE,
2. every PE performs a binary search for the pivot in its candidate range
   (``O(log(n/p))`` local work),
3. a global reduction compares the number of elements ``<=`` pivot with the
   requested rank and the search continues in the left or right part.

Duplicate keys are handled exactly, without materialising tie-break keys, by
using the implicit composite key ``(value, PE, position)``: the count of
elements "``<=`` pivot" on PE ``i`` includes equal elements only when
``i < q`` (pivot owner) or when ``i == q`` and the position does not exceed
the pivot's position.  This is precisely the scheme of Appendix D.

All ``r`` selections run simultaneously; every iteration uses a single
vector-valued reduction of length ``r`` (running time contribution
``O(r beta + alpha log p)`` per iteration, Equation (1) of the paper).

Pivot randomness: all active ranks of one iteration draw their pivot
positions with a *single* vectorised ``Generator.integers`` call on the
shared generator.  The generator defaults to the communicator's replicated
stream; the multi-level sorting algorithms pass a per-group stream
(:meth:`repro.sim.machine.SimulatedMachine.group_rng`) instead so that
sibling groups of one recursion level draw independently of each other —
the precondition for executing them in lockstep
(:func:`multisequence_select_batched`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.dist.array import DistArray
from repro.dist.flatops import concat_ranges, segmented_searchsorted


@dataclass
class MultiselectResult:
    """Result of a distributed multisequence selection.

    Attributes
    ----------
    splits:
        Integer matrix of shape ``(num_ranks, p)``; ``splits[t, i]`` is the
        number of elements of PE ``i``'s local array that belong to the left
        part for target rank ``t``.  Row sums equal the requested ranks.
    iterations:
        Number of pivot iterations executed (all ranks combined, i.e. the
        number of collective rounds).
    """

    splits: np.ndarray
    iterations: int

    def pieces_for_pe(self, pe: int, local_size: int) -> List[slice]:
        """Slices of PE ``pe``'s local array delimited by consecutive splits.

        For ``r - 1`` splitting ranks this returns ``r`` slices covering the
        whole local array.
        """
        bounds = [0] + [int(x) for x in self.splits[:, pe]] + [int(local_size)]
        for a, b in zip(bounds, bounds[1:]):
            if b < a:
                raise ValueError("split positions are not monotone")
        return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def multisequence_select(
    comm,
    local_sorted: Sequence[np.ndarray],
    ranks: Sequence[int],
    charge_local: bool = True,
    rng: Optional[np.random.Generator] = None,
) -> MultiselectResult:
    """Run the distributed multisequence selection on communicator ``comm``.

    Parameters
    ----------
    comm:
        :class:`repro.sim.comm.Comm` of ``p`` PEs.
    local_sorted:
        One individually sorted array per member PE.
    ranks:
        Target global ranks, non-decreasing, each in ``0 .. n`` where ``n``
        is the total number of elements.
    charge_local:
        Charge the modelled local binary-search cost (disable for tests that
        only care about the data result).
    rng:
        Replicated random stream for the pivot draws; defaults to the
        communicator's shared generator.  The multi-level algorithms pass a
        per-group stream so sibling groups can run in lockstep.
    """
    p = comm.size
    if rng is None:
        rng = comm.rng
    if len(local_sorted) != p:
        raise ValueError("need one sorted array per member PE")
    runs = [np.asarray(a) for a in local_sorted]
    for i, a in enumerate(runs):
        if a.ndim != 1:
            raise ValueError(f"local array of rank {i} is not one-dimensional")
        if a.size > 1 and np.any(a[1:] < a[:-1]):
            raise ValueError(f"local array of rank {i} is not sorted")
    sizes = np.array([a.size for a in runs], dtype=np.int64)
    total = int(sizes.sum())
    ranks_arr = np.asarray(ranks, dtype=np.int64)
    num_ranks = int(ranks_arr.size)
    if np.any(ranks_arr < 0) or np.any(ranks_arr > total):
        raise ValueError(f"ranks must lie in 0..{total}")
    if num_ranks > 1 and np.any(np.diff(ranks_arr) < 0):
        raise ValueError("ranks must be non-decreasing")

    # Per-rank candidate windows [lo, hi) on every PE.
    lo = np.zeros((num_ranks, p), dtype=np.int64)
    hi = np.tile(sizes, (num_ranks, 1))
    # Ranks 0 and n are trivially done (empty / full left part).
    done = np.zeros(num_ranks, dtype=bool)
    for t, k in enumerate(ranks_arr):
        if k == 0:
            hi[t] = 0
            done[t] = True
        elif k == total:
            lo[t] = sizes
            hi[t] = sizes
            done[t] = True

    iterations = 0
    max_iterations = 64 + 4 * int(np.ceil(np.log2(max(total, 2)))) * max(1, num_ranks)

    while not done.all():
        iterations += 1
        if iterations > max_iterations + total:
            raise RuntimeError("multisequence selection failed to converge")

        # --- choose pivots (replicated random choice per active rank) -----
        draw_ts: List[int] = []
        bounds: List[int] = []
        for t in range(num_ranks):
            if done[t]:
                continue
            remaining = int((hi[t] - lo[t]).sum())
            if remaining == 0:
                # Window collapsed; the committed left part must match the rank.
                if int(lo[t].sum()) != int(ranks_arr[t]):
                    raise RuntimeError("multiselect window collapsed at wrong rank")
                done[t] = True
                continue
            draw_ts.append(t)
            bounds.append(remaining)
        if not draw_ts:
            continue
        # One vectorised draw for all active ranks of this iteration.
        us = rng.integers(0, np.asarray(bounds, dtype=np.int64))
        pivots = {}
        for t, u in zip(draw_ts, us):
            widths = hi[t] - lo[t]
            u = int(u)
            csum = np.cumsum(widths)
            q = int(np.searchsorted(csum, u, side="right"))
            offset = u - (int(csum[q - 1]) if q > 0 else 0)
            pos = int(lo[t, q] + offset)
            pivots[t] = (runs[q][pos], q, pos)

        # --- local counting: elements <= pivot inside the candidate window --
        counts = np.zeros((num_ranks, p), dtype=np.int64)
        search_ops = np.zeros(p, dtype=np.int64)
        for t, (pv, q, pos) in a_items(pivots):
            for i in range(p):
                lo_i, hi_i = int(lo[t, i]), int(hi[t, i])
                if hi_i <= lo_i:
                    continue
                window = runs[i][lo_i:hi_i]
                if i < q:
                    cnt = int(np.searchsorted(window, pv, side="right"))
                elif i > q:
                    cnt = int(np.searchsorted(window, pv, side="left"))
                else:
                    cnt = pos - lo_i + 1
                counts[t, i] = cnt
                search_ops[i] += 1
        if charge_local:
            comm.charge_local_many(
                [
                    comm.spec.comparison_ns
                    * 1e-9
                    * float(ops)
                    * max(1.0, np.log2(max(int(s), 2)))
                    for ops, s in zip(search_ops, sizes)
                ]
            )

        # --- one vector-valued all-reduce over all active ranks -----------
        totals = comm.allreduce_vec([counts[:, i] for i in range(p)])

        # --- narrow the candidate windows ---------------------------------
        for t, (pv, q, pos) in a_items(pivots):
            target = int(ranks_arr[t] - lo[t].sum())
            got = int(totals[t])
            if got <= target:
                # Everything <= pivot belongs to the left part.
                lo[t] += counts[t]
                if got == target:
                    hi[t] = lo[t]
                    done[t] = True
            else:
                # The left part is strictly inside the counted region; the
                # pivot itself (the largest counted element) is excluded.
                hi[t] = lo[t] + counts[t]
                hi[t, q] -= 1

    splits = lo
    # Sanity: row sums equal requested ranks.
    sums = splits.sum(axis=1)
    if not np.array_equal(sums, ranks_arr):
        raise RuntimeError("multisequence selection produced wrong rank sums")
    return MultiselectResult(splits=splits, iterations=iterations)


def a_items(d):
    """Deterministically ordered ``dict.items()`` (by key)."""
    return sorted(d.items())


def multisequence_select_batched(
    islands,
    local_sorted: DistArray,
    ranks_per_island: Sequence[Sequence[int]],
    rngs: Sequence[np.random.Generator],
    charge_local: bool = True,
) -> List[MultiselectResult]:
    """Run the multisequence selections of many disjoint PE groups in lockstep.

    ``islands`` is a :class:`~repro.sim.groups.GroupBatch`; segment ``i`` of
    ``local_sorted`` belongs to batch PE ``i`` (``islands.members[i]``) and
    is individually sorted.  Island ``k`` selects the target ranks
    ``ranks_per_island[k]`` within its own data using its own replicated
    pivot stream ``rngs[k]`` (one vectorised draw per iteration, exactly as
    :func:`multisequence_select` does on a single communicator).  This is
    the flat engine's only multisequence selection; single-level mergesort
    calls it with a one-island batch.

    Every pivot round advances *all* still-active islands at once: the
    window counting is one segmented two-sided binary search over every open
    ``(island, rank, PE)`` window in the batch, the local search cost is one
    whole-batch charge, and the per-island all-reduce becomes one
    :meth:`~repro.sim.groups.GroupBatch.charge_collective`.  Because the
    islands are disjoint and each consumes only its own RNG stream, every PE
    receives exactly the charge sequence of the island-by-island execution,
    so clocks, breakdowns and split matrices are byte-identical to running
    :func:`multisequence_select` per island.
    """
    machine = islands.machine
    spec = machine.spec
    q_pes = int(islands.members.size)
    n_isl = islands.num_groups
    if local_sorted.p != q_pes:
        raise ValueError("need one sorted segment per batch PE")
    if len(ranks_per_island) != n_isl or len(rngs) != n_isl:
        raise ValueError("need one rank list and one RNG per island")
    values = local_sorted.values
    offsets = local_sorted.offsets
    sizes = local_sorted.sizes()
    if values.size > 1:
        seg = local_sorted.segment_ids()
        interior = seg[1:] == seg[:-1]
        if np.any(values[1:][interior] < values[:-1][interior]):
            raise ValueError("local segments must be individually sorted")

    isl_off = islands.offsets
    p_k = islands.sizes
    isl_total = np.add.reduceat(sizes, isl_off[:-1])

    nr_k = np.array([len(r) for r in ranks_per_island], dtype=np.int64)
    n_rows = int(nr_k.sum())
    row_off = np.zeros(n_isl + 1, dtype=np.int64)
    np.cumsum(nr_k, out=row_off[1:])
    if n_rows:
        ranks_flat = np.concatenate(
            [np.asarray(r, dtype=np.int64).reshape(-1) for r in ranks_per_island]
        )
    else:
        ranks_flat = np.empty(0, dtype=np.int64)
    row_isl = np.repeat(np.arange(n_isl, dtype=np.int64), nr_k)
    if np.any(ranks_flat < 0) or np.any(ranks_flat > isl_total[row_isl]):
        raise ValueError("ranks must lie within each island's element count")
    if n_rows > 1:
        same_isl = row_isl[1:] == row_isl[:-1]
        if np.any((ranks_flat[1:] - ranks_flat[:-1])[same_isl] < 0):
            raise ValueError("ranks must be non-decreasing within each island")

    # Flattened (rank row, PE) candidate windows: row r of island k spans
    # that island's batch PEs; all state lives in flat pair arrays.
    pair_cnt = p_k[row_isl]
    n_pairs = int(pair_cnt.sum())
    pair_off = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(pair_cnt, out=pair_off[1:])
    pair_pe = (
        concat_ranges(isl_off[row_isl], pair_cnt) if n_rows
        else np.empty(0, dtype=np.int64)
    )
    pair_row = np.repeat(np.arange(n_rows, dtype=np.int64), pair_cnt)
    pair_local = np.arange(n_pairs, dtype=np.int64) - pair_off[pair_row]
    pair_size = sizes[pair_pe]
    lo = np.zeros(n_pairs, dtype=np.int64)
    hi = pair_size.copy()
    row_done = np.zeros(n_rows, dtype=bool)

    # Trivial ranks (0 / island total) terminate immediately.
    triv0 = ranks_flat == 0
    trivN = ranks_flat == isl_total[row_isl]
    hi[np.repeat(triv0, pair_cnt)] = 0
    mN = np.repeat(trivN & ~triv0, pair_cnt)
    lo[mN] = pair_size[mN]
    hi[mN] = pair_size[mN]
    row_done |= triv0 | trivN

    iterations = np.zeros(n_isl, dtype=np.int64)
    max_iter = 64 + 4 * np.ceil(
        np.log2(np.maximum(isl_total, 2))
    ).astype(np.int64) * np.maximum(1, nr_k)
    # Round-invariant lookups, hoisted out of the pivot loop.
    pe_isl_map = np.repeat(np.arange(n_isl, dtype=np.int64), p_k)
    log_sizes = np.maximum(1.0, np.log2(np.maximum(sizes, 2)))

    while True:
        live_per_isl = np.bincount(row_isl[~row_done], minlength=n_isl)
        active_isl = np.flatnonzero(live_per_isl > 0)
        if active_isl.size == 0:
            break
        iterations[active_isl] += 1
        if np.any(iterations[active_isl] > (max_iter + isl_total)[active_isl]):
            raise RuntimeError("multisequence selection failed to converge")

        widths = hi - lo
        row_rem = np.add.reduceat(widths, pair_off[:-1])
        live = ~row_done
        collapsed = live & (row_rem == 0)
        if collapsed.any():
            lo_sum = np.add.reduceat(lo, pair_off[:-1])
            if np.any(lo_sum[collapsed] != ranks_flat[collapsed]):
                raise RuntimeError("multiselect window collapsed at wrong rank")
            row_done[collapsed] = True
        drawing = live & (row_rem > 0)
        draw_rows = np.flatnonzero(drawing)
        if draw_rows.size == 0:
            continue

        # --- pivot draws: one vectorised call per island, islands in order
        # (rows are laid out island-major, so each drawing island is one
        # contiguous slice — no per-island masks).
        us = np.empty(draw_rows.size, dtype=np.int64)
        d_isl = row_isl[draw_rows]
        d_vals = row_rem[draw_rows]
        d_bnd = np.flatnonzero(d_isl[1:] != d_isl[:-1]) + 1
        d_starts = np.concatenate([[0], d_bnd])
        d_ends = np.concatenate([d_bnd, [d_isl.size]])
        for a, b in zip(d_starts.tolist(), d_ends.tolist()):
            us[a:b] = rngs[int(d_isl[a])].integers(0, d_vals[a:b])

        # --- locate the pivots: segmented cumsum + segmented search -------
        csum = np.cumsum(widths)
        row_base = csum[pair_off[:-1]] - widths[pair_off[:-1]]
        seg_csum = csum - np.repeat(row_base, pair_cnt)
        q_local = segmented_searchsorted(seg_csum, pair_off, us, draw_rows, side="right")
        q_pair = pair_off[draw_rows] + q_local
        prev = np.where(q_local > 0, seg_csum[q_pair - 1], 0)
        pos_row = lo[q_pair] + (us - prev)
        owner_pe = pair_pe[q_pair]
        pv_row = values[offsets[owner_pe] + pos_row]

        # --- segmented two-sided window counting --------------------------
        cnt = np.zeros(n_pairs, dtype=np.int64)
        draw_idx_of_row = np.full(n_rows, -1, dtype=np.int64)
        draw_idx_of_row[draw_rows] = np.arange(draw_rows.size, dtype=np.int64)
        open_mask = np.repeat(drawing, pair_cnt) & (hi > lo)
        op = np.flatnonzero(open_mask)
        if op.size:
            di = draw_idx_of_row[pair_row[op]]
            pos_in_seg = segmented_searchsorted(
                values,
                offsets,
                pv_row[di],
                pair_pe[op],
                side=pair_local[op] < q_local[di],
                lo=lo[op],
                hi=hi[op],
            )
            cnt[op] = pos_in_seg - lo[op]
        # The owner counts by pivot *position* (implicit (value, PE, pos)
        # key) — exact with duplicate runs spanning PE boundaries.
        cnt[q_pair] = pos_row - lo[q_pair] + 1

        # --- local binary-search charge for every island that drew --------
        charged_isl = d_isl[d_starts]  # sorted unique (rows island-major)
        if charge_local:
            ops = np.bincount(pair_pe[op], minlength=q_pes) if op.size else \
                np.zeros(q_pes, dtype=np.int64)
            drawn = np.zeros(n_isl, dtype=bool)
            drawn[charged_isl] = True
            charged = drawn[pe_isl_map]
            times = spec.comparison_ns * 1e-9 * ops * log_sizes
            machine.advance_many(islands.members[charged], times[charged])

        # --- one vector all-reduce per drawing island ---------------------
        islands.select(charged_isl).charge_collective(nr_k[charged_isl])

        # --- narrow the candidate windows ---------------------------------
        row_cnt = np.add.reduceat(cnt, pair_off[:-1])
        lo_sum = np.add.reduceat(lo, pair_off[:-1])
        got = row_cnt[draw_rows]
        target = ranks_flat[draw_rows] - lo_sum[draw_rows]
        le = got <= target
        row_le = np.zeros(n_rows, dtype=bool)
        row_le[draw_rows] = le
        row_eq = np.zeros(n_rows, dtype=bool)
        row_eq[draw_rows] = got == target
        row_gt = np.zeros(n_rows, dtype=bool)
        row_gt[draw_rows] = ~le
        le_pairs = np.repeat(row_le, pair_cnt)
        lo = np.where(le_pairs, lo + cnt, lo)
        hi = np.where(np.repeat(row_eq, pair_cnt), lo, hi)
        row_done |= row_eq
        gt_pairs = np.repeat(row_gt, pair_cnt)
        hi = np.where(gt_pairs, lo + cnt, hi)
        hi[q_pair[~le]] -= 1

    if n_rows:
        row_sum = np.add.reduceat(lo, pair_off[:-1])
        if not np.array_equal(row_sum, ranks_flat):
            raise RuntimeError("multisequence selection produced wrong rank sums")
    results: List[MultiselectResult] = []
    for k in range(n_isl):
        pairs_lo = int(pair_off[row_off[k]])
        pairs_hi = int(pair_off[row_off[k + 1]])
        spl = lo[pairs_lo:pairs_hi].reshape(int(nr_k[k]), int(p_k[k]))
        results.append(
            MultiselectResult(splits=spl.copy(), iterations=int(iterations[k]))
        )
    return results
