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

Pivot randomness: the pivot of rank row ``t`` in pivot round ``k`` of the
group whose first PE is ``i`` at recursion level ``l`` is word
``k << 32 | t`` of stream ``(l, i)`` of the machine's counter-based
``pivot_rng``.  Every member draws it without communicating (replicated
randomness), and no group's draws depend on another's or on earlier calls,
so :func:`multisequence_select`, which draws all rank rows' pivots of a
round in one call, and the lockstep :func:`multisequence_select_batched`,
which draws all islands' pivots of a round in one call, draw the same
pivots by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.dist.array import DistArray
from repro.dist.flatops import concat_ranges, segmented_searchsorted


def _draw_pivots(machine, level, root_pe, rounds, rows, bounds) -> np.ndarray:
    """Pivot offsets in ``[0, bounds)``: word ``rounds << 32 | rows`` of the
    machine's pivot stream ``(level, root_pe)``.  The arguments broadcast."""
    index = (np.asarray(rounds, dtype=np.int64) << 32) + rows
    return machine.pivot_rng.integers(level, root_pe, index, bounds)


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
    level: int = 0,
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
    level:
        Recursion level of the selection (a key of the pivot draws).
    """
    p = comm.size
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
        # A live rank whose windows collapsed is done; the committed left
        # part must match the rank.  Every other live rank draws, all of
        # them in one counter call.
        remaining = (hi - lo).sum(axis=1)
        collapsed = ~done & (remaining == 0)
        if np.any(lo[collapsed].sum(axis=1) != ranks_arr[collapsed]):
            raise RuntimeError("multiselect window collapsed at wrong rank")
        done |= collapsed
        rows = np.flatnonzero(~done)
        if rows.size == 0:
            continue
        us = _draw_pivots(
            comm.machine, level, comm.global_pe(0), iterations, rows,
            remaining[rows],
        )
        pivots = {}
        for t, u in zip(rows.tolist(), us.tolist()):
            csum = np.cumsum(hi[t] - lo[t])
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
    level: int = 0,
) -> List[MultiselectResult]:
    """Run the multisequence selections of many disjoint PE groups in lockstep.

    ``islands`` is a :class:`~repro.sim.groups.GroupBatch`; segment ``i`` of
    ``local_sorted`` belongs to batch PE ``i`` (``islands.members[i]``) and
    is individually sorted.  Island ``k`` selects the target ranks
    ``ranks_per_island[k]`` within its own data, drawing the pivots that
    :func:`multisequence_select` draws on the island's communicator at
    recursion level ``level``.  This is the flat engine's only
    multisequence selection; single-level mergesort reaches it through
    RLM-sort's level, with a one-island batch.

    Every pivot round advances *all* still-active islands at once: the
    window counting is one segmented two-sided binary search over every open
    ``(island, rank, PE)`` window in the batch, the local search cost is one
    whole-batch charge, and the per-island all-reduce becomes one
    :meth:`~repro.sim.groups.GroupBatch.charge_collective`, and one counter
    call draws every island's pivots.  Because the islands are disjoint and
    each island's draws are keyed by its own root PE, every PE
    receives exactly the charge sequence of the island-by-island execution,
    so clocks, breakdowns and split matrices are byte-identical to running
    :func:`multisequence_select` per island.

    The pivot loop carries only the *open* windows (``lo < hi``).  A closed
    window never changes again: it counts 0 elements, so every later round
    keeps its ``lo`` and sets ``hi = lo``.  Its ``lo`` is therefore final
    the moment it closes and goes straight into the split matrix.  Every
    open window belongs to a row that draws in the current round (a done
    row has all its windows closed; a live row with none open collapses at
    the round's check), so the open windows, kept in (row, PE) order, are
    exactly the drawing rows' candidates, and one prefix sum over their
    widths locates every pivot's owner.
    """
    machine = islands.machine
    spec = machine.spec
    q_pes = int(islands.members.size)
    n_isl = islands.num_groups
    if local_sorted.p != q_pes:
        raise ValueError("need one sorted segment per batch PE")
    if len(ranks_per_island) != n_isl:
        raise ValueError("need one rank list per island")
    values = local_sorted.values
    offsets = local_sorted.offsets
    sizes = local_sorted.sizes()
    # Sorted segments descend only where a new segment starts.
    descents = np.flatnonzero(values[1:] < values[:-1]) + 1
    if not np.isin(descents, offsets).all():
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

    # Flattened (rank row, PE) split positions: row r of island k spans
    # that island's batch PEs.  Trivial ranks (0 / island total) are final
    # at once.
    pair_cnt = p_k[row_isl]
    pair_off = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(pair_cnt, out=pair_off[1:])
    pair_pe = (
        concat_ranges(isl_off[row_isl], pair_cnt) if n_rows
        else np.empty(0, dtype=np.int64)
    )
    pair_size = sizes[pair_pe]
    trivN = ranks_flat == isl_total[row_isl]
    row_done = (ranks_flat == 0) | trivN
    splits = np.where(np.repeat(trivN, pair_cnt), pair_size, 0)
    # Committed left-part size per row (the sum of its windows' ``lo``).
    lo_sum = np.where(trivN, ranks_flat, 0)

    # The open candidate windows [o_lo, o_hi) in (row, PE) order, with
    # their batch PE, rank row and slot in the split array.
    o_pair = np.flatnonzero(np.repeat(~row_done, pair_cnt) & (pair_size > 0))
    o_lo = np.zeros(o_pair.size, dtype=np.int64)
    o_hi = pair_size[o_pair]
    o_pe = pair_pe[o_pair]
    o_row = np.repeat(np.arange(n_rows, dtype=np.int64), pair_cnt)[o_pair]

    iterations = np.zeros(n_isl, dtype=np.int64)
    max_iter = 64 + 4 * np.ceil(
        np.log2(np.maximum(isl_total, 2))
    ).astype(np.int64) * np.maximum(1, nr_k)
    # Round-invariant lookups, hoisted out of the pivot loop.
    pe_isl_map = np.repeat(np.arange(n_isl, dtype=np.int64), p_k)
    isl_root = islands.members[isl_off[:-1]]
    log_sizes = np.maximum(1.0, np.log2(np.maximum(sizes, 2)))

    while True:
        live = ~row_done
        active_isl = np.flatnonzero(np.bincount(row_isl[live], minlength=n_isl))
        if active_isl.size == 0:
            break
        iterations[active_isl] += 1
        if np.any(iterations[active_isl] > (max_iter + isl_total)[active_isl]):
            raise RuntimeError("multisequence selection failed to converge")

        # Rows with an open window draw; live rows without one collapse.
        n_open = int(o_row.size)
        row_first = np.flatnonzero(np.diff(o_row, prepend=-1))
        draw_rows = o_row[row_first]
        collapsed = live.copy()
        collapsed[draw_rows] = False
        if collapsed.any():
            if np.any(lo_sum[collapsed] != ranks_flat[collapsed]):
                raise RuntimeError("multiselect window collapsed at wrong rank")
            row_done[collapsed] = True
        if n_open == 0:
            continue
        widths = o_hi - o_lo
        csum = np.cumsum(widths)
        row_rem = np.add.reduceat(widths, row_first)

        # --- pivot draws of every drawing row in one counter call -------
        d_isl = row_isl[draw_rows]
        us = _draw_pivots(
            machine, level, isl_root[d_isl], iterations[d_isl],
            draw_rows - row_off[d_isl], row_rem,
        )

        # --- locate the pivots: element u of a row is element row start + u
        # of all open windows; u < row_rem keeps it inside the row ----------
        row_end = np.append(row_first[1:], n_open)
        u_all = csum[row_end - 1] - row_rem + us
        q = np.searchsorted(csum, u_all, side="right")
        pos_row = o_lo[q] + (u_all - (csum[q] - widths[q]))
        pv_row = values[offsets[o_pe[q]] + pos_row]

        # --- segmented two-sided window counting --------------------------
        di = np.repeat(
            np.arange(draw_rows.size, dtype=np.int64), row_end - row_first
        )
        cnt = segmented_searchsorted(
            values,
            offsets,
            pv_row[di],
            o_pe,
            side=np.arange(n_open) < q[di],
            lo=o_lo,
            hi=o_hi,
        ) - o_lo
        # The owner counts by pivot *position* (implicit (value, PE, pos)
        # key) — exact with duplicate runs spanning PE boundaries.
        cnt[q] = pos_row - o_lo[q] + 1

        # --- local binary-search charge for every island that drew --------
        # (rows are laid out island-major, so d_isl is sorted)
        charged_isl = d_isl[np.flatnonzero(np.diff(d_isl, prepend=-1))]
        ops = np.bincount(o_pe, minlength=q_pes)
        drawn = np.zeros(n_isl, dtype=bool)
        drawn[charged_isl] = True
        charged = drawn[pe_isl_map]
        times = spec.comparison_ns * 1e-9 * ops * log_sizes
        machine.advance_many(islands.members[charged], times[charged])

        # --- one vector all-reduce per drawing island ---------------------
        batch = islands if charged_isl.size == n_isl else \
            islands.select(charged_isl)
        batch.charge_collective(nr_k[charged_isl])

        # --- narrow the candidate windows ---------------------------------
        got = np.add.reduceat(cnt, row_first)
        target = ranks_flat[draw_rows] - lo_sum[draw_rows]
        le = got <= target
        eq = got == target
        lo_sum[draw_rows[le]] += got[le]
        row_done[draw_rows[eq]] = True
        # <= target: everything counted joins the left part (and an exact
        # hit closes the row); > target: the left part lies strictly inside
        # the counted region, without the pivot itself.
        le_w = le[di]
        counted_end = o_lo + cnt
        o_lo = np.where(le_w, counted_end, o_lo)
        o_hi = np.where(le_w, o_hi, counted_end)
        o_hi[q[~le]] -= 1
        closed = (o_hi == o_lo) | eq[di]
        if closed.any():
            splits[o_pair[closed]] = o_lo[closed]
            keep = ~closed
            o_lo, o_hi, o_pe, o_row, o_pair = (
                o_lo[keep], o_hi[keep], o_pe[keep], o_row[keep], o_pair[keep]
            )

    if n_rows:
        row_sum = np.add.reduceat(splits, pair_off[:-1])
        if not np.array_equal(row_sum, ranks_flat):
            raise RuntimeError("multisequence selection produced wrong rank sums")
    results: List[MultiselectResult] = []
    for k in range(n_isl):
        pairs_lo = int(pair_off[row_off[k]])
        pairs_hi = int(pair_off[row_off[k + 1]])
        spl = splits[pairs_lo:pairs_hi].reshape(int(nr_k[k]), int(p_k[k]))
        results.append(
            MultiselectResult(splits=spl.copy(), iterations=int(iterations[k]))
        )
    return results
