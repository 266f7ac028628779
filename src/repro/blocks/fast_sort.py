"""Fast work-inefficient sorting on an ``a x b`` PE grid (Section 4.2).

This algorithm sorts a *small* input (in our use: the splitter sample of
AMS-sort) in logarithmic time at the price of work inefficiency:

1. the PEs are arranged as an ``a x b`` grid with ``a, b = O(sqrt(p))``,
2. every PE sorts its local elements,
3. the locally sorted runs are gossiped (all-gathered with merging) along
   both the rows and the columns of the grid (Figure 1),
4. PE ``(i, j)`` ranks the elements received from column ``j`` with respect
   to the elements received from row ``i`` (a merge of two sorted
   sequences),
5. summing these partial ranks over the rows of a column yields the global
   rank of every element, from which elements of prescribed ranks (the
   splitters) can be extracted.

Total time ``O(alpha log p + beta n / sqrt(p) + n/p log(n/p))``
(Equation (2)).

Duplicate keys are handled by carrying a unique element id alongside every
value and ranking by the composite ``(value, id)`` key, so the computed
global ranks are always a permutation of ``0 .. n - 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.machine.counters import PHASE_SPLITTER_SELECTION


@dataclass
class GridShape:
    """Shape of the PE grid used by the fast work-inefficient sort."""

    rows: int
    cols: int

    @property
    def size(self) -> int:
        return self.rows * self.cols


def grid_shape(p: int) -> GridShape:
    """Choose an ``a x b`` grid with ``a * b <= p`` and ``a, b = O(sqrt(p))``.

    For ``p`` a power of two this returns ``2^ceil(log2(p)/2) x 2^floor(...)``
    exactly as in the paper; otherwise the largest near-square grid that fits
    into ``p`` PEs is used and the remaining PEs only contribute their data.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    if p & (p - 1) == 0:  # power of two
        logp = int(math.log2(p))
        rows = 1 << ((logp + 1) // 2)
        cols = 1 << (logp // 2)
        return GridShape(rows=rows, cols=cols)
    rows = int(math.floor(math.sqrt(p)))
    rows = max(1, rows)
    cols = max(1, p // rows)
    while rows * cols > p:
        cols -= 1
    return GridShape(rows=rows, cols=cols)


def _rank_against(row_vals: np.ndarray, row_ids: np.ndarray,
                  col_vals: np.ndarray, col_ids: np.ndarray) -> np.ndarray:
    """Rank every (col value, id) pair with respect to the row pairs.

    Composite ordering ``(value, id)``; returns, for every column element,
    the number of row elements strictly smaller under that ordering.
    """
    if col_vals.size == 0:
        return np.zeros(0, dtype=np.int64)
    if row_vals.size == 0:
        return np.zeros(col_vals.size, dtype=np.int64)
    below = np.searchsorted(row_vals, col_vals, side="left")
    upto = np.searchsorted(row_vals, col_vals, side="right")
    ranks = below.astype(np.int64)
    # Among equal values, count row elements with a smaller id.
    ties = np.flatnonzero(upto > below)
    for t in ties:
        lo, hi = int(below[t]), int(upto[t])
        ranks[t] += int(np.count_nonzero(row_ids[lo:hi] < col_ids[t]))
    return ranks


def fast_work_inefficient_sort(
    comm,
    local_values: Sequence[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, List[np.ndarray], List[np.ndarray]]:
    """Compute global ranks of a small distributed input on a PE grid.

    The modelled time goes to the splitter-selection phase.

    Parameters
    ----------
    comm:
        Communicator of ``p`` PEs.
    local_values:
        One array per member PE (the sample contributed by that PE).

    Returns
    -------
    (sorted_values, sorted_ids, per_pe_values, per_pe_ranks)
        ``sorted_values`` is the globally sorted sample (replicated view),
        ``sorted_ids`` the corresponding unique element ids,
        ``per_pe_values``/``per_pe_ranks`` give, for every contributing PE,
        its own elements and their global ranks.
    """
    p = comm.size
    if len(local_values) != p:
        raise ValueError("need one sample array per member PE")
    arrays = [np.asarray(a) for a in local_values]
    sizes = np.array([a.size for a in arrays], dtype=np.int64)
    total = int(sizes.sum())
    offsets = np.zeros(p, dtype=np.int64)
    if p > 1:
        offsets[1:] = np.cumsum(sizes)[:-1]

    with comm.phase(PHASE_SPLITTER_SELECTION):
        # Local sort of the sample; carry unique ids so ranks are exact.
        ids = [offsets[i] + np.arange(sizes[i], dtype=np.int64) for i in range(p)]
        values_sorted: List[np.ndarray] = []
        ids_sorted: List[np.ndarray] = []
        for i in range(p):
            order = np.lexsort((ids[i], arrays[i]))
            values_sorted.append(arrays[i][order])
            ids_sorted.append(ids[i][order])
        comm.charge_sort(sizes)

        shape = grid_shape(p)
        rows, cols = shape.rows, shape.cols

        if total == 0:
            empty_v = np.empty(0, dtype=arrays[0].dtype if arrays else np.float64)
            empty_i = np.empty(0, dtype=np.int64)
            return empty_v, empty_i, [a.copy() for a in arrays], [np.empty(0, np.int64) for _ in range(p)]

        if p == 1:
            return (
                values_sorted[0].copy(),
                ids_sorted[0].copy(),
                [values_sorted[0].copy()],
                [np.arange(total, dtype=np.int64)],
            )

        # PEs outside the grid hand their sample to a grid PE first
        # (their rank modulo the grid size); this is a tiny exchange.
        grid_p = shape.size
        if grid_p < p:
            outboxes: List[List[Tuple[int, np.ndarray]]] = [[] for _ in range(p)]
            id_outboxes: List[List[Tuple[int, np.ndarray]]] = [[] for _ in range(p)]
            for i in range(grid_p, p):
                dest = i % grid_p
                outboxes[i].append((dest, values_sorted[i]))
                id_outboxes[i].append((dest, ids_sorted[i]))
            res_v = comm.exchange(outboxes, charge_copy=False)
            res_i = comm.exchange(id_outboxes, charge_copy=False)
            merged_vals: List[np.ndarray] = []
            merged_ids: List[np.ndarray] = []
            for i in range(grid_p):
                extra_v = [payload for _, payload in res_v.inboxes[i]]
                extra_i = [payload for _, payload in res_i.inboxes[i]]
                vv = np.concatenate([values_sorted[i]] + extra_v) if extra_v else values_sorted[i]
                ii = np.concatenate([ids_sorted[i]] + extra_i) if extra_i else ids_sorted[i]
                order = np.lexsort((ii, vv))
                merged_vals.append(vv[order])
                merged_ids.append(ii[order])
            grid_vals = merged_vals
            grid_ids = merged_ids
        else:
            grid_vals = values_sorted[:grid_p]
            grid_ids = ids_sorted[:grid_p]

        # Gossip along rows and columns (allgather with merging).
        row_vals: List[np.ndarray] = [None] * grid_p  # type: ignore[list-item]
        row_ids: List[np.ndarray] = [None] * grid_p  # type: ignore[list-item]
        col_vals: List[np.ndarray] = [None] * grid_p  # type: ignore[list-item]
        col_ids: List[np.ndarray] = [None] * grid_p  # type: ignore[list-item]

        def gather_group(member_ranks: List[int]) -> Tuple[np.ndarray, np.ndarray]:
            vals = np.concatenate([grid_vals[m] for m in member_ranks])
            idv = np.concatenate([grid_ids[m] for m in member_ranks])
            order = np.lexsort((idv, vals))
            return vals[order], idv[order]

        # Row gossip: PEs i*cols .. i*cols + cols - 1.
        for ri in range(rows):
            member_ranks = [ri * cols + c for c in range(cols)]
            sub = comm.machine.comm([comm.global_pe(m) for m in member_ranks])
            vals, idv = gather_group(member_ranks)
            sub.allgather_arrays([grid_vals[m] for m in member_ranks], merge_sorted=False)
            for m in member_ranks:
                row_vals[m], row_ids[m] = vals, idv
        # Column gossip: PEs c, c + cols, c + 2*cols, ...
        for cj in range(cols):
            member_ranks = [r * cols + cj for r in range(rows)]
            sub = comm.machine.comm([comm.global_pe(m) for m in member_ranks])
            vals, idv = gather_group(member_ranks)
            sub.allgather_arrays([grid_vals[m] for m in member_ranks], merge_sorted=False)
            for m in member_ranks:
                col_vals[m], col_ids[m] = vals, idv

        # Local ranking of the column elements against the row elements.
        partial_ranks: List[np.ndarray] = []
        merge_sizes = []
        for m in range(grid_p):
            pr = _rank_against(row_vals[m], row_ids[m], col_vals[m], col_ids[m])
            partial_ranks.append(pr)
            merge_sizes.append(row_vals[m].size + col_vals[m].size)
        comm.charge_merge(
            merge_sizes + [0] * (p - grid_p), 2
        )

        # Sum the partial ranks along every column to obtain global ranks.
        col_global_ranks: dict[int, np.ndarray] = {}
        for cj in range(cols):
            member_ranks = [r * cols + cj for r in range(rows)]
            sub = comm.machine.comm([comm.global_pe(m) for m in member_ranks])
            summed = sub.allreduce_vec([partial_ranks[m] for m in member_ranks])
            col_global_ranks[cj] = summed

        # Assemble the globally sorted sample (replicated result).
        all_vals = np.concatenate([col_vals[cj] for cj in range(cols)])
        all_ids = np.concatenate([col_ids[cj] for cj in range(cols)])
        all_ranks = np.concatenate([col_global_ranks[cj] for cj in range(cols)])
        order = np.argsort(all_ranks, kind="stable")
        sorted_values = all_vals[order]
        sorted_ids = all_ids[order]

        # Per-PE view: global ranks of the elements each PE contributed.
        rank_by_id = np.empty(total, dtype=np.int64)
        rank_by_id[all_ids] = all_ranks
        per_pe_values = [arrays[i].copy() for i in range(p)]
        per_pe_ranks = [rank_by_id[ids[i]] for i in range(p)]

    return sorted_values, sorted_ids, per_pe_values, per_pe_ranks


def select_splitters_by_rank(
    comm,
    local_values: Sequence[np.ndarray],
    num_splitters: int,
) -> np.ndarray:
    """Sort a distributed sample and return ``num_splitters`` equidistant splitters.

    The splitters are broadcast to (i.e. returned for) every PE; the modelled
    cost of the sort and the broadcast goes to the splitter-selection phase.
    """
    sorted_values, _, _, _ = fast_work_inefficient_sort(comm, local_values)
    total = int(sorted_values.size)
    if num_splitters <= 0 or total == 0:
        return sorted_values[:0].copy()
    ranks = ((np.arange(1, num_splitters + 1) * total) // (num_splitters + 1))
    ranks = np.clip(ranks, 0, total - 1)
    splitters = sorted_values[ranks]
    with comm.phase(PHASE_SPLITTER_SELECTION):
        comm.bcast(splitters, root=0, words=int(splitters.size))
    return splitters
