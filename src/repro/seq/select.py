"""Selection and splitting of sorted runs at prescribed global ranks.

This is the sequential core of *multisequence selection* (Section 4.1): given
sorted sequences ``d_1, ..., d_m`` and a rank ``k``, find split positions
``j_1, ..., j_m`` such that exactly ``k`` elements lie to the left of the
splits and no element left of a split exceeds any element right of a split.
The distributed version in :mod:`repro.blocks.multiselect` performs the same
search with collectives; the functions here are the exact sequential
reference its tests compare it with, and
:func:`split_positions_are_consistent` checks the second condition.

Duplicate keys are handled without explicit tie breaking: when several runs
hold elements equal to the splitting value, the surplus is distributed over
the runs from left to right (equivalent to breaking ties by the run index,
the ``(x, PE, position)`` scheme of Appendix D).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def split_sorted_runs_at_ranks(
    runs: Sequence[np.ndarray], ranks: Sequence[int]
) -> np.ndarray:
    """Split positions of each run for each requested global rank.

    Parameters
    ----------
    runs:
        Individually sorted one-dimensional arrays.
    ranks:
        Non-decreasing global ranks ``0 <= k <= N`` (``N`` = total size).
        Rank ``k`` means "exactly ``k`` elements lie strictly to the left of
        the split".

    Returns
    -------
    numpy.ndarray
        Matrix ``S`` of shape ``(len(ranks), len(runs))`` where ``S[t, i]``
        is the number of elements of run ``i`` belonging to the left part for
        rank ``ranks[t]``.  For every ``t``: ``S[t].sum() == ranks[t]``, and
        the induced split is consistent (every element left of a split is
        ``<=`` every element right of a split).
    """
    runs = [np.asarray(r) for r in runs]
    for i, r in enumerate(runs):
        if r.ndim != 1:
            raise ValueError(f"run {i} is not one-dimensional")
        if r.size > 1 and np.any(r[1:] < r[:-1]):
            raise ValueError(f"run {i} is not sorted")
    sizes = np.array([r.size for r in runs], dtype=np.int64)
    total = int(sizes.sum())
    ranks = np.asarray(ranks, dtype=np.int64)
    if np.any(ranks < 0) or np.any(ranks > total):
        raise ValueError(f"ranks must lie in 0..{total}")
    if ranks.size > 1 and np.any(np.diff(ranks) < 0):
        raise ValueError("ranks must be non-decreasing")

    result = np.zeros((ranks.size, len(runs)), dtype=np.int64)
    if total == 0 or ranks.size == 0:
        return result

    union = np.sort(np.concatenate([r for r in runs if r.size > 0]), kind="stable")
    for t, k in enumerate(ranks):
        if k == 0:
            continue
        if k == total:
            result[t, :] = sizes
            continue
        pivot = union[k - 1]  # largest value in the left part
        # Take all elements strictly smaller than the pivot ...
        lower = np.array(
            [np.searchsorted(r, pivot, side="left") for r in runs], dtype=np.int64
        )
        upper = np.array(
            [np.searchsorted(r, pivot, side="right") for r in runs], dtype=np.int64
        )
        take = lower.copy()
        deficit = int(k - lower.sum())
        # ... then distribute the remaining slots over the runs holding
        # elements equal to the pivot, from left to right (tie breaking by
        # run index).
        if deficit < 0:
            raise AssertionError("rank bookkeeping error in split_sorted_runs_at_ranks")
        for i in range(len(runs)):
            if deficit == 0:
                break
            avail = int(upper[i] - lower[i])
            grab = min(avail, deficit)
            take[i] += grab
            deficit -= grab
        if deficit != 0:
            raise AssertionError("could not satisfy requested rank; input runs unsorted?")
        result[t] = take
    return result


def select_from_sorted_runs(runs: Sequence[np.ndarray], k: int) -> float:
    """Element of global rank ``k`` (0-based) in the union of sorted runs."""
    runs = [np.asarray(r) for r in runs]
    total = int(sum(r.size for r in runs))
    if not 0 <= k < total:
        raise IndexError(f"rank {k} out of range for {total} elements")
    splits = split_sorted_runs_at_ranks(runs, [k + 1])[0]
    # The selected element is the maximum of the last elements of the left parts.
    best = None
    for r, j in zip(runs, splits):
        if j > 0:
            candidate = r[j - 1]
            if best is None or candidate > best:
                best = candidate
    assert best is not None
    return best


def split_positions_are_consistent(
    runs: Sequence[np.ndarray], splits: Sequence[int]
) -> bool:
    """Check that a split of sorted runs is order-consistent.

    Every element in a left part must be ``<=`` every element in a right
    part.  The multisequence selection tests check every split with it.
    """
    runs = [np.asarray(r) for r in runs]
    splits = [int(s) for s in splits]
    left_max = None
    right_min = None
    for r, j in zip(runs, splits):
        if j > 0:
            m = r[j - 1]
            left_max = m if left_max is None else max(left_max, m)
        if j < r.size:
            m = r[j]
            right_min = m if right_min is None else min(right_min, m)
    if left_max is None or right_min is None:
        return True
    return bool(left_max <= right_min)
