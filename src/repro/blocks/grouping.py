"""Assigning consecutive buckets to PE groups (Section 6, Lemma 1, Appendix C).

After partitioning with ``b*r - 1`` splitters, AMS-sort knows the global size
of each of the ``b*r`` buckets.  It must assign *consecutive ranges* of
buckets to the ``r`` PE groups such that the maximum group load ``L`` is
minimised — a constrained bin-packing problem.  The paper solves it with

* a greedy **scanning algorithm** that, for a given bound ``L``, walks the
  bucket-size array and opens a new group whenever adding the next bucket
  would exceed ``L`` (it succeeds iff at most ``r`` groups are needed), and
* a search for the optimal ``L``:

  - plain binary search over the value range (``O(b r log n)``),
  - the accelerated search of Appendix C that tightens the bounds using the
    group sizes actually observed during scans.

Lemma 1 proves the scanning algorithm finds the optimal ``L``; the
test-suite verifies this against a brute-force dynamic program.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.dist.flatops import _windowed_bisect, concat_ranges


@dataclass
class GroupingResult:
    """Result of a bucket-grouping computation.

    Attributes
    ----------
    boundaries:
        Bucket index boundaries: group ``g`` receives buckets
        ``boundaries[g] .. boundaries[g+1] - 1``.  ``len(boundaries) ==
        num_groups + 1``; trailing groups may be empty.
    bound:
        The load bound ``L`` for which the scan succeeded (maximum group
        load is ``<= bound``).
    group_loads:
        Total number of elements assigned to each group.
    scan_calls:
        Number of scanning passes performed while searching for the optimal
        ``L`` (reported so the Appendix C accelerations are observable).
    """

    boundaries: np.ndarray
    bound: int
    group_loads: np.ndarray
    scan_calls: int

    @property
    def max_load(self) -> int:
        """The realised maximum group load."""
        return int(self.group_loads.max(initial=0))


def scan_buckets_with_bound(
    bucket_sizes: Sequence[int], num_groups: int, bound: int
) -> Optional[np.ndarray]:
    """Greedy scan: pack buckets into at most ``num_groups`` groups of load ``<= bound``.

    Returns the boundaries array on success and ``None`` when the bound is
    infeasible.  A single bucket larger than ``bound`` always fails.

    Each group is found with one binary search over the prefix sums (the
    group ends before the first bucket that would push it past ``bound``),
    so a scan costs ``O(r log(br))`` instead of ``O(br)`` bucket steps.
    """
    sizes = np.asarray(bucket_sizes, dtype=np.int64)
    if num_groups <= 0:
        raise ValueError("need at least one group")
    if bound < 0:
        return None
    m = int(sizes.size)
    csum = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(sizes, out=csum[1:])
    # The prefix sums are probed one point at a time; bisect on a plain
    # list is identical to ``np.searchsorted(..., side="right")`` and much
    # faster at these sizes (this is uncharged simulator bookkeeping).
    clist = csum.tolist()
    boundaries = [0]
    start = 0
    while start < m:
        end = bisect_right(clist, clist[start] + bound) - 1
        if end <= start:
            return None  # bucket `start` alone exceeds the bound
        if end >= m:
            break
        boundaries.append(end)
        if len(boundaries) - 1 >= num_groups:
            return None
        start = end
    while len(boundaries) < num_groups + 1:
        boundaries.append(m)
    return np.asarray(boundaries, dtype=np.int64)


def group_sizes_from_boundaries(
    bucket_sizes: Sequence[int], boundaries: Sequence[int]
) -> np.ndarray:
    """Total load of every group for given bucket boundaries."""
    sizes = np.asarray(bucket_sizes, dtype=np.int64)
    bnd = np.asarray(boundaries, dtype=np.int64)
    csum = np.concatenate([[0], np.cumsum(sizes)])
    return (csum[bnd[1:]] - csum[bnd[:-1]]).astype(np.int64)


def _scan_observing(
    sizes: np.ndarray, num_groups: int, bound: int,
    clist: Optional[List[int]] = None,
) -> Tuple[Optional[np.ndarray], int, int]:
    """Scan that also reports the Appendix C bound-update values.

    Returns ``(boundaries or None, largest_group, min_overflow)`` where
    ``largest_group`` is the largest group actually built (valid on success;
    it allows lowering the upper bound of the search) and ``min_overflow`` is
    the smallest value ``x + y`` observed when a bucket of size ``y`` did not
    fit on top of a group of size ``x`` (valid on failure; any bound below it
    reproduces the same failed partition, so it becomes the new lower bound).

    ``clist`` optionally supplies the bucket-size prefix sums (as a plain
    list), so the bound search does not recompute them on every probe.
    """
    m = int(sizes.size)
    if clist is None:
        csum = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(sizes, out=csum[1:])
        clist = csum.tolist()
    boundaries = [0]
    largest = 0
    min_overflow = np.iinfo(np.int64).max
    feasible = True
    start = 0
    # Jump scan: each group ends right before the first bucket that would
    # push it past the bound (one binary search over the prefix sums).  The
    # observed values match the sequential bucket-by-bucket walk: group
    # loads are the same, and the overflow recorded when a bucket does not
    # fit (`load + s`) or is too big by itself (`s`) yields the same
    # minimum because `s <= load + s`.
    while start < m:
        end = bisect_right(clist, clist[start] + bound) - 1
        load = clist[end] - clist[start]
        if end >= m:
            largest = max(largest, load)
            break
        overflow = clist[end + 1] - clist[start]
        if int(sizes[end]) > bound:
            # The non-fitting bucket is too big for any group: the
            # sequential scan stops here without closing the current group.
            feasible = False
            largest = max(largest, load)
            min_overflow = min(min_overflow, int(sizes[end]))
            break
        min_overflow = min(min_overflow, overflow)
        boundaries.append(end)
        largest = max(largest, load)
        if len(boundaries) - 1 >= num_groups:
            feasible = False
            break
        start = end
    if not feasible:
        return None, largest, int(min_overflow)
    while len(boundaries) < num_groups + 1:
        boundaries.append(m)
    return np.asarray(boundaries, dtype=np.int64), largest, int(min_overflow)


def optimal_bucket_grouping(
    bucket_sizes: Sequence[int],
    num_groups: int,
    method: str = "accelerated",
) -> GroupingResult:
    """Find the minimal load bound ``L`` and the corresponding grouping.

    Parameters
    ----------
    bucket_sizes:
        Global sizes of the ``b*r`` buckets.
    num_groups:
        Number of PE groups ``r``.
    method:
        ``'binary'`` — plain binary search over the numeric range
        (the simple sequential algorithm of Section 6);
        ``'accelerated'`` — binary search with the Appendix C bound updates
        (lower bound from failed scans, upper bound from successful scans),
        which converges in far fewer scans.
    """
    sizes = np.asarray(bucket_sizes, dtype=np.int64)
    if np.any(sizes < 0):
        raise ValueError("bucket sizes must be non-negative")
    if num_groups <= 0:
        raise ValueError("need at least one group")
    total = int(sizes.sum())
    if sizes.size == 0 or total == 0:
        boundaries = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.full(num_groups, sizes.size, dtype=np.int64)]
        )
        return GroupingResult(
            boundaries=boundaries,
            bound=0,
            group_loads=np.zeros(num_groups, dtype=np.int64),
            scan_calls=0,
        )

    lower = max(int(sizes.max()), int(np.ceil(total / num_groups)))
    upper = total
    scan_calls = 0
    best: Optional[np.ndarray] = None
    best_bound = upper

    if method == "binary":
        lo, hi = lower, upper
        while lo <= hi:
            mid = (lo + hi) // 2
            scan_calls += 1
            boundaries = scan_buckets_with_bound(sizes, num_groups, mid)
            if boundaries is not None:
                best, best_bound = boundaries, mid
                hi = mid - 1
            else:
                lo = mid + 1
    elif method == "accelerated":
        csum = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=csum[1:])
        clist = csum.tolist()
        lo, hi = lower, upper
        while lo <= hi:
            mid = (lo + hi) // 2
            scan_calls += 1
            boundaries, largest, min_overflow = _scan_observing(
                sizes, num_groups, mid, clist
            )
            if boundaries is not None:
                best = boundaries
                best_bound = largest  # tighten to the largest group actually used
                hi = min(mid, largest) - 1
            else:
                lo = max(mid + 1, min_overflow)
    else:
        raise ValueError(f"unknown grouping method {method!r}")

    if best is None:
        # A bound of `total` always succeeds with a single group.
        scan_calls += 1
        best = scan_buckets_with_bound(sizes, num_groups, total)
        best_bound = total
        assert best is not None

    loads = group_sizes_from_boundaries(sizes, best)
    return GroupingResult(
        boundaries=best,
        bound=int(max(best_bound, loads.max(initial=0))),
        group_loads=loads,
        scan_calls=scan_calls,
    )


@dataclass
class BatchedGroupingResult:
    """Result of :func:`optimal_bucket_grouping_batched` for a batch of islands.

    All per-island vectors are concatenated back to back; island ``k`` owns
    ``boundaries[bnd_offsets[k]:bnd_offsets[k+1]]`` (``num_groups[k] + 1``
    entries) and ``group_loads[load_offsets[k]:load_offsets[k+1]]``
    (``num_groups[k]`` entries).  Every field is byte-identical to running
    :func:`optimal_bucket_grouping` with ``method='accelerated'`` island by
    island.
    """

    boundaries: np.ndarray
    bnd_offsets: np.ndarray
    bounds: np.ndarray
    group_loads: np.ndarray
    load_offsets: np.ndarray
    scan_calls: np.ndarray

    @property
    def num_islands(self) -> int:
        return int(self.bnd_offsets.size) - 1

    def result_for(self, k: int) -> GroupingResult:
        """Island ``k``'s grouping as a plain :class:`GroupingResult`."""
        return GroupingResult(
            boundaries=self.boundaries[self.bnd_offsets[k]:self.bnd_offsets[k + 1]],
            bound=int(self.bounds[k]),
            group_loads=self.group_loads[self.load_offsets[k]:self.load_offsets[k + 1]],
            scan_calls=int(self.scan_calls[k]),
        )

    def bucket_group_lut(self) -> np.ndarray:
        """Concatenated bucket → group lookup tables of all islands.

        Island ``k``'s slice has one entry per bucket mapping its bucket
        index to its destination group — identical to
        ``np.repeat(np.arange(r_k), np.diff(boundaries_k))`` island by
        island, built in one shot for the whole batch.
        """
        r = np.diff(self.load_offsets)
        lo = concat_ranges(self.bnd_offsets[:-1], r)
        widths = self.boundaries[lo + 1] - self.boundaries[lo]
        group_ids = np.arange(int(r.sum()), dtype=np.int64) - np.repeat(
            self.load_offsets[:-1], r
        )
        return np.repeat(group_ids, widths)


_INT64_MAX = np.iinfo(np.int64).max


def optimal_bucket_grouping_batched(
    bucket_sizes: np.ndarray,
    offsets: np.ndarray,
    num_groups: np.ndarray,
) -> BatchedGroupingResult:
    """Appendix C bound searches for many islands in lockstep.

    Island ``k`` owns the bucket sizes
    ``bucket_sizes[offsets[k]:offsets[k+1]]`` and packs them into
    ``num_groups[k]`` groups.  Every island runs the exact probe sequence of
    ``optimal_bucket_grouping(..., method='accelerated')`` — same binary
    search midpoints, same Appendix C bound updates from the observed
    ``largest_group`` / ``min_overflow`` values — but all islands advance as
    vectors: one outer iteration probes every still-searching island's
    midpoint, and the greedy scans run as a lockstep jump scan whose
    prefix-sum probes are one whole-batch bisection over the concatenated
    per-island prefix sums.  Boundaries, bounds, group loads and scan counts
    are byte-identical to the per-island search.
    """
    sizes = np.asarray(bucket_sizes, dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.int64)
    num_groups = np.asarray(num_groups, dtype=np.int64)
    n = int(offsets.size) - 1
    if num_groups.shape != (n,):
        raise ValueError("need one group count per island")
    if np.any(num_groups <= 0):
        raise ValueError("need at least one group")
    if sizes.size and int(sizes.min()) < 0:
        raise ValueError("bucket sizes must be non-negative")

    m = np.diff(offsets)
    b_cnt = num_groups + 1
    b_off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(b_cnt, out=b_off[1:])
    l_off = b_off - np.arange(n + 1, dtype=np.int64)
    bounds_out = np.zeros(n, dtype=np.int64)
    scan_calls = np.zeros(n, dtype=np.int64)
    # Default boundaries [0, m, m, ..., m]: the trivial (empty/zero-total)
    # result, and the padding successful scans fill up to.
    bnd = np.repeat(m, b_cnt)
    bnd[b_off[:-1]] = 0
    if n == 0:
        e = np.empty(0, dtype=np.int64)
        return BatchedGroupingResult(bnd, b_off, e, e.copy(), l_off, scan_calls)

    # Per-island prefix sums with a leading zero, all islands back to back.
    cs_off = offsets + np.arange(n + 1, dtype=np.int64)
    gcs = np.zeros(int(cs_off[-1]), dtype=np.int64)
    if sizes.size:
        c = np.cumsum(sizes)
        ctot = np.zeros(sizes.size + 1, dtype=np.int64)
        ctot[1:] = c
        tot = ctot[offsets[1:]] - ctot[offsets[:-1]]
        gcs[concat_ranges(cs_off[:-1] + 1, m)] = c - np.repeat(ctot[offsets[:-1]], m)
    else:
        tot = np.zeros(n, dtype=np.int64)

    done = (m == 0) | (tot == 0)
    has_best = done.copy()
    nontrivial = np.flatnonzero(~done)
    lo = np.ones(n, dtype=np.int64)
    hi = tot.copy()
    if nontrivial.size:
        # max.reduceat segments span from each nontrivial island's first
        # bucket to the next one's; the islands skipped in between are
        # trivial (no buckets, or all-zero buckets), so the spans only add
        # zeros and the per-island maxima are unaffected.
        max_bucket = np.maximum.reduceat(sizes, offsets[:-1][nontrivial])
        lo[nontrivial] = np.maximum(max_bucket, -(-tot[nontrivial] // num_groups[nontrivial]))

    # Full-width search state (one slot per island; inactive islands are
    # masked out of every update).
    cand = bnd.copy()
    mid = np.zeros(n, dtype=np.int64)
    n_bnd = np.ones(n, dtype=np.int64)
    isl_of_slot = np.repeat(np.arange(n, dtype=np.int64), b_cnt)
    slot_j = np.arange(int(b_off[-1]), dtype=np.int64) - np.repeat(b_off[:-1], b_cnt)
    base = cs_off[:-1]

    while True:
        act = ~done & (lo <= hi)
        if not act.any():
            break
        mid = np.where(act, (lo + hi) >> 1, mid)
        scan_calls[act] += 1

        # --- lockstep jump scan of all probing islands -----------------
        start = np.zeros(n, dtype=np.int64)
        n_bnd[:] = 1
        largest = np.zeros(n, dtype=np.int64)
        min_ovf = np.full(n, _INT64_MAX, dtype=np.int64)
        feasible = act.copy()
        running = act.copy()
        while running.any():
            wlo = np.where(running, base + start + 1, 0)
            whi = np.where(running, base + m + 1, 0)
            q = gcs[np.where(running, base + start, 0)] + mid
            pos = _windowed_bisect(gcs, q, wlo, whi, right=True)
            end = np.where(running, pos - 1 - base, 0)
            load = gcs[np.where(running, base + end, 0)] - gcs[np.where(running, base + start, 0)]
            at_end = running & (end == m)
            cont = running & ~at_end
            ovf = gcs[np.where(cont, base + end + 1, 0)] - gcs[np.where(cont, base + start, 0)]
            size_end = sizes[np.where(cont, offsets[:-1] + end, 0)] if sizes.size else ovf
            too_big = cont & (size_end > mid)
            fits = cont & ~too_big
            largest = np.where(running, np.maximum(largest, load), largest)
            min_ovf = np.where(too_big, np.minimum(min_ovf, size_end), min_ovf)
            min_ovf = np.where(fits, np.minimum(min_ovf, ovf), min_ovf)
            fidx = np.flatnonzero(fits)
            if fidx.size:
                cand[b_off[fidx] + n_bnd[fidx]] = end[fidx]
                n_bnd[fits] += 1
            exceeded = fits & (n_bnd - 1 >= num_groups)
            feasible &= ~(too_big | exceeded)
            start = np.where(fits & ~exceeded, end, start)
            running = fits & ~exceeded

        # --- Appendix C bound updates ----------------------------------
        succ = act & feasible
        fail = act & ~feasible
        if succ.any():
            smask = succ[isl_of_slot]
            keep = slot_j < n_bnd[isl_of_slot]
            bnd[smask] = np.where(keep[smask], cand[smask], m[isl_of_slot][smask])
            bounds_out = np.where(succ, largest, bounds_out)
            has_best |= succ
            hi = np.where(succ, np.minimum(mid, largest) - 1, hi)
        if fail.any():
            lo = np.where(fail, np.maximum(mid + 1, min_ovf), lo)

    # Defensive fallback, mirroring the per-island search: a bound of the
    # island total always succeeds with a single group.  Unreachable for the
    # accelerated probe sequence (the search cannot exhaust its window
    # without probing a feasible bound), but kept for exact parity.
    for k in np.flatnonzero(~has_best):  # pragma: no cover
        scan_calls[k] += 1
        bk = scan_buckets_with_bound(
            sizes[offsets[k]:offsets[k + 1]], int(num_groups[k]), int(tot[k])
        )
        assert bk is not None
        bnd[b_off[k]:b_off[k + 1]] = bk
        bounds_out[k] = tot[k]

    # Group loads from the boundary prefix sums, all islands at once.
    load_lo = concat_ranges(b_off[:-1], num_groups)
    cs_base = np.repeat(base, num_groups)
    loads = gcs[cs_base + bnd[load_lo + 1]] - gcs[cs_base + bnd[load_lo]]
    max_load = np.maximum.reduceat(loads, l_off[:-1]) if loads.size else \
        np.zeros(n, dtype=np.int64)
    bounds_out = np.maximum(bounds_out, max_load)
    return BatchedGroupingResult(
        boundaries=bnd,
        bnd_offsets=b_off,
        bounds=bounds_out,
        group_loads=loads,
        load_offsets=l_off,
        scan_calls=scan_calls,
    )


def optimal_max_load_dp(bucket_sizes: Sequence[int], num_groups: int) -> int:
    """Exact optimal maximum group load via dynamic programming.

    ``O(r * (br)^2)`` reference used by the test-suite to validate Lemma 1
    (that the scanning/binary-search approach is optimal).
    """
    sizes = np.asarray(bucket_sizes, dtype=np.int64)
    m = sizes.size
    if m == 0:
        return 0
    csum = np.concatenate([[0], np.cumsum(sizes)])
    # dp[g][i]: minimal possible maximum load when the first i buckets are
    # split into at most g groups.
    prev = np.empty(m + 1, dtype=np.int64)
    for i in range(m + 1):
        prev[i] = int(csum[i])  # one group takes everything
    for g in range(2, num_groups + 1):
        cur = np.empty(m + 1, dtype=np.int64)
        cur[0] = 0
        for i in range(1, m + 1):
            best = prev[i]
            for j in range(i):
                candidate = max(int(prev[j]), int(csum[i] - csum[j]))
                if candidate < best:
                    best = candidate
            cur[i] = best
        prev = cur
    return int(prev[m])
