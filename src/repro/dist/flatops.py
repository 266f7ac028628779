"""Vectorised kernels for the flat execution engine.

These helpers are the numpy building blocks the :class:`~repro.dist.array.
DistArray` engine is made of.  They contain no simulator state and no cost
accounting — they are pure data transformations, shared by the flat ports of
the exchange, delivery, partitioning and merging steps.

The element-scale kernels (segmented sorts and searches, histograms, stable
radix argsorts, gathers) are *dispatched*: the public names forward to the
active :class:`~repro.dist.backend.base.KernelBackend`, by default the
``*_numpy`` reference implementations in this module, wrapped as
:class:`~repro.dist.backend.numpy_backend.NumpyBackend`.
``run_on_machine(..., backend=...)`` installs a proxy in its place (the
benchmark's kernel tracer); a proxy must stay byte-identical to the
reference, so the choice never changes engine output.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.dist.workspace import get_arena


def segment_ids(offsets: np.ndarray) -> np.ndarray:
    """Segment index of every element for a CSR ``offsets`` vector.

    ``offsets`` has ``p + 1`` entries; the result has ``offsets[-1]``
    entries, with value ``i`` repeated ``offsets[i+1] - offsets[i]`` times.
    Computed as a cumulative sum of boundary markers, which is considerably
    faster than ``np.repeat`` for large element counts.

    Deliberately int64: the ids index offset tables (``key_offsets[seg]``)
    and key the radix argsorts, and numpy upcasts any non-``intp`` integer
    index array on every use — measured at p=4096 (two-level AMS) an int32
    variant cost ~15% total wall.  Keys are narrowed where it actually
    pays, at the radix-sort boundary (:func:`stable_key_argsort_numpy`),
    where the one narrowing copy buys an order-of-magnitude faster sort.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    total = int(offsets[-1])
    if total == 0:
        return np.empty(0, dtype=np.int64)
    marks = np.zeros(total, dtype=np.int64)
    interior = offsets[1:-1]
    interior = interior[interior < total]
    np.add.at(marks, interior, 1)
    return np.cumsum(marks, out=marks)


_MALLOC_REUSE_DONE = False


def enable_malloc_reuse() -> bool:
    """Keep the engine's large scratch buffers reusable across numpy calls.

    The flat engine allocates and drops hundreds of element-scale
    temporaries (hundreds of MB each at ``p = 2^15``) per run.  With
    glibc's defaults every one of them is a fresh ``mmap`` whose pages
    fault in on first touch and are returned on free — measured at ~60% of
    the cost of an allocating whole-array pass.  Raising the malloc mmap
    and trim thresholds keeps those blocks on the heap, where freed
    buffers are handed straight back to the next allocation with their
    pages still mapped (a whole-process workspace pool, with the allocator
    doing the bookkeeping).  Idempotent; returns ``False`` on platforms
    without glibc ``mallopt`` (then it is a no-op).  The trade-off is that
    the process holds on to its high-water scratch memory, which is the
    right call for simulation workloads.
    """
    global _MALLOC_REUSE_DONE
    if _MALLOC_REUSE_DONE:
        return True
    try:
        import ctypes

        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        libc.mallopt(-3, (1 << 31) - 1)  # M_MMAP_THRESHOLD
        libc.mallopt(-1, (1 << 31) - 1)  # M_TRIM_THRESHOLD
    except (OSError, AttributeError):
        return False
    _MALLOC_REUSE_DONE = True
    return True


def cached_arange(n: int, dtype=np.int64) -> np.ndarray:
    """Read-only view of ``np.arange(n, dtype=dtype)`` from the workspace arena.

    The flat engine builds ``0..total`` index ramps on every level
    (:func:`concat_ranges` without an arena); the ramp's contents never change,
    so one shared buffer per dtype — grown geometrically, marked read-only
    so a mutating caller fails loudly instead of corrupting it — replaces
    the per-call fills.  Callers that need a writable ramp must copy (any
    arithmetic on the view allocates a fresh array anyway).  The ramp lives
    in the process :class:`~repro.dist.workspace.WorkspaceArena`, so
    ``get_arena().release()`` (or ``SimulatedMachine.release_workspace()``)
    actually sheds it — the former module-level cache pinned the high-water
    ramp for the life of the process.
    """
    return get_arena().arange(n, dtype)


def concat_ranges(
    starts: np.ndarray, lengths: np.ndarray, arena=None
) -> np.ndarray:
    """Index array gathering the ranges ``[starts[k], starts[k]+lengths[k])``.

    The returned array has ``lengths.sum()`` entries and enumerates all
    ranges back to back, so ``buffer[concat_ranges(s, l)]`` concatenates the
    ranges without any Python-level loop.  Zero-length ranges are skipped.

    Without ``arena``, built as ``arange(total)`` plus a per-range shift
    broadcast with ``np.repeat`` — two sequential passes over the output,
    with the cumsum confined to the (short) per-range vector.  With
    ``arena``, the result is checked out of the workspace (caller must
    ``recycle`` it) and built allocation-free: the output is seeded with
    ones, per-range shift *deltas* are scattered onto the range starts
    (``np.add.at`` accumulates duplicates, so zero-length ranges telescope
    correctly), and one in-place cumsum produces the same int64 values.

    Deliberately int64 (``intp``): the result exists to fancy-index value
    buffers, and numpy converts any non-``intp`` integer index array on
    every indexing use — an int32 variant (halved build traffic, but one
    upcast pass per gather/scatter) measured ~25% slower total wall at
    p=4096 two-level AMS, concentrated in data delivery.
    """
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if starts.shape != lengths.shape:
        raise ValueError("starts and lengths must have the same shape")
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # Position k of range i maps to starts[i] + k; relative to the flat
    # output position this is a constant shift per range.
    excl = np.cumsum(lengths) - lengths
    shift = starts - excl
    if arena is None:
        return cached_arange(total) + np.repeat(shift, lengths)
    out = arena.full(total, 1, np.int64)
    out[0] = shift[0]
    pos = excl[1:]
    keep = pos < total  # trailing zero-length ranges start past the end
    np.add.at(out, pos[keep], np.diff(shift)[keep])
    return np.cumsum(out, out=out)


def stable_key_argsort_numpy(key: np.ndarray, key_bound: int) -> np.ndarray:
    """Reference implementation of :func:`stable_key_argsort`.

    numpy's stable sort is a radix sort only for (u)int8/16 — an order of
    magnitude faster than the comparison sort used for wider integers — so
    the key is narrowed to ``uint16`` whenever the bound allows.  The
    resulting permutation is identical either way.
    """
    key = np.asarray(key)
    if 0 <= key_bound <= 2 ** 8:
        narrow = np.uint8
    elif 0 <= key_bound <= 2 ** 16:
        narrow = np.uint16
    elif 0 <= key_bound < 2 ** 31:
        narrow = np.int32
    else:
        narrow = None
    if narrow is None or key.dtype == narrow or key.ndim != 1:
        if narrow is not None:
            key = key.astype(narrow, copy=False)
        return np.argsort(key, kind="stable")
    # The narrowing copy is a pure scratch (the permutation escapes, the
    # narrowed key does not) — check it out of the workspace arena instead
    # of allocating fresh per call.
    ws = get_arena()
    scratch = ws.empty(key.size, narrow)
    np.copyto(scratch, key, casting="unsafe")
    order = np.argsort(scratch, kind="stable")
    ws.recycle(scratch)
    return order


def stable_two_key_argsort_numpy(
    major: np.ndarray, minor: np.ndarray, major_bound: int, minor_bound: int
) -> np.ndarray:
    """Reference implementation of :func:`stable_two_key_argsort`.

    When the combined key range exceeds 16 bits but each key fits 16 bits,
    an LSD two-pass radix (stable sort by minor, then by major) keeps both
    passes in the fast 16-bit path; otherwise a single radix argsort of the
    composed key is used.  Identical to a stable argsort of
    ``major * minor_bound + minor``.
    """
    ws = get_arena()
    if major_bound * minor_bound > 2 ** 16 and \
            major_bound <= 2 ** 16 and minor_bound <= 2 ** 16:
        minor16 = ws.empty(np.asarray(minor).size, np.uint16)
        np.copyto(minor16, minor, casting="unsafe")
        order = np.argsort(minor16, kind="stable")
        ws.recycle(minor16)
        major16 = ws.empty(np.asarray(major).size, np.uint16)
        np.copyto(major16, major, casting="unsafe")
        permuted = ws.empty(major16.size, np.uint16)
        np.take(major16, order, out=permuted)
        order2 = np.argsort(permuted, kind="stable")
        ws.recycle(major16, permuted)
        return order[order2]
    # The composed key is a pure scratch from the workspace.  Widen into
    # the int64 buffer *first*: narrow ids (int32 segment ids) would
    # otherwise be multiplied in their own width (NEP 50) and overflow.
    key = ws.empty(np.asarray(major).size, np.int64)
    np.copyto(key, major, casting="unsafe")
    key *= minor_bound
    key += minor
    order = stable_key_argsort_numpy(key, major_bound * minor_bound)
    ws.recycle(key)
    return order


def segmented_sort_values_numpy(
    values: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """Reference implementation of :func:`segmented_sort_values`.

    Sorts each segment slice of a copy in place, so the output is byte for
    byte the reference engines' per-PE ``np.sort(segment, kind="stable")``.
    A value sort's stability shows only in the order of equal keys, and
    equal integer keys are equal bytes, so for integer dtypes that order
    leaves no trace in the output.  Integer keys take numpy's default sort,
    which dispatches to its SIMD sorts (AVX2 or AVX-512) and runs about ten
    times faster than the stable sort on 64-bit keys.  Every other dtype
    keeps ``kind="stable"``: equal floats may differ in bytes (``-0.0`` and
    ``0.0``), and a default sort may put ``-0.0`` after an equal ``0.0``.
    """
    values = np.asarray(values)
    out = values.copy()
    kind = None if values.dtype.kind in "iu" else "stable"
    bounds = np.asarray(offsets).tolist()
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi - lo > 1:
            out[lo:hi].sort(kind=kind)
    return out


def segmented_searchsorted_numpy(
    values: np.ndarray,
    offsets: np.ndarray,
    queries: np.ndarray,
    query_seg: np.ndarray,
    side: Union[str, np.ndarray] = "left",
    lo: np.ndarray = None,
    hi: np.ndarray = None,
) -> np.ndarray:
    """Reference implementation of :func:`segmented_searchsorted`.

    ``values``/``offsets`` form a CSR layout whose segments are each sorted
    in non-decreasing order; query ``k`` is looked up in segment
    ``query_seg[k]``.  The result equals
    ``np.searchsorted(values[offsets[s]:offsets[s+1]], queries[k], side)``
    per query (positions are relative to the segment start), but all queries
    advance together through one length-halving bisection
    (:func:`_windowed_bisect`) — ``O(log max_segment_size)`` whole-batch
    steps of one probe and one comparison each, instead of a Python loop
    over segments.

    ``side`` is ``'left'``, ``'right'``, or a boolean array per query
    (``True`` = right); the per-query form is the *two-sided* search the
    multisequence selection uses, where the side depends on the position of
    the queried segment relative to the pivot owner (Appendix D
    tie-breaking).  A mask splits the queries once into a left and a right
    batch.

    ``lo``/``hi`` optionally restrict query ``k`` to the half-open window
    ``[lo[k], hi[k])`` of its segment (positions relative to the segment
    start).  Because the segment is sorted the result — clamped into
    ``[lo[k], hi[k]]`` — is identical to clipping the full-segment position,
    while the bisection only pays for the window size.
    """
    values = np.asarray(values)
    offsets = np.asarray(offsets, dtype=np.int64)
    queries = np.asarray(queries)
    query_seg = np.asarray(query_seg, dtype=np.int64)
    if queries.shape != query_seg.shape or queries.ndim != 1:
        raise ValueError("queries and query_seg must be equal-length 1-D arrays")
    if query_seg.size and (
        query_seg.min(initial=0) < 0 or query_seg.max(initial=0) >= offsets.size - 1
    ):
        raise IndexError("query segment index out of range")
    if isinstance(side, str):
        if side not in ("left", "right"):
            raise ValueError("side must be 'left', 'right', or a boolean mask")
    else:
        right = np.asarray(side, dtype=bool)
        if right.shape != queries.shape:
            raise ValueError("per-query side mask must match the query shape")
    base = offsets[query_seg]
    end = offsets[query_seg + 1]
    start = base if lo is None else base + np.asarray(lo, dtype=np.int64)
    stop = end if hi is None else base + np.asarray(hi, dtype=np.int64)
    if start.size and (
        np.any(start < base) or np.any(stop > end) or np.any(start > stop)
    ):
        raise IndexError("search window out of segment range")
    if isinstance(side, str):
        pos = _windowed_bisect(values, queries, start, stop, side == "right")
    else:
        pos = np.empty(queries.shape, dtype=np.int64)
        for flag in (False, True):
            idx = np.flatnonzero(right == flag)
            pos[idx] = _windowed_bisect(
                values, queries[idx], start[idx], stop[idx], flag
            )
    return pos - base


def blockwise_searchsorted_numpy(
    values: np.ndarray,
    offsets: np.ndarray,
    queries: np.ndarray,
    query_offsets: np.ndarray,
    side: str = "left",
) -> np.ndarray:
    """Reference implementation of :func:`blockwise_searchsorted`.

    Segment ``s`` of the (individually sorted) CSR layout
    ``values``/``offsets`` is probed with the query block
    ``queries[query_offsets[s]:query_offsets[s+1]]``; positions are relative
    to the segment start.  Semantically identical to
    :func:`segmented_searchsorted` with ``query_seg`` expanded from
    ``query_offsets``, but integer batches with several segments run through
    one shared radix prefix table over the whole ``(segment, cell)`` grid
    (:func:`_bucketize_batched`) and the rest fall back to one C-speed
    ``np.searchsorted`` per block — so a whole recursion level's bucketing
    is a handful of whole-batch numpy calls regardless of the island count.
    """
    values = np.asarray(values)
    offsets = np.asarray(offsets, dtype=np.int64)
    queries = np.asarray(queries)
    query_offsets = np.asarray(query_offsets, dtype=np.int64)
    if query_offsets.size != offsets.size:
        raise ValueError("need exactly one query block per segment")
    if int(query_offsets[-1]) != queries.size:
        raise ValueError("query_offsets must cover the query array")
    if (
        offsets.size >= 2
        and queries.size >= 4096
        and values.size
        and queries.dtype.kind in "iu"
        and values.dtype.kind in "iu"
    ):
        out = _bucketize_batched(values, offsets, queries, query_offsets, side)
        if out is not None:
            return out
    out = np.empty(queries.size, dtype=np.int64)
    for s in range(offsets.size - 1):
        qlo, qhi = int(query_offsets[s]), int(query_offsets[s + 1])
        if qhi == qlo:
            continue
        seg = values[offsets[s]:offsets[s + 1]]
        if seg.size == 0:
            out[qlo:qhi] = 0
        elif qhi - qlo >= 4096 and seg.size >= 16 and queries.dtype.kind in "iu":
            out[qlo:qhi] = _bucketize_with_table(seg, queries[qlo:qhi], side)
        else:
            out[qlo:qhi] = np.searchsorted(seg, queries[qlo:qhi], side=side)
    return out


def _bucketize_batched(
    values: np.ndarray,
    offsets: np.ndarray,
    queries: np.ndarray,
    query_offsets: np.ndarray,
    side: str,
) -> Union[np.ndarray, None]:
    """All segments of a :func:`blockwise_searchsorted` call in one shot.

    The boundary range of *all* segments combined is cut into ``2**bits``
    equal cells (a radix on the top query bits, as in
    :func:`_bucketize_with_table`) and one ``(segment, cell)`` table of
    result ranges is built from two bincounts over the concatenated
    boundaries — no per-segment Python.  Queries in pure cells (no boundary
    of *their own* segment inside) resolve with one table gather; queries in
    mixed cells finish with a windowed segmented bisection whose window is
    the table's result range (almost always one or two candidate
    boundaries).  Output is byte-identical to ``np.searchsorted`` per
    segment.  Returns ``None`` when the value range or table size makes the
    shared grid unattractive.
    """
    nseg = int(offsets.size) - 1
    if values.dtype.kind == "u" and int(values.max()) >= 2 ** 62:
        return None
    vi = values.astype(np.int64, copy=False)
    if not -(2 ** 62) < int(vi.min()) <= int(vi.max()) < 2 ** 62:
        return None
    if queries.size and queries.dtype.kind == "u" and \
            int(queries.max()) >= 2 ** 63:
        return None
    qi = queries.astype(np.int64, copy=False)

    # One radix grid *per segment*: each segment's boundary range is cut
    # into its own ``2**bits`` cells.  A shared global grid would be blind
    # to skew — after one routing level every island owns a narrow slice of
    # the key space, so all its boundaries would collapse into a handful of
    # global cells and almost every query would be mixed.
    seg_sizes = np.diff(offsets)
    max_size = int(seg_sizes.max())
    if max_size >= 2 ** 31:
        return None
    has = seg_sizes > 0
    lo_k = np.zeros(nseg, dtype=np.int64)
    hi_k = np.zeros(nseg, dtype=np.int64)
    lo_k[has] = vi[offsets[:-1][has]]
    hi_k[has] = vi[offsets[1:][has] - 1]
    nq = int(queries.size)
    # ~32 cells per boundary keeps the mixed-query fraction around 3%; the
    # cap bounds the table build (≈5 passes over nseg << bits) to a
    # fraction of the per-query work.
    bits = min(16, max(8, max_size.bit_length() + 5))
    while bits > 8 and (nseg << bits) > max(1 << 22, nq >> 2):
        bits -= 1
    if (nseg << bits) > (1 << 24):
        return None
    n_cells = 1 << bits
    # Two sentinel cells per segment: cell 0 swallows every query below the
    # segment's smallest boundary (result range [0, 0]) and the cells past
    # the boundary span answer with the full count, so out-of-range queries
    # need no masks of their own.
    nc2 = n_cells + 2
    shift_k = np.maximum(0, _bit_length_i64(hi_k - lo_k) - bits)

    # (segment, cell) histograms of the boundaries: prefix[s, c] counts the
    # segment's boundaries in cells < c; eq_base / eq_top count boundaries
    # exactly at a cell's lowest / highest covered value.
    seg_of_spl = np.repeat(np.arange(nseg, dtype=np.int64), seg_sizes)
    spl_rel = vi - lo_k[seg_of_spl]
    shift_spl = shift_k[seg_of_spl]
    flat_spl = seg_of_spl * nc2 + ((spl_rel >> shift_spl) + 1)
    table_n = nseg * nc2
    prefix = np.zeros((nseg, nc2 + 1), dtype=np.int64)
    np.cumsum(
        np.bincount(flat_spl, minlength=table_n).reshape(nseg, nc2),
        axis=1, out=prefix[:, 1:],
    )
    low_bits = spl_rel & ((np.int64(1) << shift_spl) - 1)
    eq_base = np.bincount(
        flat_spl[low_bits == 0], minlength=table_n
    ).reshape(nseg, nc2)
    if side == "right":
        lo_tab = prefix[:, :-1] + eq_base
        hi_tab = prefix[:, 1:]
    else:
        eq_top = np.bincount(
            flat_spl[low_bits == (np.int64(1) << shift_spl) - 1],
            minlength=table_n,
        ).reshape(nseg, nc2)
        lo_tab = prefix[:, :-1]
        hi_tab = prefix[:, 1:] - eq_top
    # Pure cells store their result directly; mixed cells store the result
    # window encoded below zero, so one gather answers pure queries with no
    # unpacking pass and the sign bit alone flags the (rare) mixed ones.
    win_bits = max(1, max_size.bit_length())
    win = hi_tab - lo_tab
    packed = np.where(
        win == 0, lo_tab, -((lo_tab << np.int64(win_bits)) | win) - 1
    ).reshape(-1)

    s_max = int(shift_k.max(initial=0))
    lo_v = int(lo_k[has].min()) if has.any() else 0
    hi_v = int(hi_k[has].max()) if has.any() else 0
    if (hi_v + 1) - (lo_v - (1 << s_max)) >= 1 << 63:
        return None  # cell arithmetic could overflow; per-segment fallback

    # Query side: one light pass per segment over its contiguous block —
    # scalar clip into [lo-1, hi+1] (preserving each query's below/above
    # classification), the folded "+1" interior-cell subtrahend
    # ((x + 2**s) >> s == (x >> s) + 1 exactly, so the shifted result lands
    # in [0, n_cells + 1] with no second clip), and one gather from the
    # segment's table row.  The blocks stay cache-resident, the loop body
    # is branch-free numpy, and the table/mixed machinery around it is
    # whole-batch.
    res = np.empty(queries.size, dtype=np.int64)
    lo2 = lo_k - (np.int64(1) << shift_k.astype(np.int64))
    wb = np.int64(win_bits)
    wmask = np.int64((1 << win_bits) - 1)
    right = side == "right"
    for s in range(nseg):
        a, b = int(query_offsets[s]), int(query_offsets[s + 1])
        if b == a:
            continue
        cell = np.clip(qi[a:b], int(lo_k[s]) - 1, int(hi_k[s]) + 1)
        cell -= lo2[s]
        cell >>= shift_k[s]
        cell += np.int64(s * nc2)
        pk = packed[cell]
        res[a:b] = pk
        neg = np.flatnonzero(pk < 0)
        if neg.size:
            enc = -(pk[neg] + 1)
            lo_w = enc >> wb
            base = np.int64(offsets[s])
            res[a + neg] = _windowed_bisect(
                values, queries[a:b][neg], base + lo_w,
                base + lo_w + (enc & wmask), right=right,
            ) - base
    return res


def _windowed_bisect(
    values: np.ndarray,
    queries: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    right: bool,
) -> np.ndarray:
    """Insertion positions of queries in per-query windows of a flat buffer.

    Validation-free whole-batch bisection over the sorted absolute windows
    ``[lo[k], hi[k])``: the result is ``lo[k] + np.searchsorted(
    values[lo[k]:hi[k]], queries[k], side)`` (``side='right'`` when
    ``right``, else ``'left'``), i.e. the query's insertion position in its
    sorted segment clamped into ``[lo[k], hi[k]]`` — exact when the window
    contains it (the mixed-cell contract of the radix tables).
    Length-halving: each step probes ``values[pos + half]`` and moves
    ``pos`` by ``half`` when that element still lies left of the query, so
    a window of length ``n`` needs ``ceil(log2 n)`` steps and one last
    probe.  Windows of at most one candidate probe with ``half == 0`` and
    do not move (``mode="clip"`` keeps the probe of an empty window at the
    buffer's end in range).
    """
    pos = np.array(lo, dtype=np.int64)
    n = hi - lo
    if values.size == 0 or pos.size == 0:
        return pos  # every window is empty
    before = np.less_equal if right else np.less
    for _ in range((max(int(n.max()), 1) - 1).bit_length()):
        half = n >> 1
        n -= half
        half *= before(values.take(pos + half, mode="clip"), queries)
        pos += half
    pos += before(values.take(pos, mode="clip"), queries) & (n > 0)
    return pos


def _bit_length_i64(x: np.ndarray) -> np.ndarray:
    """Vectorised ``int.bit_length`` for non-negative int64 values."""
    r = np.zeros(x.shape, dtype=np.int64)
    v = x.astype(np.int64, copy=True)
    for s in (32, 16, 8, 4, 2, 1):
        m = v >= (np.int64(1) << s)
        r[m] += s
        v[m] >>= s
    return r + (v > 0)


def _bucketize_with_table(
    sorted_vals: np.ndarray, queries: np.ndarray, side: str
) -> np.ndarray:
    """``np.searchsorted`` accelerated by a radix prefix table.

    For *many* integer queries against *few* sorted boundaries, a binary
    search spends most of its time in unpredictable branches.  Instead the
    boundary range ``[lo, hi]`` is cut into ``B = 2**bits`` equal cells (a
    radix on the top query bits): a precomputed table gives, per cell, the
    lowest and highest possible search result.  Cells not containing a
    boundary — all but at most ``len(sorted_vals)`` of them — resolve with
    one table gather; only queries in mixed cells fall back to the exact
    ``searchsorted``.  Identical output to ``np.searchsorted(..., side)``.
    """
    lo_v = int(sorted_vals[0])
    hi_v = int(sorted_vals[-1])
    span = hi_v - lo_v  # exact Python int: no int64 overflow
    if span <= 0 or not -(2 ** 62) < lo_v <= hi_v < 2 ** 62:
        return np.searchsorted(sorted_vals, queries, side=side)
    bits = min(16, max(8, queries.size.bit_length() - 4))
    shift = max(0, span.bit_length() - bits)
    n_cells = (span >> shift) + 1
    bounds = lo_v + (np.arange(n_cells + 1, dtype=np.int64) << shift)
    # Result range per cell: side='right' counts <= q, side='left' counts
    # < q; the extremes within cell t are reached at q = bounds[t] and
    # q = bounds[t+1] - 1 (integer queries), for either side.  The table
    # packs the low result in bits 1.. and a mixed-cell flag in bit 0.
    lo_tab = np.searchsorted(sorted_vals, bounds[:-1], side=side)
    hi_tab = np.searchsorted(sorted_vals, bounds[1:] - 1, side=side)
    tab = (lo_tab.astype(np.int64) << np.int64(1)) | (hi_tab != lo_tab)

    below = queries < lo_v
    above = queries > hi_v
    cell = np.clip(queries, lo_v, hi_v).astype(np.int64, copy=False)
    cell -= lo_v
    cell >>= np.int64(shift)
    res = tab[cell]
    mixed = np.flatnonzero(res & np.int64(1))
    res >>= np.int64(1)
    if mixed.size:
        res[mixed] = np.searchsorted(sorted_vals, queries[mixed], side=side)
    # Below the smallest boundary both sides give 0; above the largest,
    # both give the full count (clipped queries fell into the edge cells,
    # whose table answers are for lo_v / hi_v — overwrite them).
    if below.any():
        res[below] = 0
    if above.any():
        res[above] = sorted_vals.size
    return res


def bincount_numpy(
    key: np.ndarray, minlength: int = 0, weights: Optional[np.ndarray] = None
) -> np.ndarray:
    """Reference implementation of :func:`bincount` (plain ``np.bincount``)."""
    return np.bincount(key, weights=weights, minlength=minlength)


def gather_numpy(values: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Reference implementation of :func:`gather` (``values[indices]``)."""
    return values[indices]


def take_ranges_numpy(
    values: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Reference implementation of :func:`take_ranges`.

    The index plane is a pure scratch (only the gather escapes), so it
    lives in the workspace arena for the duration of the call.
    """
    ws = get_arena()
    idx = concat_ranges(starts, lengths, arena=ws)
    out = values[idx]
    ws.recycle(idx)
    return out


# ----------------------------------------------------------------------
# Kernel dispatch
# ----------------------------------------------------------------------
# The active backend executing the element-scale kernels above.  ``None``
# until first use, then resolved (default: the in-process numpy reference)
# by :func:`repro.dist.backend.get_backend`;
# :func:`repro.dist.backend.install` / ``use_backend`` swap it.

_BACKEND = None


def _active_backend():
    global _BACKEND
    if _BACKEND is None:
        from repro.dist.backend import get_backend

        _BACKEND = get_backend(None)
    return _BACKEND


def segmented_sort_values(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Sort every segment of a CSR layout independently.

    The output equals a per-segment ``np.sort(kind="stable")`` byte for
    byte.  Dispatches to the active backend; byte-identical to
    :func:`segmented_sort_values_numpy` (the full contract) on every
    backend.
    """
    return _active_backend().segmented_sort_values(values, offsets)


def segmented_searchsorted(
    values: np.ndarray,
    offsets: np.ndarray,
    queries: np.ndarray,
    query_seg: np.ndarray,
    side: Union[str, np.ndarray] = "left",
    lo: np.ndarray = None,
    hi: np.ndarray = None,
) -> np.ndarray:
    """Insertion position of every query inside its own sorted segment.

    Dispatches to the active backend; byte-identical to
    :func:`segmented_searchsorted_numpy` (the full contract) on every
    backend.
    """
    return _active_backend().segmented_searchsorted(
        values, offsets, queries, query_seg, side=side, lo=lo, hi=hi
    )


def blockwise_searchsorted(
    values: np.ndarray,
    offsets: np.ndarray,
    queries: np.ndarray,
    query_offsets: np.ndarray,
    side: str = "left",
) -> np.ndarray:
    """Per-segment ``searchsorted`` for queries grouped by segment.

    Dispatches to the active backend; byte-identical to
    :func:`blockwise_searchsorted_numpy` (the full contract) on every
    backend.
    """
    return _active_backend().blockwise_searchsorted(
        values, offsets, queries, query_offsets, side=side
    )


def bincount(
    key: np.ndarray, minlength: int = 0, weights: Optional[np.ndarray] = None
) -> np.ndarray:
    """``np.bincount`` through the active backend (element-scale reductions)."""
    return _active_backend().bincount(key, minlength=minlength, weights=weights)


def stable_key_argsort(key: np.ndarray, key_bound: int) -> np.ndarray:
    """Stable argsort of non-negative integer keys smaller than ``key_bound``.

    Dispatches to the active backend; byte-identical to
    :func:`stable_key_argsort_numpy` on every backend (the stable
    permutation is unique, so there is exactly one right answer).
    """
    return _active_backend().stable_key_argsort(key, key_bound)


def stable_two_key_argsort(
    major: np.ndarray, minor: np.ndarray, major_bound: int, minor_bound: int
) -> np.ndarray:
    """Stable argsort by ``(major, minor)`` pairs of small non-negative ints.

    Dispatches to the active backend; byte-identical to
    :func:`stable_two_key_argsort_numpy` on every backend.
    """
    return _active_backend().stable_two_key_argsort(
        major, minor, major_bound, minor_bound
    )


def gather(values: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """``values[indices]`` through the active backend (permutation planes)."""
    return _active_backend().gather(values, indices)


def take_ranges(
    values: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """``values[concat_ranges(starts, lengths)]`` through the active backend.

    The gather half of exchange assembly: concatenates the value ranges
    ``[starts[k], starts[k] + lengths[k])`` back to back.
    """
    return _active_backend().take_ranges(values, starts, lengths)


def map_by_unique(values: np.ndarray, fn) -> np.ndarray:
    """Apply a scalar ``fn`` to every element, evaluating once per distinct value.

    The per-PE modelled-cost vectors of the lockstep engine are built from
    scalar cost functions (``local_sort_time`` etc.) whose results must stay
    bit-identical to the per-PE reference loops; memoising by distinct input
    keeps the exact scalar code path while reducing ``p`` Python calls to
    one per distinct size (per-PE sizes cluster heavily after delivery).
    """
    values = np.asarray(values)
    if (
        values.size > 16
        and values.dtype.kind in "iu"
        and 0 <= int(values.min())
        # Table size must stay proportional to the work saved: linear in
        # the element count for small arrays, up to a fixed ceiling for
        # the big encoded-pair keys of whole-machine cost vectors.
        and int(values.max())
        <= max(8 * values.size + 1024, min(values.size * values.size, 1 << 22))
    ):
        # Bounded non-negative ints (per-PE sizes, fan-ins): find the
        # distinct values with one boolean scatter instead of a sort.
        bound = int(values.max()) + 1
        present = np.zeros(bound, dtype=bool)
        present[values] = True
        uniq = np.flatnonzero(present)
        table = np.empty(bound, dtype=np.float64)
        table[uniq] = [fn(int(x)) for x in uniq]
        return table[values]
    uniq, inverse = np.unique(values, return_inverse=True)
    out = np.array([fn(x) for x in uniq.tolist()], dtype=np.float64)
    return out[inverse]


def map_by_unique2(a: np.ndarray, b: np.ndarray, fn) -> np.ndarray:
    """Two-argument :func:`map_by_unique`: ``fn(a[i], b[i])`` memoised by pair.

    Encodes the pairs into single integers (``b`` must be non-negative) so
    the per-PE ``(size, fan-in)`` cost vectors of the lockstep engine reuse
    one scalar evaluation per distinct pair; the encode/decode lives here so
    call sites cannot get the bound arithmetic subtly wrong.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.shape != b.shape:
        raise ValueError("paired arrays must have the same shape")
    if b.size and b.min() < 0:
        raise ValueError("second key must be non-negative")
    bound = int(b.max(initial=0)) + 1
    return map_by_unique(
        a * bound + b, lambda key: fn(int(key) // bound, int(key) % bound)
    )

