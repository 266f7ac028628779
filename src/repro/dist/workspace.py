"""Per-machine workspace arena: preallocated buffers for level temporaries.

The flat engine's recursion levels are dominated by a small set of
element-scale temporaries — radix argsort keys and scratch,
``concat_ranges`` index planes, delivery planes.  (Segmented value sorts
need none: they sort their output's segment slices in place.)
Before this module each level allocated them fresh with ``np.empty`` /
``np.zeros`` and dropped them at the end of the level, so the process
walked its whole working set through the allocator once per level and the
peak resident set grew with the number of *distinct concurrent
temporaries*, not with the data.  ``enable_malloc_reuse`` (PR 5) already
keeps freed pages mapped; the arena goes one step further and keeps the
*buffers themselves*, so a level checks its scratch out of a small pool
and returns it, and a p = 2^20 run touches the same few buffers over and
over.

Design:

* A :class:`WorkspaceArena` owns per-dtype free lists of 1-D buffers.
  :meth:`~WorkspaceArena.empty` checks out the smallest free buffer that
  fits (best fit; free lists stay sorted by capacity) and returns a
  length-``n`` view of it; on a miss the largest too-small buffer is
  retired and a new one of ``max(n, 2 * retired.size)`` is allocated, so
  per dtype the pool converges geometrically to the high-water size
  instead of holding one buffer per historical size.
* :meth:`~WorkspaceArena.recycle` returns a checkout to the pool.  It
  walks the view's ``base`` chain to find the owning buffer, so reshaped
  and sliced views recycle fine — and it is a safe no-op for arrays the
  arena never handed out (double recycles included), so call sites can
  recycle unconditionally.
* :meth:`~WorkspaceArena.arange` is the persistent read-only index ramp
  (the former ``flatops.cached_arange`` cache, folded in here so it obeys
  the same release discipline).
* :meth:`~WorkspaceArena.release` drops every pooled buffer and ramp,
  shedding the high-water workspace.  Checked-out buffers survive a
  release; they simply are not re-pooled when recycled afterwards.
* Everything here is bookkeeping: a checkout is ``np.empty`` semantics
  (uninitialised), so call sites must fully overwrite before reading,
  and outputs stay byte-identical with the arena pooling, replaced by a
  fresh-allocating :class:`NullArena` (``set_arena``) or released at any
  point.

The arena is deliberately per *process*: the engine simulates one
machine at a time, ``SimulatedMachine`` holds the process arena and
exposes ``release_workspace()``, and forked campaign workers reset to a
fresh arena of their own via ``os.register_at_fork`` — a child never
shares Python-level pools with its parent.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

import numpy as np

__all__ = [
    "WorkspaceArena",
    "NullArena",
    "get_arena",
    "set_arena",
    "reset_arena",
]


class WorkspaceArena:
    """Pool of preallocated 1-D numpy buffers reused across levels."""

    def __init__(self, name: str = "workspace"):
        self.name = name
        #: dtype -> free buffers, sorted ascending by capacity.
        self._free: Dict[np.dtype, List[np.ndarray]] = {}
        #: id(buffer) -> buffer, for every checked-out buffer.  Holding the
        #: reference keeps the id stable for the lifetime of the checkout.
        self._out: Dict[int, np.ndarray] = {}
        #: dtype -> persistent read-only ``0..n`` ramp.
        self._ranges: Dict[np.dtype, np.ndarray] = {}
        self._owned_bytes = 0
        self._high_water_bytes = 0
        self._hits = 0
        self._misses = 0

    # -- checkout ------------------------------------------------------
    def empty(self, n: int, dtype=np.int64) -> np.ndarray:
        """Check out an uninitialised length-``n`` 1-D array.

        ``np.empty`` semantics: the contents are arbitrary until written.
        Return the buffer with :meth:`recycle` when the temporary dies.
        """
        n = int(n)
        dt = np.dtype(dtype)
        if n == 0:
            # Not worth pooling; also keeps recycle() trivially a no-op.
            return np.empty(0, dtype=dt)
        free = self._free.get(dt)
        buf: Optional[np.ndarray] = None
        if free:
            for i, cand in enumerate(free):  # ascending: first fit == best fit
                if cand.size >= n:
                    buf = free.pop(i)
                    self._hits += 1
                    break
        if buf is None:
            self._misses += 1
            grow = n
            if free:
                # Retire the largest too-small buffer; growing to twice its
                # size bounds the new allocation at < 2n while converging
                # the pool geometrically to the high-water demand.
                retired = free.pop()
                self._owned_bytes -= retired.nbytes
                grow = max(n, 2 * retired.size)
            buf = np.empty(grow, dtype=dt)
            self._owned_bytes += buf.nbytes
            self._high_water_bytes = max(self._high_water_bytes, self._owned_bytes)
        self._out[id(buf)] = buf
        return buf[:n]

    def zeros(self, n: int, dtype=np.int64) -> np.ndarray:
        """Check out a zero-filled length-``n`` array."""
        view = self.empty(n, dtype)
        view.fill(0)
        return view

    def full(self, n: int, fill_value, dtype=np.int64) -> np.ndarray:
        """Check out a length-``n`` array filled with ``fill_value``."""
        view = self.empty(n, dtype)
        view.fill(fill_value)
        return view

    def arange(self, n: int, dtype=np.int64) -> np.ndarray:
        """Read-only view of ``np.arange(n, dtype)`` from a persistent ramp.

        The ramp per dtype grows geometrically and is marked read-only so a
        mutating caller fails loudly; it is never recycled, only dropped by
        :meth:`release`.
        """
        n = int(n)
        dt = np.dtype(dtype)
        ramp = self._ranges.get(dt)
        if ramp is None or ramp.size < n:
            old = 0 if ramp is None else ramp.size
            if ramp is not None:
                self._owned_bytes -= ramp.nbytes
            ramp = np.arange(max(n, 2 * old), dtype=dt)
            ramp.setflags(write=False)
            self._ranges[dt] = ramp
            self._owned_bytes += ramp.nbytes
            self._high_water_bytes = max(self._high_water_bytes, self._owned_bytes)
        return ramp[:n]

    # -- return --------------------------------------------------------
    def recycle(self, *arrays: Optional[np.ndarray]) -> None:
        """Return checkouts to the pool; no-op for anything else.

        Views (slices, reshapes) are resolved to their owning buffer by
        walking the ``base`` chain.  Arrays the arena does not own —
        including double recycles and buffers checked out before a
        :meth:`release` — are silently ignored, so call sites never need
        to track provenance.
        """
        for arr in arrays:
            if arr is None:
                continue
            node = arr
            buf = None
            while node is not None:
                cand = self._out.get(id(node))
                if cand is not None and cand is node:
                    buf = cand
                    break
                node = node.base
            if buf is None:
                continue
            del self._out[id(buf)]
            free = self._free.setdefault(buf.dtype, [])
            lo, hi = 0, len(free)
            while lo < hi:  # insort by capacity
                mid = (lo + hi) // 2
                if free[mid].size < buf.size:
                    lo = mid + 1
                else:
                    hi = mid
            free.insert(lo, buf)

    # -- lifecycle -----------------------------------------------------
    def release(self) -> None:
        """Drop all pooled buffers and ramps, shedding the workspace memory.

        Checked-out buffers survive (their owners still hold views); they
        are forgotten, so recycling them afterwards is a no-op and their
        memory goes back to the allocator when the views die.
        """
        for free in self._free.values():
            for buf in free:
                self._owned_bytes -= buf.nbytes
        self._free.clear()
        for ramp in self._ranges.values():
            self._owned_bytes -= ramp.nbytes
        self._ranges.clear()
        for buf in self._out.values():
            self._owned_bytes -= buf.nbytes
        self._out.clear()
        self._owned_bytes = 0

    def stats(self) -> Dict[str, int]:
        """Current pool accounting (bytes owned, high-water, hit/miss)."""
        return {
            "owned_bytes": self._owned_bytes,
            "high_water_bytes": self._high_water_bytes,
            "free_buffers": sum(len(v) for v in self._free.values()),
            "checked_out": len(self._out),
            "hits": self._hits,
            "misses": self._misses,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats()
        return (
            f"<WorkspaceArena {self.name!r} owned={s['owned_bytes']}B "
            f"high={s['high_water_bytes']}B out={s['checked_out']}>"
        )


class NullArena:
    """Arena-shaped front for plain numpy allocation (see ``set_arena``).

    Every checkout is a fresh allocation and :meth:`recycle` does nothing,
    which restores the pre-arena allocation behaviour exactly — the
    byte-identity tests run the engine under both fronts.
    """

    name = "null"

    def empty(self, n: int, dtype=np.int64) -> np.ndarray:
        return np.empty(int(n), dtype=dtype)

    def zeros(self, n: int, dtype=np.int64) -> np.ndarray:
        return np.zeros(int(n), dtype=dtype)

    def full(self, n: int, fill_value, dtype=np.int64) -> np.ndarray:
        return np.full(int(n), fill_value, dtype=dtype)

    def arange(self, n: int, dtype=np.int64) -> np.ndarray:
        return np.arange(int(n), dtype=dtype)

    def recycle(self, *arrays) -> None:
        return None

    def release(self) -> None:
        return None

    def stats(self) -> Dict[str, int]:
        return {
            "owned_bytes": 0,
            "high_water_bytes": 0,
            "free_buffers": 0,
            "checked_out": 0,
            "hits": 0,
            "misses": 0,
        }


_ARENA: Optional[object] = None


def get_arena():
    """The process arena, a :class:`WorkspaceArena` created on first use."""
    global _ARENA
    if _ARENA is None:
        _ARENA = WorkspaceArena()
    return _ARENA


def set_arena(arena) -> None:
    """Install ``arena`` as the process arena (tests)."""
    global _ARENA
    _ARENA = arena


def reset_arena() -> None:
    """Forget the process arena; the next :func:`get_arena` builds a fresh one."""
    global _ARENA
    _ARENA = None


# A forked child must never share Python-level pools with its parent: a
# campaign worker owns a fresh arena sized by its own cells, not the
# parent's high water.
os.register_at_fork(after_in_child=reset_arena)
