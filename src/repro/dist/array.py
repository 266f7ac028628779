"""``DistArray`` — the whole machine's data as one flat numpy array.

A distributed array over ``p`` PEs is stored as

* ``values`` — one contiguous 1-D numpy array holding every PE's elements
  back to back (PE 0 first), and
* ``offsets`` — an int64 vector of ``p + 1`` entries; PE ``i`` owns the
  slice ``values[offsets[i]:offsets[i + 1]]``.

This is the CSR-style ragged layout; all whole-machine operations of the
flat engine (sampling, bucket counting, routing, exchange assembly) become
offset arithmetic plus single vectorised numpy calls instead of
``for i in range(p)`` loops over per-PE arrays.

Conversion from and to the seed representation (``List[np.ndarray]``) is a
single concatenate / ``p`` cheap views, so the public API keeps accepting
lists while every hot path runs flat.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.dist.flatops import segment_ids, segmented_sort_values, take_ranges


class DistArray:
    """A distributed array in flat (CSR) layout.

    Parameters
    ----------
    values:
        All elements of the machine, PE 0's segment first.
    offsets:
        ``p + 1`` non-decreasing int64 offsets; segment ``i`` is
        ``values[offsets[i]:offsets[i+1]]``.

    Both are kept as given (views, no copy).
    """

    __slots__ = ("values", "offsets")

    def __init__(self, values: np.ndarray, offsets: np.ndarray):
        values = np.asarray(values)
        offsets = np.asarray(offsets, dtype=np.int64)
        if values.ndim != 1:
            raise ValueError("DistArray values must be one-dimensional")
        if offsets.ndim != 1 or offsets.size < 2:
            raise ValueError("offsets needs at least two entries (p >= 1)")
        if int(offsets[0]) != 0 or int(offsets[-1]) != values.size:
            raise ValueError("offsets must start at 0 and end at values.size")
        if np.any(np.diff(offsets) < 0):
            raise ValueError("offsets must be non-decreasing")
        self.values = values
        self.offsets = offsets

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_list(cls, arrays: Sequence[np.ndarray]) -> "DistArray":
        """Build from the seed per-PE list representation (one concatenate)."""
        arrays = [np.asarray(a) for a in arrays]
        if not arrays:
            raise ValueError("need at least one per-PE array")
        for i, a in enumerate(arrays):
            if a.ndim != 1:
                raise ValueError(f"per-PE array {i} is not one-dimensional")
        sizes = np.array([a.size for a in arrays], dtype=np.int64)
        offsets = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        non_empty = [a for a in arrays if a.size > 0]
        if non_empty:
            values = np.concatenate(non_empty) if len(non_empty) > 1 else non_empty[0].copy()
        else:
            values = np.empty(0, dtype=arrays[0].dtype)
        return cls(values, offsets)

    @classmethod
    def from_sizes(cls, values: np.ndarray, sizes: Sequence[int]) -> "DistArray":
        """Build from a flat buffer plus per-PE segment sizes."""
        sizes = np.asarray(sizes, dtype=np.int64)
        offsets = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        return cls(np.asarray(values), offsets)

    @classmethod
    def empty(cls, p: int, dtype=np.float64) -> "DistArray":
        """An empty distributed array over ``p`` PEs."""
        if p <= 0:
            raise ValueError("need at least one PE")
        return cls(np.empty(0, dtype=dtype), np.zeros(p + 1, dtype=np.int64))

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def p(self) -> int:
        """Number of PE segments."""
        return int(self.offsets.size - 1)

    @property
    def total(self) -> int:
        """Total number of elements over all PEs."""
        return int(self.values.size)

    @property
    def dtype(self) -> np.dtype:
        """Element dtype."""
        return self.values.dtype

    def sizes(self) -> np.ndarray:
        """Per-PE segment sizes (int64 vector of length ``p``)."""
        return np.diff(self.offsets)

    def segment(self, i: int) -> np.ndarray:
        """PE ``i``'s elements (a view into ``values``)."""
        if not 0 <= i < self.p:
            raise IndexError(f"segment index {i} out of range")
        return self.values[self.offsets[i]:self.offsets[i + 1]]

    def segment_ids(self) -> np.ndarray:
        """Owning-PE index of every element (length ``total``)."""
        return segment_ids(self.offsets)

    def take_segments(self, idx: np.ndarray) -> "DistArray":
        """Sub-array over an arbitrary (ascending or not) list of segments.

        Segment ``k`` of the result is segment ``idx[k]`` of this array; the
        values are gathered with one :func:`~repro.dist.flatops.take_ranges`
        indexing pass.
        """
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size == 0:
            raise ValueError("need at least one segment index")
        if idx.min() < 0 or idx.max() >= self.p:
            raise IndexError("segment index out of range")
        sizes = self.sizes()[idx]
        values = take_ranges(self.values, self.offsets[idx], sizes)
        return DistArray.from_sizes(values, sizes)

    # ------------------------------------------------------------------
    # Conversion / transformation
    # ------------------------------------------------------------------
    def to_list(self) -> List[np.ndarray]:
        """The seed per-PE list representation (views into ``values``)."""
        return [self.segment(i) for i in range(self.p)]

    def sort_segments(self) -> "DistArray":
        """Sort every segment (byte-identical to a per-PE stable sort)."""
        return DistArray(segmented_sort_values(self.values, self.offsets), self.offsets)

    def copy(self) -> "DistArray":
        """Deep copy."""
        return DistArray(self.values.copy(), self.offsets.copy())

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.p

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"DistArray(p={self.p}, total={self.total}, dtype={self.dtype}, "
            f"sizes={self.sizes()[:8].tolist()}{'...' if self.p > 8 else ''})"
        )
