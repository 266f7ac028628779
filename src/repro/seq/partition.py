"""Partitioning data by splitters (super scalar sample sort style).

The dual operation of multiway merging (Section 2.2): given ``k - 1``
splitters, partition an array into ``k`` buckets such that bucket ``i``
contains the elements between splitter ``i - 1`` (inclusive) and splitter
``i`` (exclusive).  The C++ implementation in the paper uses the branch-free
partitioner of super scalar sample sort [32]; in NumPy the equivalent
vectorised operation is ``np.searchsorted`` on the splitter array, which we
use here.

Two functions are provided:

* :func:`bucket_indices` — the bucket of every element, which the sorting
  algorithms use to route elements,
* :func:`partition_with_equality_buckets` — additionally produces *equality
  buckets* for elements equal to a splitter (Appendix D): this is the hook
  used by the implicit tie-breaking scheme, because elements that compare
  equal to a splitter are exactly the ones whose final bucket depends on the
  tie-breaking rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np


def _validate_splitters(splitters: np.ndarray) -> np.ndarray:
    splitters = np.asarray(splitters)
    if splitters.ndim != 1:
        raise ValueError("splitters must be one-dimensional")
    if splitters.size > 1 and np.any(splitters[1:] < splitters[:-1]):
        raise ValueError("splitters must be sorted in non-decreasing order")
    return splitters


def bucket_indices(values: np.ndarray, splitters: np.ndarray) -> np.ndarray:
    """Bucket index of every element of ``values`` for the given splitters.

    Elements strictly smaller than ``splitters[0]`` go to bucket 0; elements
    ``>= splitters[i-1]`` and ``< splitters[i]`` go to bucket ``i``; elements
    ``>= splitters[-1]`` go to bucket ``len(splitters)``.
    """
    values = np.asarray(values)
    splitters = _validate_splitters(splitters)
    if splitters.size == 0:
        return np.zeros(values.shape, dtype=np.int64)
    return np.searchsorted(splitters, values, side="right").astype(np.int64)


@dataclass
class EqualityPartition:
    """Result of :func:`partition_with_equality_buckets`.

    Attributes
    ----------
    buckets:
        ``len(splitters) + 1`` arrays with the elements strictly between
        consecutive splitters.
    equality_buckets:
        ``len(splitters)`` arrays; ``equality_buckets[i]`` holds the elements
        equal to ``splitters[i]``.
    """

    buckets: List[np.ndarray]
    equality_buckets: List[np.ndarray]

    def total_size(self) -> int:
        """Total number of elements across all buckets."""
        return int(sum(b.size for b in self.buckets)
                   + sum(e.size for e in self.equality_buckets))

    def merged_buckets(self, equal_goes_left: bool = True) -> List[np.ndarray]:
        """Fold the equality buckets back into the regular buckets.

        ``equal_goes_left=True`` appends elements equal to splitter ``i`` to
        bucket ``i`` (the bucket left of the splitter); otherwise they are
        prepended to bucket ``i + 1``.
        """
        k = len(self.buckets)
        out: List[np.ndarray] = [b.copy() for b in self.buckets]
        for i, eq in enumerate(self.equality_buckets):
            if eq.size == 0:
                continue
            if equal_goes_left:
                out[i] = np.concatenate([out[i], eq])
            else:
                out[i + 1] = np.concatenate([eq, out[i + 1]])
        return out


def partition_with_equality_buckets(
    values: np.ndarray, splitters: np.ndarray
) -> EqualityPartition:
    """Partition with explicit equality buckets (Appendix D).

    Elements strictly smaller than ``splitters[0]`` go to ``buckets[0]``,
    elements equal to ``splitters[i]`` go to ``equality_buckets[i]`` and so
    on.  Only elements in equality buckets ever need the explicit
    lexicographic tie-breaking comparison, which is what makes the implicit
    tie-breaking scheme cheap.
    """
    values = np.asarray(values)
    splitters = _validate_splitters(splitters)
    k = splitters.size + 1
    if splitters.size == 0:
        return EqualityPartition(buckets=[values.copy()], equality_buckets=[])
    left = np.searchsorted(splitters, values, side="left")
    right = np.searchsorted(splitters, values, side="right")
    is_equal = left != right  # value equals splitters[left]
    buckets: List[np.ndarray] = []
    order_regular = np.flatnonzero(~is_equal)
    reg_idx = right[order_regular]
    for b in range(k):
        buckets.append(values[order_regular[reg_idx == b]].copy())
    equality_buckets: List[np.ndarray] = []
    eq_positions = np.flatnonzero(is_equal)
    eq_idx = left[eq_positions]
    for s in range(splitters.size):
        equality_buckets.append(values[eq_positions[eq_idx == s]].copy())
    return EqualityPartition(buckets=buckets, equality_buckets=equality_buckets)
