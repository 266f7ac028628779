"""The in-process numpy kernels: the engine's one kernel backend.

A stateless adapter binding the :class:`~repro.dist.backend.base.
KernelBackend` interface to the ``*_numpy`` reference implementations in
:mod:`repro.dist.flatops`.  A proxy backend delegates to it.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.dist import flatops
from repro.dist.backend.base import KernelBackend


class NumpyBackend(KernelBackend):
    """Single-process numpy execution of the engine's kernels."""

    name = "numpy"

    def segmented_sort_values(
        self, values: np.ndarray, offsets: np.ndarray
    ) -> np.ndarray:
        return flatops.segmented_sort_values_numpy(values, offsets)

    def segmented_searchsorted(
        self,
        values: np.ndarray,
        offsets: np.ndarray,
        queries: np.ndarray,
        query_seg: np.ndarray,
        side: Union[str, np.ndarray] = "left",
        lo: Optional[np.ndarray] = None,
        hi: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        return flatops.segmented_searchsorted_numpy(
            values, offsets, queries, query_seg, side=side, lo=lo, hi=hi
        )

    def blockwise_searchsorted(
        self,
        values: np.ndarray,
        offsets: np.ndarray,
        queries: np.ndarray,
        query_offsets: np.ndarray,
        side: str = "left",
    ) -> np.ndarray:
        return flatops.blockwise_searchsorted_numpy(
            values, offsets, queries, query_offsets, side=side
        )

    def bincount(
        self,
        key: np.ndarray,
        minlength: int = 0,
        weights: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        return flatops.bincount_numpy(key, minlength=minlength, weights=weights)

    def stable_key_argsort(self, key: np.ndarray, key_bound: int) -> np.ndarray:
        return flatops.stable_key_argsort_numpy(key, key_bound)

    def stable_two_key_argsort(
        self,
        major: np.ndarray,
        minor: np.ndarray,
        major_bound: int,
        minor_bound: int,
    ) -> np.ndarray:
        return flatops.stable_two_key_argsort_numpy(
            major, minor, major_bound, minor_bound
        )

    def gather(self, values: np.ndarray, indices: np.ndarray) -> np.ndarray:
        return flatops.gather_numpy(values, indices)

    def take_ranges(
        self, values: np.ndarray, starts: np.ndarray, lengths: np.ndarray
    ) -> np.ndarray:
        return flatops.take_ranges_numpy(values, starts, lengths)
