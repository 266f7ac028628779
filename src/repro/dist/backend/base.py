"""``KernelBackend`` — the engine's whole-machine primitives as an interface.

The flat execution engine issues a handful of *element-scale* kernels per
recursion level (segmented sorts, segmented/blockwise binary searches,
histograms, stable radix argsorts and the gather passes that apply
them).  Everything else the engine does — cost accounting, island
bookkeeping, message descriptor assembly — is tiny by comparison.  This
module names exactly that hot kernel set as a small ABC.
:class:`~repro.dist.backend.numpy_backend.NumpyBackend`, the
single-process numpy kernels of :mod:`repro.dist.flatops`, is its one
implementation; the interface is the hook through which a proxy (a kernel
timer, a test fake that records calls) sees every kernel call of a run.

**Byte-identity contract.**  A backend must return bit-identical arrays
for identical inputs — the engine's equivalence suites pin the flat engine
against the per-PE reference *through* whichever backend is active, so a
backend that reorders ties, changes a dtype or reassociates a float sum is
a correctness bug, not a performance trade-off.

Backends never touch modelled time: kernels are simulator *bookkeeping*,
which the cost-model contract leaves free to optimise.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Union

import numpy as np


class KernelBackend(ABC):
    """Interface for the flat engine's whole-machine array kernels.

    Semantics of every method are defined by the reference implementations
    in :mod:`repro.dist.flatops` (the ``*_numpy`` functions); see their
    docstrings for the exact contracts.  Implementations must be
    *byte-identical* to those references on every input.
    """

    #: Short identifier; a run records it as ``machine.backend_used``.
    name: str = "abstract"

    # ------------------------------------------------------------------
    # Segmented sorting and searching
    # ------------------------------------------------------------------
    @abstractmethod
    def segmented_sort_values(
        self, values: np.ndarray, offsets: np.ndarray
    ) -> np.ndarray:
        """Sort every CSR segment independently (per-PE local sorts).

        The output must equal a per-segment ``np.sort(kind="stable")``
        byte for byte, which also fixes the order of equal keys whose
        bytes differ (``-0.0`` and ``0.0``, NaN payloads).
        """

    @abstractmethod
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
        """Insertion position of every query inside its own sorted segment."""

    @abstractmethod
    def blockwise_searchsorted(
        self,
        values: np.ndarray,
        offsets: np.ndarray,
        queries: np.ndarray,
        query_offsets: np.ndarray,
        side: str = "left",
    ) -> np.ndarray:
        """Per-segment ``searchsorted`` for queries grouped by segment."""

    # ------------------------------------------------------------------
    # Histograms
    # ------------------------------------------------------------------
    @abstractmethod
    def bincount(
        self,
        key: np.ndarray,
        minlength: int = 0,
        weights: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``np.bincount`` (the engine's element-scale reductions)."""

    # ------------------------------------------------------------------
    # Stable radix argsort / reorder
    # ------------------------------------------------------------------
    @abstractmethod
    def stable_key_argsort(self, key: np.ndarray, key_bound: int) -> np.ndarray:
        """Stable argsort of non-negative integer keys below ``key_bound``."""

    @abstractmethod
    def stable_two_key_argsort(
        self,
        major: np.ndarray,
        minor: np.ndarray,
        major_bound: int,
        minor_bound: int,
    ) -> np.ndarray:
        """Stable argsort by ``(major, minor)`` pairs of small ints."""

    # ------------------------------------------------------------------
    # Gather / exchange assembly
    # ------------------------------------------------------------------
    @abstractmethod
    def gather(self, values: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """``values[indices]`` — apply a permutation / index plane."""

    @abstractmethod
    def take_ranges(
        self, values: np.ndarray, starts: np.ndarray, lengths: np.ndarray
    ) -> np.ndarray:
        """Concatenate ``values[starts[k]:starts[k]+lengths[k]]`` for all k.

        The gather-scatter primitive of exchange assembly and
        ``DistArray.take_segments``: equivalent to
        ``values[concat_ranges(starts, lengths)]`` without materialising
        the index ramp in the caller.
        """

    def effective_name(self) -> str:
        """The name a run records as ``machine.backend_used``: :attr:`name`."""
        return self.name
