"""Flat distributed-array execution engine.

The seed implementation of this reproduction represented every distributed
array as a Python ``List[np.ndarray]`` (one array per PE) and drove each
algorithm phase with ``for i in range(p)`` loops.  That caps realistic
simulations around ``p ~ 256``: the paper (Section 7) evaluates AMS-sort and
RLM-sort at up to ``2^15`` PEs, far past what per-PE Python loops can carry.

This package provides the *flat* engine:

* :class:`~repro.dist.array.DistArray` — one contiguous ``values`` buffer
  plus a ``p + 1`` ``offsets`` vector (CSR-style ragged layout, one segment
  per PE).  The whole machine's data is one numpy array; per-PE structure is
  pure offset arithmetic.
* :mod:`~repro.dist.flatops` — the vectorised kernels the engine is built
  from: segment-id expansion, ragged gathers (``concat_ranges``), segmented
  value sorts and searches, and stable key argsorts.

Every algorithm of :mod:`repro.core` has been ported onto ``DistArray``; the
ports charge *exactly* the same modelled costs and produce *byte-identical*
outputs, clocks and phase breakdowns as the per-PE reference implementations
(which are retained as ``*_reference`` functions and verified against the
flat engine by ``tests/dist_engine/test_engine_equivalence.py``).  Public entry
points (:func:`repro.core.runner.run_on_machine`, :func:`repro.ams_sort`,
...) still accept ``List[np.ndarray]`` via the cheap
:meth:`DistArray.from_list` / :meth:`DistArray.to_list` converters.
"""

from repro.dist.array import DistArray
from repro.dist.ctr_rng import CounterRNG, philox4x32
from repro.dist.flatops import (
    concat_ranges,
    segment_ids,
    segmented_sort_values,
    stable_key_argsort,
)

__all__ = [
    "CounterRNG",
    "DistArray",
    "concat_ranges",
    "philox4x32",
    "segment_ids",
    "segmented_sort_values",
    "stable_key_argsort",
]
