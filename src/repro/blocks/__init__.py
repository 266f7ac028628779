"""Distributed building blocks of the paper (Section 4 and appendices).

* :mod:`repro.blocks.multiselect` — distributed multisequence selection
  (Section 4.1, Figure 2) for one or many simultaneous ranks,
* :mod:`repro.blocks.fast_sort` — fast work-inefficient sorting on an
  ``a x b`` PE grid (Section 4.2, Figure 1), used to sort samples,
* :mod:`repro.blocks.delivery` — data delivery to ``r`` PE groups
  (Section 4.3): naive prefix-sum delivery, the randomized PE-permutation
  variant, the deterministic two-phase algorithm (4.3.1) and the advanced
  randomized algorithm (Appendix A),
* :mod:`repro.blocks.grouping` — optimal assignment of consecutive buckets
  to PE groups (the constrained bin-packing scan of Section 6 / Lemma 1,
  accelerated per Appendix C),
* :mod:`repro.blocks.feistel` — pseudorandom permutations from Feistel
  networks (Appendix B),
* :mod:`repro.blocks.sampling` — sample-size logic (oversampling ``a``,
  overpartitioning ``b``) and distributed sample drawing,
* :mod:`repro.blocks.tiebreak` — implicit tie breaking via
  ``(key, PE, position)`` composite keys (Appendix D).

The communicating blocks exported here (selection, grid sort, delivery)
are the per-PE reference implementations, written against
:class:`~repro.sim.comm.Comm`; they are the correctness oracle.  The flat
engine has one lockstep implementation per block,
:func:`~repro.blocks.multiselect.multisequence_select_batched` and
:func:`~repro.blocks.delivery.deliver_to_groups_batched`, which run every
island of a recursion level over one :class:`~repro.sim.groups.GroupBatch`
(a single-level sort's one level is a one-island batch); the grid sample
sort's lockstep port lives in :mod:`repro.core.ams_sort`.
"""

from repro.blocks.feistel import FeistelPermutation
from repro.blocks.sampling import (
    SamplingParams,
    draw_samples,
    draw_samples_flat,
    default_oversampling,
)
from repro.blocks.multiselect import (
    multisequence_select,
    MultiselectResult,
)
from repro.blocks.fast_sort import (
    fast_work_inefficient_sort,
    select_splitters_by_rank,
)
from repro.blocks.grouping import (
    scan_buckets_with_bound,
    optimal_bucket_grouping,
    group_sizes_from_boundaries,
)
from repro.blocks.delivery import (
    deliver_to_groups,
    DeliveryResult,
)
from repro.blocks.tiebreak import (
    make_unique_keys,
    strip_tiebreak,
    can_encode_inline,
)

__all__ = [
    "FeistelPermutation",
    "SamplingParams",
    "draw_samples",
    "draw_samples_flat",
    "default_oversampling",
    "multisequence_select",
    "MultiselectResult",
    "fast_work_inefficient_sort",
    "select_splitters_by_rank",
    "scan_buckets_with_bound",
    "optimal_bucket_grouping",
    "group_sizes_from_boundaries",
    "deliver_to_groups",
    "DeliveryResult",
    "make_unique_keys",
    "strip_tiebreak",
    "can_encode_inline",
]
