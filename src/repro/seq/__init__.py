"""Sequential (single-PE) algorithmic toolbox.

The distributed algorithms of the paper lean on a small set of sequential
primitives (Section 2.2): ``r``-way merging of sorted runs and partitioning
by ``r - 1`` splitters in the style of super scalar sample sort [32], with
equality buckets for elements equal to a splitter (Appendix D).  This
subpackage provides NumPy-backed implementations of these primitives and,
in :mod:`repro.seq.select`, the sequential multisequence selection with its
order-consistency check, which the tests of the distributed selection
compare against.
"""

from repro.seq.merge import (
    LoserTree,
    multiway_merge,
    merge_two,
    merge_runs_numpy,
)
from repro.seq.partition import partition_with_equality_buckets
from repro.seq.select import (
    select_from_sorted_runs,
    split_sorted_runs_at_ranks,
)

__all__ = [
    "LoserTree",
    "multiway_merge",
    "merge_two",
    "merge_runs_numpy",
    "partition_with_equality_buckets",
    "select_from_sorted_runs",
    "split_sorted_runs_at_ranks",
]
