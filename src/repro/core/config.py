"""Algorithm configuration and the per-level group-count plan (Table 1).

The central tuning knob of both multi-level algorithms is the number of
recursion levels ``k`` and, per level, the number of groups ``r`` the PEs are
split into.  Asymptotically ``r = Theta(p^(1/k))`` is the right choice
(Section 5); in practice the paper aligns the groups with the machine
hierarchy: the *last* level always splits into groups of one node
(16 MPI processes on SuperMUC) so that its data exchange stays node-internal,
and the remaining factor ``p / 16`` is distributed over the earlier levels as
evenly as possible (Section 7.2, Table 1).

:func:`level_plan` reproduces that scheme for arbitrary ``p`` and ``k``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.blocks.delivery import DELIVERY_METHODS
from repro.blocks.sampling import SamplingParams, default_oversampling


def _near_equal_factors(value: int, parts: int) -> List[int]:
    """Split ``value`` into ``parts`` integer factors whose product covers ``value``.

    Factors are as equal as possible (powers of two stay powers of two) and
    ordered from largest to smallest, matching Table 1 where the first level
    uses the largest group count.
    """
    if parts <= 0:
        return []
    if value <= 1:
        return [1] * parts
    if parts == 1:
        return [value]
    factors: List[int] = []
    remaining = value
    for i in range(parts, 0, -1):
        if i == 1:
            factors.append(max(1, remaining))
            break
        f = max(1, int(math.ceil(remaining ** (1.0 / i))))
        # Keep powers of two exact (the experiments use power-of-two p).
        if remaining & (remaining - 1) == 0:
            bits = int(math.log2(remaining))
            f = 1 << int(math.ceil(bits / i))
        factors.append(f)
        remaining = max(1, int(math.ceil(remaining / f)))
    factors.sort(reverse=True)
    return factors


def level_plan(p: int, levels: int, node_size: int = 16) -> List[int]:
    """Group counts ``r_1 .. r_k`` per recursion level for ``p`` PEs.

    The product of the returned counts is at least ``p`` (groups of the last
    level are single PEs / nodes).  Reproduces Table 1 of the paper for the
    power-of-two configurations used there:

    >>> level_plan(512, 2)
    [32, 16]
    >>> level_plan(32768, 3)
    [64, 32, 16]

    For ``levels == 1`` the single level must split all the way down to
    single PEs, i.e. ``r_1 = p`` (the paper's Table 1 lists the node size in
    this row, which only describes the node-internal final grouping).
    """
    if p <= 0:
        raise ValueError("p must be positive")
    if levels <= 0:
        raise ValueError("need at least one level")
    if levels == 1:
        return [p]
    node_size = max(1, min(node_size, p))
    last = node_size
    remaining = int(math.ceil(p / last))
    if remaining <= 1:
        # Fewer PEs than one node: split evenly across the requested levels.
        return _near_equal_factors(p, levels)
    head = _near_equal_factors(remaining, levels - 1)
    return head + [last]


@dataclass(frozen=True)
class AMSConfig:
    """Configuration of AMS-sort.

    Every level delivers through the 1-factor style sparse exchange, which
    skips empty messages (Section 4.3); the group counts per level come from
    :func:`level_plan`.

    Attributes
    ----------
    levels:
        Number of recursion levels ``k``.
    sampling:
        Explicit :class:`SamplingParams` (oversampling ``a``,
        overpartitioning ``b``).  ``None`` selects the paper's experimental
        defaults (``b = 16``, ``a = 1.6 log10 n``) at run time.
    delivery:
        Data delivery strategy (see :data:`DELIVERY_METHODS`).
    node_size:
        Group size targeted by the last level (Table 1 uses 16).
    """

    levels: int = 2
    sampling: Optional[SamplingParams] = None
    delivery: str = "deterministic"
    node_size: int = 16

    def __post_init__(self) -> None:
        if self.levels < 1:
            raise ValueError("AMS-sort needs at least one level")
        if self.delivery not in DELIVERY_METHODS:
            raise ValueError(f"unknown delivery method {self.delivery!r}")
        if self.node_size < 1:
            raise ValueError("node_size must be positive")

    # ------------------------------------------------------------------
    def plan_for(self, p: int) -> List[int]:
        """Group counts per level for a machine of ``p`` PEs."""
        return level_plan(p, self.levels, node_size=self.node_size)

    def sampling_for(self, n_total: int) -> SamplingParams:
        """Sampling parameters, defaulting to the paper's experimental choice."""
        if self.sampling is not None:
            return self.sampling
        return SamplingParams(
            oversampling=default_oversampling(max(n_total, 2)),
            overpartitioning=16,
            per_pe=True,
        )


@dataclass(frozen=True)
class RLMConfig:
    """Configuration of RLM-sort (Recurse Last Multiway Mergesort).

    Like AMS-sort, every level delivers through the sparse exchange and
    takes its group counts from :func:`level_plan`.

    Attributes
    ----------
    levels:
        Number of recursion levels ``k``.
    delivery:
        Data delivery strategy.
    node_size:
        Group size targeted by the last level.
    """

    levels: int = 2
    delivery: str = "deterministic"
    node_size: int = 16

    def __post_init__(self) -> None:
        if self.levels < 1:
            raise ValueError("RLM-sort needs at least one level")
        if self.delivery not in DELIVERY_METHODS:
            raise ValueError(f"unknown delivery method {self.delivery!r}")
        if self.node_size < 1:
            raise ValueError("node_size must be positive")

    def plan_for(self, p: int) -> List[int]:
        """Group counts per level for a machine of ``p`` PEs."""
        return level_plan(p, self.levels, node_size=self.node_size)
