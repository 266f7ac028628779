"""Sampling parameters and distributed sample drawing for AMS-sort.

AMS-sort (Section 6) chooses a random sample controlled by two tuning
parameters:

* the **oversampling factor** ``a`` — more samples per splitter improve the
  accuracy of every splitter,
* the **overpartitioning factor** ``b`` — the algorithm creates ``b * r``
  buckets but only ``r`` PE groups, which lets the bucket-grouping step
  compensate sampling noise and reduces the required sample size for an
  ``eps`` imbalance from ``O(1/eps^2)`` to ``O(1/eps)`` (Lemma 2).

The paper's experiments use ``b = 16`` and ``a = 1.6 * log10(n)``
(Section 7.2); Figure 10/11 sweep ``a`` and ``b``.  The helpers here
reproduce that parameterisation and draw the per-PE samples.

Since PR 3 the sample positions come from the machine's counter-based RNG
(:class:`~repro.dist.ctr_rng.CounterRNG`): position ``j`` of PE ``i`` at
recursion level ``l`` is ``philox(seed, l, i, j) mod local_size`` — drawn
with replacement, one vectorised call for the whole machine per level, and
byte-identical between the flat engine and the per-PE reference because the
draw depends only on its coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Union

import numpy as np

from repro.dist.array import DistArray
from repro.dist.ctr_rng import CounterRNG
from repro.dist.flatops import concat_ranges


def default_oversampling(n_total: int) -> float:
    """The oversampling factor used in the paper's experiments: ``1.6 * log10(n)``."""
    if n_total <= 1:
        return 1.0
    return max(1.0, 1.6 * math.log10(n_total))


@dataclass(frozen=True)
class SamplingParams:
    """Sampling configuration for one level of AMS-sort.

    Attributes
    ----------
    oversampling:
        The factor ``a``.
    overpartitioning:
        The factor ``b`` (``b = 1`` disables overpartitioning and recovers a
        classic sample sort splitter selection).
    per_pe:
        If True (the paper's implementation), every PE contributes
        ``ceil(a * b)`` samples, i.e. the total sample has ``~ a*b*p``
        elements.  If False (the theoretical variant of Section 6), the
        *global* sample has ``ceil(a * b * r)`` elements, spread evenly over
        the PEs.
    """

    oversampling: float = 8.0
    overpartitioning: int = 16
    per_pe: bool = True

    def __post_init__(self) -> None:
        if self.oversampling <= 0:
            raise ValueError("oversampling factor a must be positive")
        if self.overpartitioning < 1:
            raise ValueError("overpartitioning factor b must be at least 1")

    # ------------------------------------------------------------------
    def num_buckets(self, r: int) -> int:
        """Number of buckets ``b * r`` created at a level with ``r`` groups."""
        if r < 1:
            raise ValueError("need at least one group")
        return int(self.overpartitioning) * int(r)

    def num_splitters(self, r: int) -> int:
        """Number of splitters ``b*r - 1``."""
        return max(0, self.num_buckets(r) - 1)

    def samples_per_pe(self, p: int, r: int) -> int:
        """Number of sample elements each PE contributes."""
        if p < 1:
            raise ValueError("need at least one PE")
        if self.per_pe:
            return max(1, int(math.ceil(self.oversampling * self.overpartitioning)))
        total = int(math.ceil(self.oversampling * self.overpartitioning * r))
        return max(1, int(math.ceil(total / p)))

    def total_samples(self, p: int, r: int) -> int:
        """Total size of the sample over all PEs."""
        return self.samples_per_pe(p, r) * p

    @staticmethod
    def paper_defaults(n_total: int, overpartitioning: int = 16) -> "SamplingParams":
        """The configuration used in Section 7.2 of the paper."""
        return SamplingParams(
            oversampling=default_oversampling(n_total),
            overpartitioning=overpartitioning,
            per_pe=True,
        )

    @staticmethod
    def theory(eps: float, r: int) -> "SamplingParams":
        """Theoretical parameter choice of Lemma 2: ``b = Theta(1/eps)``, ``ab = Theta(log r)``."""
        if eps <= 0:
            raise ValueError("imbalance eps must be positive")
        b = max(1, int(math.ceil(2.0 / eps)))
        ab = max(float(b), math.log(max(r, 2)) * 2.0)
        a = max(1.0, ab / b)
        return SamplingParams(oversampling=a, overpartitioning=b, per_pe=False)


def draw_samples_flat(
    data: DistArray,
    counts: Union[int, np.ndarray],
    rng: CounterRNG,
    level: int,
    pes: np.ndarray,
) -> DistArray:
    """Counter-RNG sample drawing for a whole machine (or batch) at once.

    This is the *single* sampling code path of both engines: PE segment
    ``i`` of ``data`` contributes ``counts[i]`` elements drawn uniformly
    (with replacement) at the positions

        ``rng.integers(level, pes[i], j, segment_size_i)``  for ``j < counts[i]``

    — a pure function of ``(machine seed, level, global PE, draw index)``,
    so the whole batch is one vectorised Philox call plus one gather, with
    no per-PE loop, and a per-PE invocation (``data`` restricted to one
    segment) yields byte-identical values.  Empty segments contribute empty
    samples.

    Parameters
    ----------
    data:
        The distributed values to sample from.
    counts:
        Samples per segment (scalar or one entry per segment).
    rng:
        The machine's :attr:`~repro.sim.machine.SimulatedMachine.sample_rng`.
    level:
        Recursion level (stream selector).
    pes:
        Global PE index of every segment (stream selector); for a
        whole-machine draw this is ``comm.members``.
    """
    p = data.p
    pes = np.asarray(pes, dtype=np.int64)
    if pes.shape != (p,):
        raise ValueError("need one global PE index per segment")
    sizes = data.sizes()
    counts = np.broadcast_to(np.asarray(counts, dtype=np.int64), (p,))
    if counts.size and int(counts.min(initial=0)) < 0:
        raise ValueError("sample counts must be non-negative")
    eff = np.where(sizes > 0, counts, 0)
    total = int(eff.sum())
    if total == 0:
        return DistArray(np.empty(0, dtype=data.dtype), np.zeros(p + 1, np.int64))
    seg = np.repeat(np.arange(p, dtype=np.int64), eff)
    # Draw j of stream (level, pe) is 32-bit word j mod 4 of Philox block
    # j div 4 — one block feeds four sample positions, quartering the
    # Philox work.  Blocks are evaluated per (segment, block index) lane;
    # the per-draw words are then gathered out of each segment's block
    # prefix.  32-bit words limit segment sizes to 2**31 (far above any
    # simulated per-PE load; the modulo bias at realistic sizes is < 1e-3).
    if sizes.size and int(sizes.max(initial=0)) >= 2 ** 31:
        raise ValueError("segment too large for 32-bit sample positions")
    lane_counts = (eff + 3) >> 2
    n_lanes = int(lane_counts.sum())
    lane_seg = np.repeat(np.arange(p, dtype=np.int64), lane_counts)
    lane_excl = np.cumsum(lane_counts) - lane_counts
    lane_idx = np.arange(n_lanes, dtype=np.int64) - lane_excl[lane_seg]
    y0, y1, y2, y3 = rng.blocks(level, pes[lane_seg], lane_idx)
    words = np.empty((n_lanes, 4), dtype=np.uint64)
    words[:, 0] = y0
    words[:, 1] = y1
    words[:, 2] = y2
    words[:, 3] = y3
    draw_words = words.reshape(-1)[concat_ranges(lane_excl * 4, eff)]
    draw_sizes = sizes[seg].astype(np.uint64) if int(sizes.min()) != int(sizes.max()) \
        else np.uint64(sizes[0])
    pos = (draw_words % draw_sizes).astype(np.int64)
    values = data.values[data.offsets[seg] + pos]
    return DistArray.from_sizes(values, eff)


def draw_samples(
    local_data: Sequence[np.ndarray],
    params: SamplingParams,
    p: int,
    r: int,
    rng: CounterRNG,
    level: int,
    pes: np.ndarray,
) -> List[np.ndarray]:
    """Draw the per-PE samples for one AMS-sort level (reference view).

    A thin list-of-arrays wrapper over :func:`draw_samples_flat` — the
    per-PE reference specification and the flat engine share the one
    counter-RNG sampling helper, which is what keeps their drawn samples
    byte-identical without replaying stateful per-PE streams.
    """
    if len(local_data) != p:
        raise ValueError("need one local array per PE")
    per_pe = params.samples_per_pe(p, r)
    dist = DistArray.from_list([np.asarray(d) for d in local_data])
    return draw_samples_flat(dist, per_pe, rng, level, pes).to_list()


def splitter_ranks(sample_size: int, num_splitters: int) -> np.ndarray:
    """Equidistant ranks used to pick splitters from the sorted sample.

    Splitter ``i`` (``0 <= i < num_splitters``) is the sample element of rank
    ``floor((i + 1) * sample_size / (num_splitters + 1))`` (0-based, clamped).
    """
    if num_splitters <= 0 or sample_size <= 0:
        return np.empty(0, dtype=np.int64)
    ranks = ((np.arange(1, num_splitters + 1) * sample_size) // (num_splitters + 1))
    return np.clip(ranks, 0, sample_size - 1).astype(np.int64)
