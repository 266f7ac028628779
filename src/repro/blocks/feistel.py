"""Pseudorandom permutations from Feistel networks (Appendix B).

The randomized data-delivery algorithms permute PE numbers and piece indices
pseudorandomly.  Appendix B of the paper constructs such permutations by
chaining Feistel rounds: represent ``i`` as a pair ``(a, b)`` with
``i = a + b * s`` (``s = ceil(sqrt(n))``) and apply

    pi_f((a, b)) = (b, (a + f(b)) mod s)

for a pseudorandom function ``f``.  Chaining three to four Feistel rounds
yields a permutation of ``0 .. s^2 - 1`` that behaves pseudorandomly; a
permutation of ``0 .. n - 1`` is obtained by *cycle walking* (iterating until
the image falls below ``n``).  The description requires only the round keys,
so it can be replicated on every PE without communication — exactly why the
paper uses this construction instead of exchanging an explicit permutation.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np

from repro.dist.ctr_rng import CounterRNG


@lru_cache(maxsize=4096)
def _round_keys(seed: int, rounds: int) -> Tuple[int, ...]:
    """The first ``rounds`` words of counter stream ``(0, 0)`` under ``seed``.

    Memoised: a delivery builds one permutation per group of every island
    from a handful of seeds (4,385 permutations in one three-level AMS-sort
    with the advanced delivery at p = 4096), and one Philox call on four
    lanes costs about 0.14 ms on a 2-core Xeon.
    """
    return tuple(CounterRNG(seed).words(0, 0, np.arange(rounds)).tolist())


def _mix(x: np.ndarray, key: int) -> np.ndarray:
    """A cheap integer hash used as the Feistel round function ``f``.

    The constants are the 64-bit SplitMix64 finalizer; quality far exceeds
    what the delivery algorithms need (they only require that the permutation
    does not correlate with the input ordering).
    """
    x = (x.astype(np.uint64) + np.uint64(key)) & np.uint64(0xFFFFFFFFFFFFFFFF)
    x ^= x >> np.uint64(30)
    x = (x * np.uint64(0xBF58476D1CE4E5B9)) & np.uint64(0xFFFFFFFFFFFFFFFF)
    x ^= x >> np.uint64(27)
    x = (x * np.uint64(0x94D049BB133111EB)) & np.uint64(0xFFFFFFFFFFFFFFFF)
    x ^= x >> np.uint64(31)
    return x


class FeistelPermutation:
    """A pseudorandom permutation of ``0 .. n - 1``.

    Parameters
    ----------
    n:
        Size of the domain.
    seed:
        Seed for the round keys, which are the first counter words of a
        :class:`~repro.dist.ctr_rng.CounterRNG` keyed by it (replicated
        state — two PEs constructing the permutation with the same ``n``
        and ``seed`` obtain the same mapping).
    rounds:
        Number of Feistel rounds; the paper chains three to four rounds
        [23, 25], four is the default.
    """

    def __init__(self, n: int, seed: int = 0, rounds: int = 4):
        if n <= 0:
            raise ValueError("permutation domain must be non-empty")
        if rounds < 1:
            raise ValueError("need at least one Feistel round")
        self.n = int(n)
        self.rounds = int(rounds)
        self.side = int(np.ceil(np.sqrt(self.n)))
        self.square = self.side * self.side
        self.keys = _round_keys(int(seed), self.rounds)

    # ------------------------------------------------------------------
    def _feistel_square(self, x: np.ndarray) -> np.ndarray:
        """Apply the chained Feistel rounds on the domain ``0 .. side^2 - 1``."""
        side = np.uint64(self.side)
        x = np.asarray(x).astype(np.uint64)
        a = (x % side).astype(np.uint64)
        b = (x // side).astype(np.uint64)
        for key in self.keys:
            a, b = b, (a + _mix(b, key) % side) % side
        return (a + b * side).astype(np.int64)

    def apply(self, values: np.ndarray | int) -> np.ndarray | int:
        """Map ``values`` (scalars or arrays in ``0..n-1``) through the permutation."""
        scalar = np.isscalar(values)
        x = np.atleast_1d(np.asarray(values, dtype=np.int64))
        if np.any(x < 0) or np.any(x >= self.n):
            raise ValueError("value outside the permutation domain")
        out = x.astype(np.uint64)
        # Cycle walking: re-apply the square permutation until the image is
        # inside 0..n-1.  Expected number of iterations is below 2 because
        # side^2 < 4 n.
        pending = np.ones(out.shape, dtype=bool)
        result = np.empty_like(out, dtype=np.int64)
        current = out.astype(np.int64)
        guard = 0
        while pending.any():
            mapped = self._feistel_square(current[pending])
            inside = mapped < self.n
            idx = np.flatnonzero(pending)
            done_idx = idx[inside]
            result[done_idx] = mapped[inside]
            still = idx[~inside]
            current[still] = mapped[~inside]
            pending[:] = False
            pending[still] = True
            guard += 1
            if guard > 4 * self.square + 10:  # pragma: no cover - safety net
                raise RuntimeError("cycle walking failed to terminate")
        return int(result[0]) if scalar else result

    def permutation_array(self) -> np.ndarray:
        """The full permutation as an array ``perm[i] = pi(i)`` (for tests / small n)."""
        return np.asarray(self.apply(np.arange(self.n, dtype=np.int64)))
