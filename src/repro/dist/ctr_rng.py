"""Counter-based (Philox) random streams for whole-machine vectorised draws.

The lockstep engine wants to draw *all* PEs' random decisions of a recursion
level in one vectorised call, while the per-PE reference specification must
see exactly the same values.  Stateful ``np.random.Generator`` streams make
that impossible without a ``for i in range(p)`` loop: each PE's generator
has to be advanced individually, and PR 3 profiling showed that loop as the
largest remaining per-PE Python cost of the flat engine.

A *counter-based* RNG removes the state entirely: every random word is a
pure function ``philox(key, counter)`` of the machine seed and the draw's
logical coordinates.  Here the coordinates are ``(level, pe, index)`` — the
recursion level, the drawing PE and the PE's draw position — so

* one vectorised call over ``(pe, index)`` arrays produces the whole
  machine's draws for a level at once (flat engine),
* the same helper invoked for a single PE produces the identical values
  (reference engine), because nothing other than the coordinates enters the
  function, and
* streams are independent by construction: a draw keyed ``(l, i, j)`` is
  never affected by which other draws have been made (no shared state to
  advance), which is what lets sibling recursion islands batch freely.

The block cipher is Philox-4x32 with 10 rounds (Salmon et al., *Parallel
random numbers: as easy as 1, 2, 3*, SC'11) — the same generator family
``numpy.random.Philox`` uses — implemented directly on uint64 numpy lanes
so a whole array of counters is encrypted per call.
"""

from __future__ import annotations

import numpy as np

# Philox-4x32 round constants (Salmon et al., SC'11).
_PHILOX_M0 = np.uint64(0xD2511F53)
_PHILOX_M1 = np.uint64(0xCD9E8D57)
_PHILOX_W0 = np.uint64(0x9E3779B9)  # golden-ratio Weyl increment
_PHILOX_W1 = np.uint64(0xBB67AE85)  # sqrt(3) - 1 Weyl increment
_MASK32 = np.uint64(0xFFFFFFFF)
_PHILOX_ROUNDS = 10


def _splitmix64(x: int) -> int:
    """One splitmix64 step — spreads nearby machine seeds over the key space."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


# Lanes per block of :func:`philox4x32`: its six uint64 scratch lanes then
# take 768 KiB and stay in L2 through the hundred in-place passes of the
# ten rounds, instead of streaming every pass through memory.  Measured on
# a 2-core Xeon (2 MiB L2 per core), 770k lanes: 53 ms in blocks of 2**14
# or 2**15 lanes, 72 ms at 2**16, 117 ms in one block.
_PHILOX_CHUNK = 1 << 14


def philox4x32(
    c0: np.ndarray, c1: np.ndarray, c2: np.ndarray, c3: np.ndarray,
    k0: int, k1: int,
):
    """Philox-4x32-10 block function on vectorised counters.

    ``c0..c3`` are arrays (or scalars) of 32-bit counter words stored in
    uint64 lanes; ``k0``/``k1`` is the 64-bit key split into 32-bit words.
    Returns the four 32-bit output words (in uint64 lanes), equal to
    Random123's ``philox4x32`` with ten rounds.  All lanes are encrypted
    independently, with no Python loop per lane: the lanes run in blocks of
    ``_PHILOX_CHUNK``, each through all ten rounds while its scratch is
    cache-resident.  The words do not depend on the block size.
    """
    shape = np.broadcast_shapes(
        np.shape(c0), np.shape(c1), np.shape(c2), np.shape(c3)
    )
    out = tuple(np.empty(shape, dtype=np.uint64) for _ in range(4))
    lanes = [o.reshape(-1) for o in out]
    counters = [
        np.broadcast_to(np.asarray(c, dtype=np.uint64), shape).reshape(-1)
        for c in (c0, c1, c2, c3)
    ]
    n = lanes[0].size
    # Two product lanes; every round runs in place (out=), so the ten
    # rounds cost no allocation beyond this scratch and the outputs.
    prod0 = np.empty(min(n, _PHILOX_CHUNK), dtype=np.uint64)
    prod1 = np.empty_like(prod0)
    for lo in range(0, n, _PHILOX_CHUNK):
        hi = min(lo + _PHILOX_CHUNK, n)
        x0, x1, x2, x3 = (lane[lo:hi] for lane in lanes)
        for x, c in zip((x0, x1, x2, x3), counters):
            np.bitwise_and(c[lo:hi], _MASK32, out=x)
        p0 = prod0[:hi - lo]
        p1 = prod1[:hi - lo]
        key0 = np.uint64(k0 & 0xFFFFFFFF)
        key1 = np.uint64(k1 & 0xFFFFFFFF)
        for _ in range(_PHILOX_ROUNDS):
            np.multiply(_PHILOX_M0, x0, out=p0)  # full 32x32 -> 64 bit product
            np.multiply(_PHILOX_M1, x2, out=p1)
            # x0/x2 are consumed by the products; rebuild them from the
            # other half's high word, then turn the products into the new
            # low words.
            np.right_shift(p1, np.uint64(32), out=x0)
            np.bitwise_xor(x0, x1, out=x0)
            np.bitwise_xor(x0, key0, out=x0)
            np.right_shift(p0, np.uint64(32), out=x2)
            np.bitwise_xor(x2, x3, out=x2)
            np.bitwise_xor(x2, key1, out=x2)
            np.bitwise_and(p1, _MASK32, out=x1)
            np.bitwise_and(p0, _MASK32, out=x3)
            key0 = (key0 + _PHILOX_W0) & _MASK32
            key1 = (key1 + _PHILOX_W1) & _MASK32
    return out


class CounterRNG:
    """Stateless Philox streams keyed by ``(machine seed, level, pe)``.

    Every 64-bit random word is ``philox(key(seed), counter(level, pe, i))``
    where ``i`` is the draw index within the ``(level, pe)`` stream.  The
    object carries no mutable state: draws are reproducible regardless of
    call order, machine resets, or how draws are batched across PEs — the
    properties the lockstep sampling path relies on.

    Parameters
    ----------
    seed:
        The machine seed.  It is diffused through splitmix64 into the
        Philox key so that adjacent seeds yield unrelated streams.
    """

    __slots__ = ("seed", "_k0", "_k1")

    def __init__(self, seed: int):
        self.seed = int(seed)
        mixed = _splitmix64(self.seed)
        self._k0 = mixed & 0xFFFFFFFF
        self._k1 = mixed >> 32

    # ------------------------------------------------------------------
    def blocks(self, level, pe, index):
        """All four 32-bit words of Philox block ``index`` of ``(level, pe)``.

        ``level``, ``pe`` and ``index`` broadcast against each other; the
        result is four uint64 arrays holding one 32-bit word each.  Callers
        that need many small draws per stream (the sampling path) consume
        all four words per block — a quarter of the Philox work of one
        block per draw.
        """
        level = np.asarray(level, dtype=np.uint64)
        pe = np.asarray(pe, dtype=np.uint64)
        index = np.asarray(index, dtype=np.uint64)
        return philox4x32(
            index & _MASK32,
            index >> np.uint64(32),
            pe & _MASK32,
            (pe >> np.uint64(32)) ^ (level & _MASK32),
            self._k0,
            self._k1,
        )

    def words(self, level, pe, index) -> np.ndarray:
        """Uniform 64-bit words for draw ``index`` of stream ``(level, pe)``.

        ``level``, ``pe`` and ``index`` broadcast against each other; the
        result is a uint64 array of the broadcast shape (or a 0-d array for
        all-scalar inputs).
        """
        y0, y1, _, _ = self.blocks(level, pe, index)
        return (y1 << np.uint64(32)) | y0

    def integers(self, level, pe, index, bound) -> np.ndarray:
        """Uniform integers in ``[0, bound)`` (per-element bounds allowed).

        Reduction is by modulo; for the simulator's use (sample positions in
        local arrays of at most a few million elements) the bias is below
        ``2**-40`` and irrelevant.  All ``bound`` entries must be positive.
        """
        bound = np.asarray(bound, dtype=np.uint64)
        if bound.size and int(bound.min(initial=1)) < 1:
            raise ValueError("bounds must be positive")
        return (self.words(level, pe, index) % bound).astype(np.int64)

    def uniforms(self, level, pe, index) -> np.ndarray:
        """Uniform float64 values in ``[0, 1)`` (53-bit mantissas)."""
        return (self.words(level, pe, index) >> np.uint64(11)) * (2.0 ** -53)
