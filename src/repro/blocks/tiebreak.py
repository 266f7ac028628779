"""Implicit tie breaking via composite ``(key, PE, position)`` keys (Appendix D).

The paper assumes unique keys w.l.o.g. by conceptually replacing a key ``x``
with the triple ``(x, i, j)`` where ``i`` is the PE the element was input on
and ``j`` its position in the input array.  Appendix D explains how AMS-sort
avoids materialising the triple for most elements (only elements equal to a
splitter ever need the full comparison).

Our distributed algorithms handle duplicates natively (the multiselect and
partition primitives distribute equal elements deterministically by PE
index), so tie breaking is not required for correctness.  This module still
provides the explicit encoding: it reproduces Appendix D, and its tests
compare the encoded keys against a plain stable sort oracle.

The composite key is packed into a single ``int64``
(``key * 2^bits + global_index``), which keeps the element a single machine
word as the paper requires.  Keys that leave no room for the index bits
(floats, integers too wide for ``63 - bits``) cannot be encoded and are
rejected: no engine sorts a wider composite key.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np


def _global_offsets(local_sizes: Sequence[int]) -> np.ndarray:
    sizes = np.asarray(list(local_sizes), dtype=np.int64)
    offsets = np.zeros(sizes.size, dtype=np.int64)
    if sizes.size > 1:
        offsets[1:] = np.cumsum(sizes)[:-1]
    return offsets


def can_encode_inline(local_data: Sequence[np.ndarray]) -> bool:
    """True when the composite keys fit into a single signed 64-bit integer."""
    total = int(sum(np.asarray(d).size for d in local_data))
    if total == 0:
        return True
    bits_needed = int(np.ceil(np.log2(max(total, 2))))
    for d in local_data:
        d = np.asarray(d)
        if d.size == 0:
            continue
        if not np.issubdtype(d.dtype, np.integer):
            return False
        lo, hi = int(d.min()), int(d.max())
        span_bits = 63 - bits_needed
        if hi >= (1 << (span_bits - 1)) or lo < -(1 << (span_bits - 1)):
            return False
    return True


def make_unique_keys(
    local_data: Sequence[np.ndarray],
) -> Tuple[List[np.ndarray], dict]:
    """Replace per-PE keys with unique composite keys.

    Returns ``(unique_data, info)`` where ``info`` holds what is needed to
    undo the transformation with :func:`strip_tiebreak`.  Ordering of the
    composite keys is the lexicographic ordering of ``(key, PE, position)``.

    Raises
    ------
    ValueError
        When the keys do not fit the inline ``int64`` encoding
        (:func:`can_encode_inline`).
    """
    arrays = [np.asarray(d) for d in local_data]
    if not can_encode_inline(arrays):
        raise ValueError(
            "keys do not fit the inline int64 (key, PE, position) encoding"
        )
    sizes = [int(a.size) for a in arrays]
    offsets = _global_offsets(sizes)
    bits = int(np.ceil(np.log2(max(int(sum(sizes)), 2))))
    factor = np.int64(1) << np.int64(bits)
    out: List[np.ndarray] = []
    for a, off in zip(arrays, offsets):
        idx = np.arange(a.size, dtype=np.int64) + off
        out.append(a.astype(np.int64) * factor + idx)
    info = {"mode": "inline", "bits": bits, "sizes": sizes}
    return out, info


def _inline_factor(info: dict) -> np.int64:
    """``2^bits`` of an inline encoding; raises for any other ``info``."""
    mode = info.get("mode")
    if mode != "inline":
        raise ValueError(f"unknown tie-break mode {mode!r}")
    return np.int64(1) << np.int64(info["bits"])


def strip_tiebreak(data: Sequence[np.ndarray], info: dict) -> List[np.ndarray]:
    """Recover the original keys from composite keys produced by :func:`make_unique_keys`."""
    factor = _inline_factor(info)
    return [np.floor_divide(np.asarray(a, dtype=np.int64), factor) for a in data]


def original_positions(data: Sequence[np.ndarray], info: dict) -> List[np.ndarray]:
    """Global input positions encoded in composite keys (for stability checks)."""
    factor = _inline_factor(info)
    return [np.mod(np.asarray(a, dtype=np.int64), factor) for a in data]
