"""Validation of distributed sorting outputs.

The output requirement of the paper (Section 1): the PEs store a permutation
of the input elements such that the elements on each PE are sorted and no
element on PE ``i`` is larger than any element on PE ``i + 1``.  AMS-sort
additionally guarantees at most a ``(1 + eps)`` imbalance of the per-PE
output sizes, which :func:`output_imbalance` measures.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np


def _concat_nonempty(arrays: Sequence[np.ndarray]) -> Optional[np.ndarray]:
    """The non-empty arrays back to back; ``None`` when there is none."""
    pieces = [a for a in map(np.asarray, arrays) if a.size > 0]
    if not pieces:
        return None
    return np.concatenate(pieces) if len(pieces) > 1 else pieces[0]


def _is_sorted(flat: Optional[np.ndarray]) -> bool:
    return flat is None or not bool(np.any(flat[1:] < flat[:-1]))


def _same_multiset(
    flat_in: Optional[np.ndarray], flat_out: Optional[np.ndarray], out_sorted: bool
) -> bool:
    """True when both hold the same elements; sorts ``flat_out`` only if unsorted.

    Comparing values needs no stable sort, and numpy's default sort is
    about ten times faster than its stable one on int64 keys.
    """
    if flat_in is None or flat_out is None:
        return flat_in is None and flat_out is None
    if flat_in.size != flat_out.size:
        return False
    if not out_sorted:
        flat_out = np.sort(flat_out)
    return bool(np.array_equal(np.sort(flat_in), flat_out))


def check_globally_sorted(output: Sequence[np.ndarray]) -> bool:
    """True when every PE's data is sorted and PE boundaries are monotone.

    Empty PEs are skipped, so this is one comparison of neighbours over the
    concatenated non-empty outputs.
    """
    return _is_sorted(_concat_nonempty(output))


def check_permutation(
    input_data: Sequence[np.ndarray], output: Sequence[np.ndarray]
) -> bool:
    """True when the output is a permutation of the input (as multisets)."""
    flat_out = _concat_nonempty(output)
    return _same_multiset(_concat_nonempty(input_data), flat_out, _is_sorted(flat_out))


def output_imbalance(output: Sequence[np.ndarray]) -> float:
    """Relative imbalance ``max_i |out_i| / (n / p) - 1`` of the output sizes.

    Returns 0 for an empty input.  This is the quantity plotted in
    Figure 10 of the paper ("maximum imbalance among groups").
    """
    sizes = np.array([int(np.asarray(a).size) for a in output], dtype=np.float64)
    total = sizes.sum()
    if total == 0:
        return 0.0
    mean = total / sizes.size
    return float(sizes.max() / mean - 1.0)


def validate_output(
    input_data: Sequence[np.ndarray],
    output: Sequence[np.ndarray],
    max_imbalance: float | None = None,
) -> Dict[str, object]:
    """Full output validation; raises :class:`AssertionError` on violation.

    Returns a dictionary of the measured properties so callers can log them.
    A globally sorted output is compared with the sorted input as it is, so
    only the input is sorted.
    """
    flat_out = _concat_nonempty(output)
    sorted_ok = _is_sorted(flat_out)
    perm_ok = _same_multiset(_concat_nonempty(input_data), flat_out, sorted_ok)
    imbalance = output_imbalance(output)
    if not sorted_ok:
        raise AssertionError("output is not globally sorted")
    if not perm_ok:
        raise AssertionError("output is not a permutation of the input")
    if max_imbalance is not None and imbalance > max_imbalance:
        raise AssertionError(
            f"output imbalance {imbalance:.4f} exceeds allowed {max_imbalance:.4f}"
        )
    return {
        "globally_sorted": sorted_ok,
        "permutation": perm_ok,
        "imbalance": imbalance,
        "total_elements": int(sum(np.asarray(a).size for a in output)),
    }
