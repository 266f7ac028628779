"""Validation of distributed sorting outputs.

The output requirement of the paper (Section 1): the PEs store a permutation
of the input elements such that the elements on each PE are sorted and no
element on PE ``i`` is larger than any element on PE ``i + 1``.  AMS-sort
additionally guarantees at most a ``(1 + eps)`` imbalance of the per-PE
output sizes, which :func:`output_imbalance` measures.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np


def check_globally_sorted(output: Sequence[np.ndarray]) -> bool:
    """True when every PE's data is sorted and PE boundaries are monotone."""
    prev_max = None
    for arr in output:
        arr = np.asarray(arr)
        if arr.size == 0:
            continue
        if arr.size > 1 and np.any(arr[1:] < arr[:-1]):
            return False
        if prev_max is not None and arr[0] < prev_max:
            return False
        prev_max = arr[-1]
    return True


def check_permutation(
    input_data: Sequence[np.ndarray], output: Sequence[np.ndarray]
) -> bool:
    """True when the output is a permutation of the input (as multisets)."""
    in_pieces = [np.asarray(a) for a in input_data if np.asarray(a).size > 0]
    out_pieces = [np.asarray(a) for a in output if np.asarray(a).size > 0]
    total_in = int(sum(a.size for a in in_pieces))
    total_out = int(sum(a.size for a in out_pieces))
    if total_in != total_out:
        return False
    if total_in == 0:
        return True
    all_in = np.sort(np.concatenate(in_pieces), kind="stable")
    all_out = np.sort(np.concatenate(out_pieces), kind="stable")
    return bool(np.array_equal(all_in, all_out))


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
    """
    sorted_ok = check_globally_sorted(output)
    perm_ok = check_permutation(input_data, output)
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
