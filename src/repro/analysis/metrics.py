"""Scalar metrics used by the experiment campaign (slowdown, run summaries)."""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np


def slowdown(time: float, reference_time: float) -> float:
    """Ratio ``time / reference_time`` (Figure 7 plots RLM/AMS slowdown)."""
    if reference_time <= 0:
        raise ValueError("reference time must be positive")
    return float(time / reference_time)


def summarize_runs(times: Sequence[float]) -> Dict[str, float]:
    """Median / min / max / spread of repeated measurements (Figure 12)."""
    arr = np.asarray(list(times), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("no measurements to summarize")
    med = float(np.median(arr))
    return {
        "median": med,
        "min": float(arr.min()),
        "max": float(arr.max()),
        "mean": float(arr.mean()),
        "spread": float(arr.max() - arr.min()),
        "relative_spread": float((arr.max() - arr.min()) / med) if med > 0 else 0.0,
        "runs": int(arr.size),
    }
