"""Shared helpers for the benchmark suite.

Every benchmark regenerates one table or figure of the paper on a scaled-down
configuration (pure-Python simulation cannot hold 32768 PEs with 10^7
elements each).  The wall-clock time measured by pytest-benchmark is the cost
of running the *simulation*; the scientific output — the rows/series that
correspond to the paper's tables and figures, expressed in modelled machine
time — is printed to stdout and written to ``benchmarks/results/``.

Scale is controlled by the ``REPRO_BENCH_SCALE`` environment variable:
``quick`` (default, minutes), ``medium``, ``large``.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments.campaign import run_campaign

RESULTS_DIR = Path(__file__).parent / "results"


def bench_scale() -> str:
    """Benchmark scale profile name."""
    return os.environ.get("REPRO_BENCH_SCALE", os.environ.get("REPRO_SCALE", "quick"))


def bench_profile() -> dict:
    """Scaled (p, n/p) grids used by the benchmark suite."""
    profiles = {
        "quick": {
            "p_values": (16, 64),
            "n_per_pe_values": (200, 2000),
            "node_size": 4,
            "repetitions": 1,
        },
        "medium": {
            "p_values": (64, 256),
            "n_per_pe_values": (500, 5000),
            "node_size": 8,
            "repetitions": 2,
        },
        "large": {
            "p_values": (256, 1024, 4096),
            "n_per_pe_values": (1000, 10000),
            "node_size": 16,
            "repetitions": 3,
        },
    }
    return profiles.get(bench_scale(), profiles["quick"])


def campaign_rows(profile: dict, experiment: str, **overrides) -> dict:
    """One experiment's aggregated sections from a serial, uncached campaign.

    The campaign runs the uniform workload alone on ``profile`` with
    ``overrides`` (e.g. ``level_counts``, ``repetitions``) applied.
    """
    summary, _ = run_campaign(
        dict(profile, **overrides), experiments=(experiment,), workloads=("uniform",)
    )
    return summary["experiments"][experiment]


def publish(name: str, text: str) -> None:
    """Print a reproduced table/figure and archive it under benchmarks/results/."""
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text)


@pytest.fixture
def profile():
    """The scaled benchmark profile."""
    return bench_profile()
