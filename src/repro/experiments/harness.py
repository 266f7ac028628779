"""Scale profiles, the paper's reference tables and per-cell algorithm configs.

A campaign (:mod:`repro.experiments.campaign`) reads its machine sizes,
input sizes and repetitions from a scale profile here, builds each cell's
algorithm configuration with :func:`build_algo_config`, and the serial CLI
prints the paper's Tables 1 and 2 next to the reproduced ones.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from repro.core.config import AMSConfig, RLMConfig


#: Scaled-down stand-ins for the paper's configurations.  The paper runs
#: p in {512, 2048, 8192, 32768} with n/p in {1e5, 1e6, 1e7}; a pure-Python
#: simulation must shrink both, keeping the *ratios* (per-PE work vs startup
#: cost) in a regime where the paper's qualitative effects are visible.
SCALE_PROFILES: Dict[str, Dict[str, object]] = {
    "tiny": {
        # Golden-trace profile: small enough that a full campaign runs in
        # seconds inside the tier-1 test-suite, large enough that every
        # experiment produces non-degenerate rows (p > node_size so multi-level
        # plans exist).
        "p_values": (8, 16),
        "n_per_pe_values": (60, 240),
        "repetitions": 2,
        "node_size": 4,
    },
    "quick": {
        "p_values": (16, 64, 256),
        "n_per_pe_values": (200, 2000, 20000),
        "repetitions": 3,
        "node_size": 4,
    },
    "medium": {
        "p_values": (64, 256, 1024),
        "n_per_pe_values": (500, 5000, 50000),
        "repetitions": 3,
        "node_size": 8,
    },
    "large": {
        "p_values": (512, 2048, 8192),
        "n_per_pe_values": (1000, 10000, 100000),
        "repetitions": 3,
        "node_size": 16,
    },
    "paper": {
        # The paper's machine sizes (Table 2 / Figs. 7-12).  Only the flat
        # engine can simulate these; the per-PE reference is infeasible past
        # ~1024 PEs, so campaign cells above `reference_max_p` are pinned by a
        # seeded-determinism re-run (like bench_engine_scaling) instead of a
        # cross-engine comparison, and skip output validation above
        # `validate_max_p`.  n/p is scaled down (the paper's 1e5..1e7 does not
        # fit a pure-Python simulation); the level policy follows Table 1:
        # three levels at p = 2^15, two below.
        "p_values": (512, 2048, 8192, 32768),
        "n_per_pe_values": (1000,),
        "repetitions": 1,
        "node_size": 16,
        "engine": "flat",
        "level_counts": "paper",
        "experiments": ("weak_scaling",),
        "workloads": ("uniform",),
        "validate_max_p": 1024,
        "reference_max_p": 1024,
    },
    "beyond": {
        # Past the paper (its largest machine is p = 2^15): "million-PE"
        # extrapolation rows, flat engine only, three levels each (the
        # "paper" level policy).  n/p is shrunk further so the p = 2^20
        # row's element count (2.7e8) stays simulable; every cell is above
        # `reference_max_p`, so the campaign pins it with a seeded
        # determinism re-run instead of a cross-engine comparison.  The
        # workspace arena bounds the per-level temporaries — see the README
        # "Memory & the beyond-paper tier" section.
        "p_values": (131072, 1048576),
        "n_per_pe_values": (256,),
        "repetitions": 1,
        "node_size": 16,
        "engine": "flat",
        "level_counts": "paper",
        "experiments": ("weak_scaling",),
        "workloads": ("uniform",),
        "validate_max_p": 1024,
        "reference_max_p": 1024,
        # Beyond-tier rows are single multi-minute simulations; a wedged
        # one (host swap death spiral) must fail the cell, not the run.
        # Generous: the p = 2^20 row takes ~2-3 minutes on one core.
        "cell_timeout_s": 1800.0,
    },
}

#: The machine sizes of the paper, for side-by-side reporting.
PAPER_P_VALUES = (512, 2048, 8192, 32768)

#: Table 1 of the paper: the group count r of every level (1-indexed) of a
#: k-level plan on SuperMUC, keyed by k and then p.
PAPER_TABLE1: Dict[int, Dict[int, List[int]]] = {
    1: {512: [16], 2048: [16], 8192: [16], 32768: [16]},
    2: {512: [32, 16], 2048: [128, 16], 8192: [512, 16], 32768: [2048, 16]},
    3: {512: [8, 4, 16], 2048: [16, 8, 16], 8192: [32, 16, 16], 32768: [64, 32, 16]},
}

#: Table 2 of the paper: median wall-times (seconds) of AMS-sort.
PAPER_TABLE2_SECONDS: Dict[int, Dict[int, float]] = {
    10**5: {512: 0.0228, 2048: 0.0277, 8192: 0.0359, 32768: 0.0707},
    10**6: {512: 0.2212, 2048: 0.2589, 8192: 0.2687, 32768: 0.9171},
    10**7: {512: 2.6523, 2048: 2.9797, 8192: 4.0625, 32768: 6.0932},
}


def paper_reference_rows() -> List[Dict[str, object]]:
    """The paper's Table 2 (median wall-times on SuperMUC) as printable rows."""
    return [
        {"n_per_pe": n_per_pe, "p": p, "paper_time_s": seconds}
        for n_per_pe, by_p in sorted(PAPER_TABLE2_SECONDS.items())
        for p, seconds in sorted(by_p.items())
    ]


def scale_profile(name: Optional[str] = None) -> Dict[str, object]:
    """Return the scale profile selected by ``name`` or ``$REPRO_SCALE``."""
    if name is None:
        name = os.environ.get("REPRO_SCALE", "quick")
    name = name.lower()
    if name not in SCALE_PROFILES:
        known = ", ".join(sorted(SCALE_PROFILES))
        raise KeyError(f"unknown scale profile {name!r}; known: {known}")
    return dict(SCALE_PROFILES[name])


def build_algo_config(
    algorithm: str,
    p: int,
    n_per_pe: int,
    levels: int,
    node_size: int,
    delivery: str = "deterministic",
    overpartitioning: Optional[int] = None,
    oversampling: Optional[float] = None,
):
    """Algorithm config for one campaign cell.

    Baselines take no config (``None``); AMS-sort optionally gets explicit
    sampling parameters when the experiment sweeps them.
    """
    if algorithm == "ams":
        sampling = None
        if overpartitioning is not None or oversampling is not None:
            from repro.blocks.sampling import SamplingParams, default_oversampling

            sampling = SamplingParams(
                oversampling=(
                    oversampling
                    if oversampling is not None
                    else default_oversampling(p * n_per_pe)
                ),
                overpartitioning=(
                    overpartitioning if overpartitioning is not None else 16
                ),
                per_pe=True,
            )
        return AMSConfig(
            levels=levels, node_size=node_size, delivery=delivery, sampling=sampling
        )
    if algorithm == "rlm":
        return RLMConfig(levels=levels, node_size=node_size, delivery=delivery)
    return None
