"""Wall-budget and determinism smoke runs of the flat engine at scale.

Every case sorts one input with one or more (algorithm, configuration)
variants.  Each run takes a fresh ``SimulatedMachine(p, seed=0)``, runs
with ``validate=True`` and must finish within the case's wall budget;
when a case runs a variant twice, both runs must agree on every output and
on the modelled time.  The tier-1 suites check the same paths only at
p <= 64, so these runs catch a per-island Python fallback or a quadratic
step long before the full benchmark does.  Run one case by name:

    PYTHONPATH=src python benchmarks/perf_smoke.py ams-deliveries
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.core.config import AMSConfig, RLMConfig
from repro.core.runner import distribute_array, run_on_machine
from repro.sim.machine import SimulatedMachine
from repro.workloads import per_pe_workload

DELIVERIES = ("naive", "randomized", "advanced")

# name: (p, keys, runs per variant, wall budget in s, variants).  ``keys``
# names a ``per_pe_workload`` input with 1000 keys per PE and seed 1, or
# is "random62": p * 1000 keys drawn uniformly below 2**62 by
# ``default_rng(1)`` and distributed in equal blocks.  A variant is
# (label, algorithm, config); ``None`` takes the algorithm's defaults.
CASES = {
    # Every intermediate level runs as a whole-machine batch (about 1.1 s
    # on bare metal).
    "ams-levels3": (4096, "random62", 1, 30, [
        ("AMS levels=3", "ams", AMSConfig(levels=3)),
    ]),
    # The multisequence selection dominates RLM-sort's wall; Zipf keys put
    # duplicate runs across PEs (about 1.6 s on a 2-core host).
    "rlm-zipf": (4096, "zipf", 2, 30, [
        ("RLM levels=3", "rlm", RLMConfig(levels=3)),
    ]),
    # Equal keys are never split between groups, so AMS-sort's outputs are
    # skewed (imbalance about 256) and the final local sort takes its
    # per-segment path (about 1.5 s on a 2-core host).
    "ams-duplicates": (4096, "duplicates", 2, 30, [
        ("AMS duplicates levels=3", "ams", AMSConfig(levels=3)),
    ]),
    # The steps above deliver deterministically; the other deliveries read
    # AMS-sort's column-major piece plane through their own assignments
    # (the advanced one also at the final level).
    "ams-deliveries": (4096, "uniform", 2, 30, [
        (f"AMS {d} levels=3", "ams", AMSConfig(levels=3, delivery=d))
        for d in DELIVERIES
    ]),
    # RLM-sort hands every level's row-major (island, PE, group) piece
    # sizes to the delivery as one flat vector (about 1.2 s naive and
    # 1.8 s advanced on a 2-core host).
    "rlm-deliveries": (4096, "uniform", 2, 30, [
        (f"RLM {d} levels=3", "rlm", RLMConfig(levels=3, delivery=d))
        for d in DELIVERIES
    ]),
    # Quicksort runs one batched level per recursion depth (twelve at
    # p=4096), sample sort one level into single PEs, both delivering
    # naively over the column-major piece plane (about 2 s each on a
    # 2-core host).
    "baselines": (4096, "uniform", 2, 10, [
        ("quicksort", "quicksort", None),
        ("samplesort", "samplesort", None),
    ]),
    # Mergesort's exact p-way split is one multisequence selection over the
    # whole machine (about 6 s on a 2-core host).
    "mergesort": (1024, "uniform", 2, 60, [
        ("mergesort", "mergesort", None),
    ]),
}


def case_input(p: int, keys: str):
    if keys == "random62":
        rng = np.random.default_rng(1)
        data = rng.integers(0, 2 ** 62, size=p * 1000, dtype=np.int64)
        return distribute_array(data, p)
    return per_pe_workload(keys, p, 1000, seed=1)


def run_case(name: str) -> None:
    p, keys, runs, budget, variants = CASES[name]
    data = case_input(p, keys)
    for label, algorithm, config in variants:
        results = []
        for attempt in range(1, runs + 1):
            machine = SimulatedMachine(p, seed=0)
            t0 = time.perf_counter()
            res = run_on_machine(machine, data, algorithm=algorithm,
                                 config=config, validate=True)
            wall = time.perf_counter() - t0
            print(f"p={p} {label} run {attempt}: wall={wall:.2f}s "
                  f"modelled={res.total_time:.6f}s "
                  f"imbalance={res.imbalance:.1f}", flush=True)
            assert wall < budget, \
                f"p={p} {label} run blew its {budget}s wall budget ({wall:.1f}s)"
            results.append(res)
        first = results[0]
        for again in results[1:]:
            assert first.total_time == again.total_time, \
                f"{label}: modelled time differs between runs"
            assert len(first.output) == len(again.output) == p
            assert all(np.array_equal(a, b)
                       for a, b in zip(first.output, again.output)), \
                f"{label}: outputs differ between runs"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("case", choices=sorted(CASES))
    run_case(parser.parse_args().case)


if __name__ == "__main__":
    main()
