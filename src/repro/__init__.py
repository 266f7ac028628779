"""repro — a reproduction of "Practical Massively Parallel Sorting" (SPAA 2015).

The package implements AMS-sort and RLM-sort (Axtmann, Bingmann, Sanders,
Schulz), all of their building blocks, and the single-level baselines they
are compared against, on top of a deterministic simulator of a
distributed-memory message-passing machine.

Quickstart::

    import numpy as np
    from repro import sort_array, AMSConfig

    rng = np.random.default_rng(0)
    data = rng.integers(0, 10**9, size=200_000)
    result = sort_array(data, p=64, algorithm="ams", config=AMSConfig(levels=2))
    assert np.array_equal(np.concatenate(result.output), np.sort(data))
    print(result.total_time, result.phase_times)

Subpackages
-----------
``repro.machine``   hardware model (spec, topology, cost, counters)
``repro.dist``      flat DistArray execution engine (CSR layout + kernels)
``repro.sim``       bulk-synchronous simulator (machine, communicators, exchange)
``repro.seq``       sequential toolbox (merging, partitioning, selection)
``repro.blocks``    distributed building blocks (multiselect, fast sort,
                    data delivery, bucket grouping, Feistel permutations)
``repro.core``      AMS-sort, RLM-sort, baselines, configuration, runner
``repro.workloads`` input generators, sort-benchmark records, Morton codes
``repro.analysis``  theoretical cost model, metrics, table formatting
``repro.experiments`` the campaign reproducing the paper's tables and figures
                    (one definition per experiment; the CLI's figure names
                    are views of it)
"""

from repro.core.config import AMSConfig, RLMConfig, level_plan
from repro.core.ams_sort import ams_sort
from repro.core.rlm_sort import rlm_sort
from repro.core.baselines import (
    single_level_sample_sort,
    single_level_mergesort,
    parallel_quicksort,
)
from repro.core.runner import SortResult, run_on_machine, sort_array, distribute_array
from repro.machine.spec import (
    MachineSpec,
    supermuc_like,
    cray_xt4_like,
    cray_xe6_like,
    generic_cluster,
    laptop_like,
)
from repro.sim.machine import SimulatedMachine
from repro.sim.comm import Comm
from repro.dist.array import DistArray

__version__ = "1.0.0"

__all__ = [
    "AMSConfig",
    "RLMConfig",
    "level_plan",
    "ams_sort",
    "rlm_sort",
    "single_level_sample_sort",
    "single_level_mergesort",
    "parallel_quicksort",
    "SortResult",
    "run_on_machine",
    "sort_array",
    "distribute_array",
    "MachineSpec",
    "supermuc_like",
    "cray_xt4_like",
    "cray_xe6_like",
    "generic_cluster",
    "laptop_like",
    "SimulatedMachine",
    "Comm",
    "DistArray",
    "__version__",
]
