"""Convenience driver: build a machine, run an algorithm, collect statistics.

The experiment harness and the examples all go through this module so that
input distribution, validation and statistics collection are uniform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.ams_sort import ams_sort, ams_sort_reference
from repro.core.baselines import (
    parallel_quicksort,
    parallel_quicksort_reference,
    single_level_mergesort,
    single_level_mergesort_reference,
    single_level_sample_sort,
    single_level_sample_sort_reference,
)
from repro.core.config import AMSConfig, RLMConfig
from repro.core.rlm_sort import rlm_sort, rlm_sort_reference
from repro.core.validation import output_imbalance, validate_output
from repro.dist.array import DistArray
from repro.machine.spec import MachineSpec
from repro.sim.machine import SimulatedMachine


#: Registry of algorithm names accepted by :func:`run_on_machine`.
ALGORITHMS = ("ams", "rlm", "samplesort", "mergesort", "quicksort")

#: Execution engines: the vectorised flat `DistArray` engine (default) and
#: the per-PE reference implementation it is verified against.
ENGINES = ("flat", "reference")


@dataclass
class SortResult:
    """Everything measured during one sorting run on the simulator.

    Attributes
    ----------
    algorithm:
        Algorithm name.
    output:
        Per-PE sorted output arrays.
    total_time:
        Modelled makespan in seconds (maximum PE clock).
    phase_times:
        Bottleneck (max over PEs) modelled time per phase, accumulated over
        all recursion levels — the quantity plotted in Figure 8.
    imbalance:
        Output imbalance ``max_i |out_i| / (n/p) - 1`` (Figure 10).
    traffic:
        Machine-wide traffic summary (startups, volume).
    p:
        Number of PEs.
    n_total:
        Total number of elements sorted.
    params:
        Free-form parameter dictionary recorded by the caller.
    faults:
        Fault-injection summary (plan spec plus the
        :class:`~repro.machine.counters.FaultCounters` tallies) when the
        machine had an active :class:`~repro.sim.faults.FaultPlan`; empty
        otherwise.
    """

    algorithm: str
    output: List[np.ndarray]
    total_time: float
    phase_times: Dict[str, float]
    imbalance: float
    traffic: Dict[str, int]
    p: int
    n_total: int
    params: Dict[str, object] = field(default_factory=dict)
    faults: Dict[str, object] = field(default_factory=dict)

    def phase_fraction(self, phase: str) -> float:
        """Fraction of the total time spent in ``phase``."""
        if self.total_time <= 0:
            return 0.0
        return self.phase_times.get(phase, 0.0) / self.total_time

    def summary_dict(self) -> Dict[str, object]:
        """JSON-serializable summary of the run (no output arrays).

        This is the persistence boundary used by the campaign cache and the
        golden-trace regression tests: every value is a plain Python scalar
        (or a dict of them), so two identical runs serialize to byte-identical
        JSON regardless of which process executed them.  The ``"faults"``
        key appears only for fault-injected runs, keeping fault-free
        summaries byte-identical to those of builds without the fault layer.
        """
        out: Dict[str, object] = {
            "algorithm": self.algorithm,
            "p": int(self.p),
            "n_total": int(self.n_total),
            "total_time_s": float(self.total_time),
            "imbalance": float(self.imbalance),
            "phase_times": {
                str(k): float(v) for k, v in sorted(self.phase_times.items())
            },
            "traffic": {str(k): int(v) for k, v in sorted(self.traffic.items())},
            "params": jsonify(self.params),
        }
        if self.faults:
            out["faults"] = jsonify(self.faults)
        return out


def jsonify(obj: object) -> object:
    """Recursively convert numpy scalars/arrays into JSON-safe Python values."""
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    return obj


def _resolve_algorithm(name: str, engine: str = "flat") -> Callable:
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; known: {ENGINES}")
    flat = engine == "flat"
    name = name.lower()
    if name in ("ams", "ams-sort", "amssort"):
        return ams_sort if flat else ams_sort_reference
    if name in ("rlm", "rlm-sort", "rlmsort"):
        return rlm_sort if flat else rlm_sort_reference
    if name in ("samplesort", "sample-sort", "single-level-sample-sort"):
        return single_level_sample_sort if flat else single_level_sample_sort_reference
    if name in ("mergesort", "merge-sort", "mp-sort", "single-level-mergesort"):
        return single_level_mergesort if flat else single_level_mergesort_reference
    if name in ("quicksort", "quick-sort", "parallel-quicksort"):
        return parallel_quicksort if flat else parallel_quicksort_reference
    raise ValueError(f"unknown algorithm {name!r}; known: {ALGORITHMS}")


def distribute_array(data: np.ndarray, p: int) -> List[np.ndarray]:
    """Split a single array into ``p`` near-equal consecutive chunks."""
    data = np.asarray(data)
    if p <= 0:
        raise ValueError("p must be positive")
    chunks = np.array_split(data, p)
    return [np.ascontiguousarray(c) for c in chunks]


def _check_keys(local_data: "DistArray | Sequence[np.ndarray]") -> None:
    """Raise for keys the algorithms cannot order: non-numeric dtypes and NaN.

    The engines compare, search and pad keys as machine words, so only
    integer and floating-point keys are accepted; NaN has no place in a
    total order.
    """
    arrays = [local_data.values] if isinstance(local_data, DistArray) else local_data
    for arr in arrays:
        arr = np.asarray(arr)
        if arr.dtype.kind not in "iuf":
            raise ValueError(
                f"cannot sort keys of dtype {arr.dtype}: only integer and "
                "floating-point keys are supported"
            )
        if arr.dtype.kind == "f" and np.isnan(arr).any():
            raise ValueError("cannot sort NaN keys: NaN has no place in a total order")


def run_on_machine(
    machine: SimulatedMachine,
    local_data: "DistArray | Sequence[np.ndarray]",
    algorithm: str = "ams",
    config: Optional[object] = None,
    validate: bool = True,
    max_imbalance: Optional[float] = None,
    engine: str = "flat",
    backend: "object | str | None" = None,
) -> SortResult:
    """Run a distributed sorting algorithm on an existing machine.

    Parameters
    ----------
    machine:
        The simulated machine (its clocks/counters are reset first).
    local_data:
        The distributed input: a :class:`~repro.dist.array.DistArray` or one
        input array per PE (converted at this boundary).
    algorithm:
        One of :data:`ALGORITHMS`.
    config:
        Algorithm configuration object (:class:`AMSConfig` / :class:`RLMConfig`)
        for the multi-level algorithms.
    validate:
        Verify the output is a globally sorted permutation of the input.
    max_imbalance:
        Optional bound on the accepted output imbalance (validation only).
    engine:
        ``'flat'`` (default) runs the vectorised :class:`DistArray` engine;
        ``'reference'`` runs the per-PE seed implementation.  Both produce
        byte-identical outputs, clocks and phase breakdowns.
    backend:
        Kernel backend executing the flat engine's element-scale array
        kernels for this run: a :class:`~repro.dist.backend.base.
        KernelBackend` instance (e.g. a proxy that times or records every
        kernel call) or ``'numpy'``.  ``None`` keeps the active backend
        (numpy unless :func:`repro.dist.backend.install` set another).
        Backends are byte-identical, so this never changes the result, the
        clocks or the RNG streams.

    Raises
    ------
    ValueError
        For keys that are neither integers nor floats (bool, complex,
        object, string, structured), naming the dtype, and for NaN keys:
        NaN has no place in a total order, and the algorithms' splitter
        comparisons would misroute such elements.
    """
    from repro.dist.backend import use_backend

    if len(local_data) != machine.p:
        raise ValueError("need one input array per PE")
    _check_keys(local_data)
    machine.reset()
    comm = machine.world()
    func = _resolve_algorithm(algorithm, engine)

    call_kwargs: Dict[str, object] = {}
    if config is not None:
        call_kwargs["config"] = config
    if isinstance(local_data, DistArray):
        run_input = local_data if engine == "flat" else local_data.to_list()
        input_list = local_data.to_list()
    else:
        run_input = list(local_data)
        input_list = run_input
    with use_backend(backend) as active_backend:
        output = func(comm, run_input, **call_kwargs)
        machine.backend_used = active_backend.effective_name()
    if isinstance(output, DistArray):
        output = output.to_list()

    if validate:
        validate_output(input_list, output, max_imbalance=max_imbalance)

    phase_times = {
        phase: machine.breakdown.max_time(phase) for phase in machine.breakdown.phases()
    }
    n_total = int(sum(np.asarray(d).size for d in input_list))
    params: Dict[str, object] = {}
    if isinstance(config, AMSConfig):
        params["levels"] = config.levels
        params["delivery"] = config.delivery
    elif isinstance(config, RLMConfig):
        params["levels"] = config.levels
        params["delivery"] = config.delivery
    return SortResult(
        algorithm=algorithm,
        output=output,
        total_time=machine.elapsed(),
        phase_times=phase_times,
        imbalance=output_imbalance(output),
        traffic=machine.counters.summary(),
        p=machine.p,
        n_total=n_total,
        params=params,
        faults=machine.faults.summary() if machine.faults is not None else {},
    )


def sort_array(
    data: np.ndarray,
    p: int = 16,
    algorithm: str = "ams",
    config: Optional[object] = None,
    spec: Optional[MachineSpec] = None,
    seed: int = 0,
    validate: bool = True,
) -> SortResult:
    """Sort a single array on a freshly built simulated machine.

    This is the entry point used by the quickstart example::

        result = sort_array(np.random.default_rng(0).integers(0, 10**9, 100_000), p=64)
        sorted_values = np.concatenate(result.output)
    """
    machine = SimulatedMachine(p, spec=spec, seed=seed)
    local_data = distribute_array(np.asarray(data), p)
    return run_on_machine(
        machine,
        local_data,
        algorithm=algorithm,
        config=config,
        validate=validate,
    )
