"""The benchmark's workloads: set-up, the measured call, and its checks.

A case holds one workload's state between repeats.  ``setup`` is the
preparation timed as ``setup_s``; ``call`` is the call timed as ``wall_s``;
``check`` verifies the outcome of every call and returns the operations it
attempted and failed.  A traced call routes the kernels through the
tracer's proxy backend and records spans around the program's public entry
points; the checks then compare it with the untraced calls of the same seed.
"""

from __future__ import annotations

import gc
import hashlib
import statistics
import sys
import traceback
from contextlib import ExitStack, nullcontext
from dataclasses import replace
from time import perf_counter, process_time
from unittest import mock

import numpy as np

from repro.core import runner
from repro.core.config import AMSConfig, RLMConfig
from repro.core.runner import run_on_machine
from repro.core.validation import validate_output
from repro.dist.backend import current_backend, install
from repro.experiments import campaign
from repro.experiments.harness import scale_profile
from repro.machine.counters import PAPER_PHASES
from repro.sim.machine import SimulatedMachine
from repro.workloads.generators import per_pe_workload

N_PER_PE = 1000

TRAFFIC = ("total_messages", "total_words", "max_startups_per_pe",
           "max_words_per_pe", "exchange_ops", "collective_ops")

#: Every campaign experiment except weak_scaling, whose n/p = 20000 cells
#: are bound by element count and repeat what the two sort workloads measure.
EXPERIMENTS = tuple(e for e in campaign.CAMPAIGN_EXPERIMENTS if e != "weak_scaling")


def maybe_span(tracer, cat: str, name: str):
    """A span of ``tracer``, or nothing in an untraced run."""
    return tracer.span(cat, name) if tracer is not None else nullcontext()


def _model_metrics(phase_times: dict, traffic: dict) -> dict:
    metrics = {f"sim.model.{ph}_s": (phase_times.get(ph, 0.0), "s") for ph in PAPER_PHASES}
    metrics.update({f"traffic.{k}": (traffic.get(k, 0), "count") for k in TRAFFIC})
    return metrics


def _campaign_metrics(cells=0, cell_ms=(), experiment_s=None, aggregate_s=0.0,
                      retries=0, quarantined=0) -> dict:
    experiment_s = experiment_s or {}
    metrics = {
        "campaign.cells": (cells, "count"),
        "campaign.cell_ms_p50": (float(np.percentile(cell_ms, 50)) if cell_ms else 0.0, "ms"),
        "campaign.cell_ms_p95": (float(np.percentile(cell_ms, 95)) if cell_ms else 0.0, "ms"),
    }
    for experiment in EXPERIMENTS:
        metrics[f"campaign.{experiment}.wall_s"] = (experiment_s.get(experiment, 0.0), "s")
    metrics["campaign.aggregate_s"] = (aggregate_s, "s")
    metrics["campaign.retries"] = (retries, "count")
    metrics["campaign.quarantined"] = (quarantined, "count")
    return metrics


class Case:
    """The repeat protocol shared by the workloads."""

    setup_repeats = 3
    #: Set-ups timed before each warm call, as well as the ones before the window.
    setup_between = 0
    min_repeats = 3

    def __init__(self) -> None:
        self.result = None
        #: Host wall time per phase, one dict per machine run in a traced call.
        self.profiles: list = []

    def repeat(self, tally: list, tracer=None):
        """One call from a clean state, then its checks; returns (wall, cpu)."""
        self.result = None
        gc.collect()
        try:
            wall, cpu = self.call(tracer)
            attempted, failed = self.check(tracer)
        except Exception:
            traceback.print_exc()
            tally[0] += 1
            tally[1] += 1
            return None, None
        finally:
            self.result = None
        tally[0] += attempted
        tally[1] += failed
        return wall, cpu

    def warmup(self, tally: list):
        """The cold first call: checked and counted, never an end-to-end timing."""
        return self.repeat(tally)[0]

    def start_trace(self) -> None:
        """Called once before the traced calls."""


class SortCase(Case):
    """One AMS-sort or RLM-sort call on a machine built once per set-up."""

    def __init__(self, algorithm: str, keys: str, p: int, config) -> None:
        super().__init__()
        self.algorithm, self.keys, self.p, self.config = algorithm, keys, p, config
        self.data = self.machine = self.digest = self.dtype = self.reference = None
        self.elements = 0

    def release(self) -> None:
        self.data = self.machine = None

    def setup(self, seed: int, tracer) -> None:
        with maybe_span(tracer, "workloads", "per_pe_workload"):
            self.data = per_pe_workload(self.keys, self.p, N_PER_PE, seed=seed)
        with maybe_span(tracer, "sim", "SimulatedMachine"):
            self.machine = SimulatedMachine(self.p, seed=seed)

    def prepare(self) -> None:
        # Only a digest of the sorted input is kept, so that no copy of the
        # input held by the benchmark counts in the program's peak_rss_mb.
        expected = np.sort(np.concatenate(self.data))
        self.elements = int(expected.size)
        self.dtype = expected.dtype
        self.digest = hashlib.sha256(expected).digest()

    def start_trace(self) -> None:
        self.machine.enable_wall_profile()

    def call(self, tracer):
        backend = "numpy"
        if tracer is not None:
            backend = tracer.backend
            tracer.attach(self.machine)
        start, cpu = perf_counter(), process_time()
        with maybe_span(tracer, "core", "run_on_machine"):
            self.result = run_on_machine(
                self.machine, self.data, algorithm=self.algorithm,
                config=self.config, validate=False, backend=backend,
            )
        wall, cpu = perf_counter() - start, process_time() - cpu
        if tracer is not None:
            tracer.settle()
            self.profiles.append(dict(self.machine.wall_profile))
        return wall, cpu

    def check(self, tracer):
        res = self.result
        problems = []
        digest = hashlib.sha256()
        for piece in res.output:
            digest.update(np.ascontiguousarray(piece, dtype=self.dtype))
        if digest.digest() != self.digest:
            problems.append("output differs from np.sort of the input")
        signature = (res.total_time, res.phase_times, res.traffic, res.imbalance)
        if self.reference is None:
            self.reference = signature
        elif signature != self.reference:
            problems.append("modelled time or traffic counters differ from the first call")
        if tracer is not None:
            with tracer.span("core", "validate_output"):
                validate_output(self.data, res.output)
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        return 1, int(bool(problems))

    @property
    def modelled_time(self) -> float:
        return self.reference[0]

    def backend_used(self) -> str:
        return self.machine.backend_used

    def layer_metrics(self, tracer, n_traced: int) -> dict:
        _, phase_times, traffic, imbalance = self.reference
        return {
            "workloads.gen_s": (statistics.median(tracer.durations("workloads")), "s"),
            "sim.machine_build_s": (statistics.median(tracer.durations("sim")), "s"),
            **_model_metrics(phase_times, traffic),
            "core.validate_s": (
                statistics.median(tracer.durations("core", "validate_output")), "s"),
            "core.imbalance": (imbalance, "ratio"),
            **_campaign_metrics(),
        }


class CampaignCase(Case):
    """The quick campaign profile at p <= 64, serial (``jobs=1``), no cell cache."""

    # Expansion takes ~30 ms, short enough to fall inside one phase of a host
    # whose speed changes every few seconds; samples taken between the warm
    # calls spread setup_s over the whole window, as the calls' walls are.
    setup_repeats = 10
    setup_between = 10
    min_repeats = 3

    def __init__(self) -> None:
        super().__init__()
        # The quick profile's p = 256 cells sort 0.5M elements each and took
        # 6 of its 14 s, which made the workload element-bound like the sort
        # workloads.  Without them a call takes ~5.5 s, so the window holds
        # several warm calls.
        self.profile = dict(scale_profile("quick"), p_values=(16, 64))
        self.cells = self.reference = self.text = None
        self.cell_ms: list = []
        self.experiment_s = dict.fromkeys(EXPERIMENTS, 0.0)
        self.retries = self.quarantined = 0
        install("numpy")

    def release(self) -> None:
        self.cells = None

    def setup(self, seed: int, tracer) -> None:
        with maybe_span(tracer, "experiments", "expand_campaign"):
            cells = campaign.expand_campaign(self.profile, experiments=EXPERIMENTS)
            # A cell's seed hashes its identity alone; mixing in the benchmark
            # seed makes each seed a different set of inputs and samples.
            self.cells = [
                replace(c, seed=campaign.derive_cell_seed({"cell": c.seed, "seed": seed}))
                for c in cells
            ]

    def prepare(self) -> None:
        pass

    def warmup(self, tally: list):
        """The cold first call: the same experiments on the tiny profile.

        It runs every code path of the measured campaign once, at golden-trace
        scale and one repetition, so that no measured call pays first-call
        costs.
        """
        tiny = dict(scale_profile("tiny"), repetitions=1)
        cells = campaign.expand_campaign(tiny, experiments=EXPERIMENTS)
        gc.collect()
        start = perf_counter()
        summaries, stats = campaign.execute_cells(cells, jobs=1)
        campaign.aggregate_cells(cells, summaries)
        wall = perf_counter() - start
        tally[0] += len(summaries) + stats["quarantined"]
        tally[1] += stats["quarantined"]
        return wall

    def _intercept(self, tracer, stack: ExitStack):
        """Route one call's kernels, machines, inputs and checks through ``tracer``."""
        install(tracer.backend)
        stack.callback(install, "numpy")

        def build(*args, **kwargs):
            with tracer.span("sim", "SimulatedMachine"):
                machine = SimulatedMachine(*args, **kwargs)
            self.profiles.append(machine.enable_wall_profile())
            tracer.attach(machine)
            return machine

        def generate(*args, **kwargs):
            with tracer.span("workloads", "per_pe_workload"):
                return per_pe_workload(*args, **kwargs)

        def validate(*args, **kwargs):
            with tracer.span("core", "validate_output"):
                return validate_output(*args, **kwargs)

        stack.enter_context(mock.patch.object(campaign, "SimulatedMachine", build))
        stack.enter_context(mock.patch.object(campaign, "per_pe_workload", generate))
        stack.enter_context(mock.patch.object(runner, "validate_output", validate))
        last = [perf_counter()]

        def progress(message: str) -> None:
            if not message.startswith("["):
                return  # a warning, not a finished cell
            now = perf_counter()
            experiment = message.split()[1]
            self.cell_ms.append((now - last[0]) * 1e3)
            self.experiment_s[experiment] += now - last[0]
            tracer.spans.append(["experiments", f"cell:{experiment}", last[0], now, "", 0])
            last[0] = now

        return progress

    def call(self, tracer):
        with ExitStack() as stack:
            progress = self._intercept(tracer, stack) if tracer is not None else None
            start, cpu = perf_counter(), process_time()
            with maybe_span(tracer, "experiments", "execute_cells"):
                summaries, stats = campaign.execute_cells(self.cells, jobs=1, progress=progress)
            with maybe_span(tracer, "experiments", "aggregate_cells"):
                rows = campaign.aggregate_cells(self.cells, summaries)
            wall, cpu = perf_counter() - start, process_time() - cpu
        if tracer is not None:
            tracer.settle()
        self.result = (summaries, stats, rows)
        return wall, cpu

    def check(self, tracer):
        summaries, stats, rows = self.result
        text = campaign.campaign_to_json({"cells": summaries, "experiments": rows})
        if self.reference is None:
            self.reference, self.text = summaries, text
        failed = stats["quarantined"]
        for cell in stats["quarantined_cells"]:
            print(f"check failed: quarantined {cell['cell']}: {cell['reason']}",
                  file=sys.stderr)
        if text != self.text:
            differ = sum(summaries.get(k) != v for k, v in self.reference.items())
            print(f"check failed: {differ} cell summaries differ from the first call",
                  file=sys.stderr)
            failed += max(differ, 1)
        self.retries += stats["cell_retries"]
        self.quarantined += stats["quarantined"]
        return len(summaries) + stats["quarantined"], failed

    def _sorts(self) -> list:
        return [s for s in self.reference.values() if "total_time_s" in s]

    @property
    def modelled_time(self) -> float:
        return sum(s["total_time_s"] for s in self._sorts())

    @property
    def elements(self) -> int:
        return sum(s["n_total"] for s in self._sorts())

    def backend_used(self) -> str:
        return current_backend().effective_name()

    def layer_metrics(self, tracer, n_traced: int) -> dict:
        sorts = self._sorts()
        phase_times = {ph: sum(s["phase_times"].get(ph, 0.0) for s in sorts)
                       for ph in PAPER_PHASES}
        traffic = {k: sum(s["traffic"][k] for s in sorts) for k in TRAFFIC}
        return {
            "workloads.gen_s": (sum(tracer.durations("workloads")) / n_traced, "s"),
            "sim.machine_build_s": (sum(tracer.durations("sim")) / n_traced, "s"),
            **_model_metrics(phase_times, traffic),
            "core.validate_s": (
                sum(tracer.durations("core", "validate_output")) / n_traced, "s"),
            "core.imbalance": (statistics.fmean(s["imbalance"] for s in sorts), "ratio"),
            **_campaign_metrics(
                cells=len(self.cells),
                cell_ms=self.cell_ms,
                experiment_s={e: s / n_traced for e, s in self.experiment_s.items()},
                aggregate_s=statistics.median(
                    tracer.durations("experiments", "aggregate_cells")),
                retries=self.retries,
                quarantined=self.quarantined,
            ),
        }


WORKLOADS = {
    "ams_uniform_p16k": lambda: SortCase("ams", "uniform", 16384, AMSConfig(levels=3)),
    "rlm_zipf_p8k": lambda: SortCase("rlm", "zipf", 8192, RLMConfig(levels=3)),
    "campaign_quick": CampaignCase,
}
