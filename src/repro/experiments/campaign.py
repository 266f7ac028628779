"""Sharded, cached experiment campaigns over the paper's evaluation.

The paper (Section 7, Appendix E) evaluates at ``p`` in {512, 2048, 8192,
32768} across Table 2 and Figs. 7-12.  A *campaign* expands each experiment
(weak scaling, slowdown, overpartitioning, variance, comparison, level
table, faults) into a flat list of **cells** — one ``(machine, algorithm,
config, workload, repetition)`` single run each — and then

* fans the cells across a :class:`~concurrent.futures.ProcessPoolExecutor`
  (``jobs > 1``) with a deterministic per-cell seed derived from the cell
  spec, so sharded and serial execution produce **byte-identical** summaries,
* caches each cell's :meth:`~repro.core.runner.SortResult.summary_dict` on
  disk keyed by a content hash of the cell spec plus :data:`RNG_VERSION`
  (the code-relevant RNG generation), so interrupted or re-run campaigns
  resume from the cache instead of recomputing,
* aggregates the cell summaries into the per-experiment rows (medians over
  repetitions, best-level reductions, slowdown ratios) that correspond to
  the paper's tables and figures.

Each experiment's ``_expand_*``/``_aggregate_*`` pair below is its only
definition: the serial CLI names (``table2``, ``fig7``, ...) and the
figure benchmarks print sections of these rows.

Cells above ``reference_max_p`` (the per-PE reference engine's feasibility
limit, relevant for the ``"paper"`` profile reaching ``p = 32768``) are
flat-engine only and are pinned by a seeded-determinism re-run instead of a
cross-engine comparison, exactly like ``benchmarks/bench_engine_scaling.py``.

Command line::

    python -m repro.experiments.cli campaign --profile quick --jobs 4
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.metrics import slowdown as slowdown_metric
from repro.analysis.metrics import summarize_runs
from repro.analysis.tables import format_table
from repro.core.config import level_plan
from repro.core.runner import run_on_machine
from repro.experiments.harness import PAPER_P_VALUES, build_algo_config, scale_profile
from repro.machine.spec import spec_by_name
from repro.sim.machine import SimulatedMachine
from repro.workloads.generators import WORKLOADS, per_pe_workload


#: Code-relevant RNG generation.  The cell cache key includes this string, so
#: bumping it invalidates every cached summary.  Bump whenever a change moves
#: which random streams the algorithms consume (e.g. the move of the samples
#: onto the counter RNG, ``ctr-philox-v1``, or of the selection pivots from
#: per-group PCG64 generators onto keyed counter streams, ``pivot-ctr-v1``):
#: such changes shift modelled clocks/imbalance and stale cached summaries
#: would otherwise survive.
RNG_VERSION = "ctr-philox-v1+pivot-ctr-v1"

#: Experiments a campaign can expand, in display order.
CAMPAIGN_EXPERIMENTS = (
    "weak_scaling",
    "slowdown",
    "overpartitioning",
    "variance",
    "comparison",
    "level_table",
    "faults",
)

#: Default workload axis: the paper's uniform input plus the adversarial
#: distributions from :mod:`repro.workloads.generators`.  The first entry is
#: the *primary* workload and gets the full profile grid; the others ride a
#: trimmed grid (smallest machine/input sizes) so every figure gains
#: non-uniform rows without multiplying the campaign cost by the number of
#: workloads.
CAMPAIGN_WORKLOADS = (
    "uniform",
    "zipf",
    "nearly_sorted",
    "duplicates",
    "staggered",
    "all_equal",
    "reverse",
)

_BASELINES = ("mergesort", "samplesort", "quicksort")

#: Largest machine of the comparison's mergesort cells.  Its exact p-way
#: selection keeps p * (p - 1) candidate windows: p = 4,096 took 82 s and
#: 3.5 GB on a 2-core host, and p = 8,192 would take about four times that.
MERGESORT_MAX_P = 4096

#: Fault-spec ladder of the degradation experiment.  The empty spec is the
#: healthy baseline every slowdown is computed against; the drop-rate rungs
#: are spaced widely enough that recovery cost strictly increases even at
#: tiny scale (few exchanges → few geometric draws).
DEFAULT_FAULT_SPECS: Sequence[str] = (
    "",
    "droprate:0.05",
    "droprate:0.2",
    "droprate:0.4",
    "stragglers:0.25",
    "stragglers:0.25,droprate:0.2",
)

#: Trimmed ladder for secondary workloads.  The bottom rung starts higher
#: than the primary ladder's: the trimmed grid runs the smallest machine,
#: whose few exchange rounds draw too few uniforms for a 5% drop rate to
#: fire at all.
TRIMMED_FAULT_SPECS: Sequence[str] = (
    "",
    "droprate:0.15",
    "droprate:0.25",
    "droprate:0.4",
)


# ----------------------------------------------------------------------
# Cell spec
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CampaignCell:
    """One unit of campaign work: a single repetition of a single config.

    ``kind == "sort"`` cells run one sorting algorithm on the simulator;
    ``kind == "plan"`` cells (level table) compute level plans only.  The
    ``seed`` is derived from the identity fields by :func:`derive_cell_seed`
    at expansion time, so a cell is self-contained: any process can execute
    it and obtain the same summary.
    """

    experiment: str
    kind: str = "sort"
    machine: str = "supermuc"
    algorithm: str = "ams"
    p: int = 16
    n_per_pe: int = 1000
    levels: int = 2
    workload: str = "uniform"
    node_size: int = 4
    repetition: int = 0
    series: str = ""
    delivery: str = "deterministic"
    overpartitioning: Optional[int] = None
    oversampling: Optional[float] = None
    samples_per_pe: Optional[int] = None
    engine: str = "flat"
    validate: bool = True
    determinism_check: bool = False
    #: Fault-injection spec string (see :mod:`repro.sim.faults`); "" = healthy.
    faults: str = ""
    seed: int = 0

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: Mapping[str, object]) -> "CampaignCell":
        return cls(**d)  # type: ignore[arg-type]

    def group_key(self) -> "CampaignCell":
        """The cell with repetition/seed erased: the aggregation group."""
        return replace(self, repetition=0, seed=0)


def _canonical_json(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def derive_cell_seed(identity: Mapping[str, object]) -> int:
    """Deterministic seed from the cell's identity fields.

    Uses SHA-256 (never :func:`hash`, which is salted per process) so every
    worker process — and every future session — derives the same seed.
    """
    digest = hashlib.sha256(_canonical_json(dict(identity)).encode()).hexdigest()
    return int(digest[:8], 16) % (2**31 - 1)


#: Fields that describe *how* a cell executes, not *what* experiment it is.
#: They are excluded from the seed identity so e.g. a reference-engine run of
#: a cell draws the same streams (and must reproduce the same summary) as the
#: flat-engine run.  They remain part of the cache key.
_EXECUTION_FIELDS = ("seed", "engine", "validate", "determinism_check")


def finalize_cell(cell: CampaignCell) -> CampaignCell:
    """Fill in the derived seed (identity = spec minus execution details)."""
    identity = cell.to_dict()
    for field in _EXECUTION_FIELDS:
        identity.pop(field)
    # The fault spec never enters the seed: healthy cells keep their
    # pre-fault-layer identity (and golden traces), and every rung of a
    # fault ladder sorts the *same* input with the *same* sampling streams —
    # a controlled degradation comparison, not a different experiment.  The
    # spec remains part of the cache key (cell_key hashes the full spec).
    identity.pop("faults", None)
    return replace(cell, seed=derive_cell_seed(identity))


def cell_key(cell: CampaignCell) -> str:
    """Content hash of the full cell spec + RNG generation: the cache key."""
    payload = _canonical_json({"spec": cell.to_dict(), "rng_version": RNG_VERSION})
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


# ----------------------------------------------------------------------
# Cell execution
# ----------------------------------------------------------------------
def _run_sort_cell(cell: CampaignCell) -> Dict[str, object]:
    machine = SimulatedMachine(
        cell.p, spec=spec_by_name(cell.machine), seed=cell.seed,
        faults=cell.faults or None,
    )
    local_data = per_pe_workload(cell.workload, cell.p, cell.n_per_pe, seed=cell.seed + 1)
    config = build_algo_config(
        cell.algorithm,
        p=cell.p,
        n_per_pe=cell.n_per_pe,
        levels=cell.levels,
        node_size=cell.node_size,
        delivery=cell.delivery,
        overpartitioning=cell.overpartitioning,
        oversampling=cell.oversampling,
    )
    result = run_on_machine(
        machine,
        local_data,
        algorithm=cell.algorithm,
        config=config,
        validate=cell.validate,
        engine=cell.engine,
    )
    return result.summary_dict()


def run_cell(cell: CampaignCell) -> Dict[str, object]:
    """Execute one cell and return its JSON-safe summary.

    ``plan`` cells compute the Table 1 level plans for the paper's machine
    sizes.  ``sort`` cells with ``determinism_check`` run twice with the same
    seed and must reproduce the identical summary (the large-``p`` substitute
    for the cross-engine comparison).
    """
    if cell.kind == "plan":
        return {
            "plan_by_p": {
                str(p): [int(r) for r in level_plan(p, cell.levels, node_size=cell.node_size)]
                for p in PAPER_P_VALUES
            }
        }
    summary = _run_sort_cell(cell)
    if cell.determinism_check:
        again = _run_sort_cell(cell)
        if again != summary:
            raise AssertionError(
                f"cell {cell_key(cell)} ({cell.experiment}, p={cell.p}, "
                f"workload={cell.workload}) is not seed-deterministic"
            )
    return summary


# ----------------------------------------------------------------------
# Disk cache
# ----------------------------------------------------------------------
def _summary_checksum(summary: Mapping[str, object]) -> str:
    """SHA-256 over the canonical JSON of a cell summary."""
    return hashlib.sha256(_canonical_json(dict(summary)).encode()).hexdigest()


class CellCache:
    """One JSON file per cell summary, written atomically and checksummed.

    The file name is the content hash (:func:`cell_key`), so a cache
    directory can be shared between profiles and survives interrupted
    campaigns: completed cells are flushed as they finish, and a re-run only
    executes the missing ones.  Clock-model changes must bump
    :data:`RNG_VERSION`, which changes every key and therefore invalidates
    the whole cache.  Every document embeds a SHA-256 checksum of its
    summary, so a truncated or bit-flipped file is *detected* — it becomes
    a counted ``corrupt`` miss and the cell recomputes; cached bytes are
    never trusted on parseability alone.  Any unreadable, stale or
    schema-incomplete entry is likewise a miss, never an error.
    """

    def __init__(self, root: "Path | str"):
        self.root = Path(root)

    def path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, object]]:
        return self.get_with_status(key)[0]

    def get_with_status(
        self, key: str
    ) -> Tuple[Optional[Dict[str, object]], str]:
        """``(summary or None, status)`` for one cache entry.

        Status is ``"hit"``, ``"miss"`` (no entry), ``"stale"`` (readable
        but from another RNG generation or a pre-checksum writer — silently
        recompute) or ``"corrupt"`` (bytes cannot be trusted: unparseable,
        schema-broken or checksum mismatch — recompute *and report*).
        """
        path = self.path(key)
        try:
            text = path.read_text()
        except FileNotFoundError:
            return None, "miss"
        except (OSError, UnicodeDecodeError):
            # Unreadable or bit-flipped into invalid UTF-8: corrupt bytes.
            return None, "corrupt"
        try:
            doc = json.loads(text)
        except ValueError:
            return None, "corrupt"
        if not isinstance(doc, dict):
            return None, "corrupt"
        if doc.get("rng_version") != RNG_VERSION:
            return None, "stale"
        summary = doc.get("summary")
        if not isinstance(summary, dict):
            return None, "corrupt"
        checksum = doc.get("checksum")
        if checksum is None:
            # Pre-checksum cache generation: recompute without alarm.
            return None, "stale"
        if checksum != _summary_checksum(summary):
            return None, "corrupt"
        return summary, "hit"

    def put(self, key: str, cell: CampaignCell, summary: Mapping[str, object]) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        doc = {
            "rng_version": RNG_VERSION,
            "spec": cell.to_dict(),
            "summary": dict(summary),
            "checksum": _summary_checksum(summary),
        }
        tmp = self.root / f".{key}.{os.getpid()}.tmp"
        tmp.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, self.path(key))


# ----------------------------------------------------------------------
# Campaign expansion
# ----------------------------------------------------------------------
def _level_candidates(
    profile: Mapping[str, object], p: int, counts: Sequence[int] = (1, 2, 3)
) -> Tuple[int, ...]:
    policy = profile.get("level_counts")
    if policy == "paper":
        # Table 1: three levels at the largest machine (p = 2^15), two below.
        return (3,) if p > 8192 else (2,)
    if policy:
        counts = tuple(policy)  # type: ignore[arg-type]
    node = int(profile["node_size"])
    return tuple(k for k in counts if k == 1 or p > node)


def _grid(profile: Mapping[str, object], primary: bool):
    """(p_values, n_per_pe_values, repetitions) — full grid for the primary
    workload, a trimmed one (small machines/inputs) for the others."""
    ps = tuple(profile["p_values"])
    ns = tuple(profile["n_per_pe_values"])
    reps = int(profile["repetitions"])
    if primary:
        return ps, ns, reps
    return ps[:2], ns[:1], min(2, reps)


def _expand_weak_scaling(profile, workload, primary) -> List[CampaignCell]:
    ps, ns, reps = _grid(profile, primary)
    cells = []
    for n_per_pe in ns:
        for p in ps:
            candidates = _level_candidates(profile, p)
            if not primary:
                candidates = tuple(k for k in candidates if k <= 2)
            for levels in candidates:
                for rep in range(max(1, reps)):
                    cells.append(CampaignCell(
                        experiment="weak_scaling", algorithm="ams", p=p,
                        n_per_pe=n_per_pe, levels=levels, workload=workload,
                        node_size=int(profile["node_size"]), repetition=rep,
                    ))
    return cells


def _expand_slowdown(profile, workload, primary) -> List[CampaignCell]:
    ps, ns, reps = _grid(profile, primary)
    if primary:
        ps, ns = ps, ns[:2]
    else:
        ps, ns = ps[:1], ns[:1]
    cells = []
    for n_per_pe in ns:
        for p in ps:
            candidates = _level_candidates(profile, p)
            if not primary:
                candidates = tuple(k for k in candidates if k <= 2)
            for algorithm in ("ams", "rlm"):
                for levels in candidates:
                    for rep in range(max(1, reps)):
                        cells.append(CampaignCell(
                            experiment="slowdown", algorithm=algorithm, p=p,
                            n_per_pe=n_per_pe, levels=levels, workload=workload,
                            node_size=int(profile["node_size"]), repetition=rep,
                        ))
    return cells


def _expand_overpartitioning(profile, workload, primary) -> List[CampaignCell]:
    ps = tuple(profile["p_values"])
    ns = tuple(profile["n_per_pe_values"])
    p = int(ps[0])
    n_per_pe = int(ns[min(1, len(ns) - 1)])
    node_size = int(profile["node_size"])
    reps = min(2, int(profile["repetitions"])) if primary else 1
    cells = []
    if primary:
        b_values, samples = (1, 8, 16), (4, 16, 64, 256)
        a_values = (1.0, 8.0, 16.0)
    else:
        b_values, samples = (1, 8), (16, 64)
        a_values = ()
    # Figure 10: imbalance vs samples per PE for several overpartitioning b.
    for b in b_values:
        for ab in samples:
            a = max(ab / b, 0.25)
            for rep in range(reps):
                cells.append(CampaignCell(
                    experiment="overpartitioning", series="fig10", algorithm="ams",
                    p=p, n_per_pe=n_per_pe, levels=1, workload=workload,
                    node_size=node_size, repetition=rep,
                    overpartitioning=int(b), oversampling=float(a),
                    samples_per_pe=int(ab),
                ))
    # Figure 11: wall-time vs samples per PE for several oversampling a.
    for a in a_values:
        for ab in samples:
            b = max(1, int(round(ab / a)))
            for rep in range(reps):
                cells.append(CampaignCell(
                    experiment="overpartitioning", series="fig11", algorithm="ams",
                    p=p, n_per_pe=n_per_pe, levels=1, workload=workload,
                    node_size=node_size, repetition=rep,
                    overpartitioning=int(b), oversampling=float(a),
                    samples_per_pe=int(ab),
                ))
    return cells


def _expand_variance(profile, workload, primary) -> List[CampaignCell]:
    ps = tuple(profile["p_values"])[:2] if primary else tuple(profile["p_values"])[:1]
    ns = tuple(profile["n_per_pe_values"])[:2] if primary else tuple(profile["n_per_pe_values"])[:1]
    reps = max(3, int(profile["repetitions"])) if primary else 3
    cells = []
    for n_per_pe in ns:
        for p in ps:
            candidates = _level_candidates(profile, p)
            if not primary:
                candidates = candidates[:1]
            for levels in candidates:
                for rep in range(reps):
                    cells.append(CampaignCell(
                        experiment="variance", algorithm="ams", p=p,
                        n_per_pe=n_per_pe, levels=levels, workload=workload,
                        node_size=int(profile["node_size"]), repetition=rep,
                    ))
    return cells


def _expand_comparison(profile, workload, primary) -> List[CampaignCell]:
    ps = tuple(profile["p_values"]) if primary else tuple(profile["p_values"])[:1]
    n_per_pe = int(profile["n_per_pe_values"][0])
    reps = min(2, int(profile["repetitions"])) if primary else 1
    cells = []
    for p in ps:
        candidates = _level_candidates(profile, p)
        if not primary:
            candidates = tuple(k for k in candidates if k <= 2)
        for levels in candidates:
            for rep in range(reps):
                cells.append(CampaignCell(
                    experiment="comparison", algorithm="ams", p=p,
                    n_per_pe=n_per_pe, levels=levels, workload=workload,
                    node_size=int(profile["node_size"]), repetition=rep,
                ))
        for baseline in _BASELINES:
            if baseline == "mergesort" and p > MERGESORT_MAX_P:
                continue
            for rep in range(reps):
                cells.append(CampaignCell(
                    experiment="comparison", algorithm=baseline, p=p,
                    n_per_pe=n_per_pe, levels=1, workload=workload,
                    node_size=int(profile["node_size"]), repetition=rep,
                ))
    return cells


def _expand_level_table(profile, workload, primary) -> List[CampaignCell]:
    # The plan is workload-invariant; the workload is recorded anyway so
    # every experiment's rows share the campaign-wide schema.
    return [
        CampaignCell(
            experiment="level_table", kind="plan", algorithm="plan",
            p=int(PAPER_P_VALUES[0]), n_per_pe=0, levels=k, workload=workload,
            node_size=16, repetition=0, validate=False,
        )
        for k in (1, 2, 3)
    ]


def _expand_faults(profile, workload, primary) -> List[CampaignCell]:
    """Degradation grid: each algorithm climbs a ladder of fault specs.

    The healthy spec (``""``) is always present — it is the slowdown
    baseline — and the remaining rungs come from the profile's
    ``fault_specs`` override (the CLI's ``--faults``) or the default
    ladders above.  The multi-level algorithms pay for faults differently:
    AMS-sort's few large exchange rounds lose little to per-round timeouts
    but re-send big volumes, while RLM-sort's regular grid rounds hit more,
    cheaper retries.
    """
    ps = tuple(profile["p_values"])
    n_per_pe = int(tuple(profile["n_per_pe_values"])[0])
    node_size = int(profile["node_size"])
    if primary:
        p = int(ps[min(1, len(ps) - 1)])
        algorithms = ("ams", "rlm", "samplesort")
        specs = tuple(profile.get("fault_specs", DEFAULT_FAULT_SPECS))
        reps = min(2, int(profile["repetitions"]))
    else:
        p = int(ps[0])
        algorithms = ("ams", "rlm")
        specs = tuple(profile.get("fault_specs", TRIMMED_FAULT_SPECS))
        reps = 1
    if "" not in specs:
        specs = ("",) + specs
    cells = []
    for algorithm in algorithms:
        levels = 2 if (algorithm in ("ams", "rlm") and p > node_size) else 1
        for spec in specs:
            for rep in range(max(1, reps)):
                cells.append(CampaignCell(
                    experiment="faults", algorithm=algorithm, p=p,
                    n_per_pe=n_per_pe, levels=levels, workload=workload,
                    node_size=node_size, repetition=rep, faults=spec,
                ))
    return cells


_EXPANDERS: Dict[str, Callable[..., List[CampaignCell]]] = {
    "weak_scaling": _expand_weak_scaling,
    "slowdown": _expand_slowdown,
    "overpartitioning": _expand_overpartitioning,
    "variance": _expand_variance,
    "comparison": _expand_comparison,
    "level_table": _expand_level_table,
    "faults": _expand_faults,
}


def expand_campaign(
    profile: Mapping[str, object],
    experiments: Optional[Sequence[str]] = None,
    workloads: Optional[Sequence[str]] = None,
) -> List[CampaignCell]:
    """Expand a profile into the flat, deterministic list of campaign cells."""
    if experiments is None:
        experiments = tuple(profile.get("experiments", CAMPAIGN_EXPERIMENTS))
    if workloads is None:
        workloads = tuple(profile.get("workloads", CAMPAIGN_WORKLOADS))
    unknown = [e for e in experiments if e not in _EXPANDERS]
    if unknown:
        raise KeyError(
            f"unknown experiments {unknown!r}; known: {sorted(_EXPANDERS)}"
        )
    unknown = [w for w in workloads if w not in WORKLOADS]
    if unknown:
        raise KeyError(f"unknown workloads {unknown!r}; known: {sorted(WORKLOADS)}")

    engine = str(profile.get("engine", "flat"))
    machine = str(profile.get("machine", "supermuc"))
    reference_max_p = int(profile.get("reference_max_p", 1024))
    validate_max_p = int(profile.get("validate_max_p", 2**62))

    cells: List[CampaignCell] = []
    for experiment in experiments:
        for i, workload in enumerate(workloads):
            for cell in _EXPANDERS[experiment](profile, workload, i == 0):
                if cell.kind == "sort":
                    cell = replace(
                        cell,
                        machine=machine,
                        engine=engine,
                        validate=cell.p <= validate_max_p,
                        determinism_check=cell.p > reference_max_p,
                    )
                cells.append(finalize_cell(cell))
    return cells


# ----------------------------------------------------------------------
# Execution (serial or sharded)
# ----------------------------------------------------------------------
class CellTimeoutError(RuntimeError):
    """A cell exceeded its wall-clock budget (beyond-tier safety valve)."""


def _run_cell_guarded(
    cell: CampaignCell, timeout_s: Optional[float] = None
) -> Dict[str, object]:
    """:func:`run_cell` under an optional SIGALRM wall-clock deadline.

    Module level (picklable) so sharded campaigns submit it to pool
    workers; the itimer fires in the executing process's main thread, which
    is exactly where :class:`ProcessPoolExecutor` workers run their tasks.
    Wall-clock only — modelled time is untouched, and a cell that finishes
    in budget produces the same summary with or without the guard.
    """
    if not timeout_s:
        return run_cell(cell)
    import signal

    def _on_alarm(signum, frame):
        raise CellTimeoutError(
            f"cell {cell_key(cell)} ({cell.experiment}, p={cell.p}, "
            f"workload={cell.workload}) exceeded its {timeout_s}s "
            "wall-clock budget"
        )

    old = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, float(timeout_s))
    try:
        return run_cell(cell)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old)


def _cell_desc(cell: CampaignCell) -> str:
    return (
        f"{cell.experiment} {cell.algorithm} p={cell.p} n/p={cell.n_per_pe} "
        f"k={cell.levels} {cell.workload} rep={cell.repetition}"
    )


#: Exponential backoff before a cell retry: 0.1 s doubling, capped at 2 s.
_BACKOFF_BASE_S = 0.1
_BACKOFF_CAP_S = 2.0


def execute_cells(
    cells: Sequence[CampaignCell],
    jobs: int = 1,
    cache: Optional[CellCache] = None,
    resume: bool = True,
    progress: Optional[Callable[[str], None]] = None,
    retries: int = 2,
    cell_timeout_s: Optional[float] = None,
) -> Tuple[Dict[str, Dict[str, object]], Dict[str, object]]:
    """Run every cell (or fetch it from the cache); returns summaries + stats.

    Summaries are keyed by :func:`cell_key`.  With ``jobs > 1`` the pending
    cells are fanned across a process pool; because each cell carries its own
    derived seed, the summaries are byte-identical to serial execution
    regardless of completion order.  Completed cells are flushed to the cache
    as they finish, so an interrupted campaign resumes where it stopped.

    **Fault tolerance.**  A failing cell is retried up to ``retries`` times
    with exponential backoff; a cell that keeps failing is *quarantined* —
    skipped, reported in ``stats['quarantined_cells']`` — instead of
    aborting the campaign.  A crash of a pool worker process
    (``BrokenProcessPool``) rebuilds the pool and charges one attempt to
    every cell that had not finished in that round, which bounds the damage
    a deterministically crashing cell can do: it exhausts its own budget
    within ``retries + 1`` rebuilds and is quarantined.  ``cell_timeout_s``
    puts a wall-clock ceiling on each cell (for beyond-tier rows), enforced
    via SIGALRM in the executing process.  Corrupt cache entries (checksum
    mismatch, truncation) are counted in ``stats['cache_corrupt']``, warned
    about once with the offending path, and recomputed.
    """
    stats: Dict[str, object] = {
        "cells": len(cells),
        "executed": 0,
        "cache_hits": 0,
        "cache_corrupt": 0,
        "cell_retries": 0,
        "pool_rebuilds": 0,
        "quarantined": 0,
        "quarantined_cells": [],
    }
    summaries: Dict[str, Dict[str, object]] = {}
    pending: List[Tuple[str, CampaignCell]] = []
    pending_keys = set()
    for cell in cells:
        key = cell_key(cell)
        if key in summaries or key in pending_keys:
            continue
        cached: Optional[Dict[str, object]] = None
        if cache is not None and resume:
            cached, status = cache.get_with_status(key)
            if status == "corrupt":
                stats["cache_corrupt"] += 1
                if progress is not None:
                    progress(
                        f"warning: corrupt cache entry {cache.path(key)} "
                        "(checksum/parse failure) — recomputing"
                    )
        if cached is not None:
            summaries[key] = cached
            stats["cache_hits"] += 1
        else:
            pending.append((key, cell))
            pending_keys.add(key)

    def _finish(key: str, cell: CampaignCell, summary: Dict[str, object]) -> None:
        summaries[key] = summary
        stats["executed"] += 1
        if cache is not None:
            cache.put(key, cell, summary)
        if progress is not None:
            done = stats["executed"] + stats["cache_hits"]
            progress(
                f"[{done}/{len(cells)}] {cell.experiment} "
                f"{cell.algorithm} p={cell.p} n/p={cell.n_per_pe} "
                f"k={cell.levels} {cell.workload} rep={cell.repetition}"
            )

    attempts: Dict[str, int] = {key: 0 for key, _ in pending}

    def _charge_failure(
        key: str, cell: CampaignCell, reason: str,
        retry_round: List[Tuple[str, CampaignCell]],
    ) -> None:
        """One failed attempt: requeue the cell or quarantine it."""
        attempts[key] += 1
        if attempts[key] > max(0, int(retries)):
            stats["quarantined"] += 1
            stats["quarantined_cells"].append(
                {"cell": _cell_desc(cell), "key": key, "reason": reason}
            )
            if progress is not None:
                progress(
                    f"warning: quarantined {_cell_desc(cell)} after "
                    f"{attempts[key]} attempts: {reason}"
                )
        else:
            stats["cell_retries"] += 1
            retry_round.append((key, cell))

    todo = list(pending)
    round_idx = 0
    while todo:
        if round_idx > 0:
            time.sleep(min(_BACKOFF_BASE_S * 2 ** (round_idx - 1), _BACKOFF_CAP_S))
        round_idx += 1
        retry_round: List[Tuple[str, CampaignCell]] = []
        if jobs <= 1:
            for key, cell in todo:
                try:
                    summary = _run_cell_guarded(cell, cell_timeout_s)
                except Exception as exc:
                    _charge_failure(key, cell, repr(exc), retry_round)
                else:
                    _finish(key, cell, summary)
        else:
            pool = ProcessPoolExecutor(max_workers=jobs)
            try:
                futures = {
                    pool.submit(_run_cell_guarded, cell, cell_timeout_s): (key, cell)
                    for key, cell in todo
                }
                unfinished = dict(futures)
                for future in as_completed(futures):
                    key, cell = futures[future]
                    try:
                        summary = future.result()
                    except BrokenProcessPool:
                        # The pool is gone: every cell still unfinished in
                        # this round failed with it.  Rebuild and charge
                        # each one attempt — bounded, because the true
                        # crasher exhausts its own budget within
                        # ``retries + 1`` rebuilds.
                        stats["pool_rebuilds"] += 1
                        for okey, ocell in unfinished.values():
                            _charge_failure(
                                okey, ocell,
                                "worker process crashed (BrokenProcessPool)",
                                retry_round,
                            )
                        break
                    except Exception as exc:
                        unfinished.pop(future, None)
                        _charge_failure(key, cell, repr(exc), retry_round)
                    else:
                        unfinished.pop(future, None)
                        _finish(key, cell, summary)
            finally:
                pool.shutdown(wait=False, cancel_futures=True)
        todo = retry_round
    return summaries, stats


# ----------------------------------------------------------------------
# Aggregation: cells -> the paper's rows
# ----------------------------------------------------------------------
def _grouped(pairs: Iterable[Tuple[CampaignCell, Dict[str, object]]]):
    """Group (cell, summary) pairs by the repetition-erased cell, in order."""
    groups: Dict[CampaignCell, List[Tuple[CampaignCell, Dict[str, object]]]] = {}
    for cell, summary in pairs:
        groups.setdefault(cell.group_key(), []).append((cell, summary))
    for members in groups.values():
        members.sort(key=lambda cs: cs[0].repetition)
    return groups


def _median_row(members) -> Dict[str, object]:
    """Median/min/max over repetitions + the median run's detail columns."""
    times = [float(s["total_time_s"]) for _, s in members]
    stats = summarize_runs(times)
    median_idx = int(np.argsort(times)[len(times) // 2])
    cell, rep = members[median_idx]
    row: Dict[str, object] = {
        "workload": cell.workload,
        "n_per_pe": cell.n_per_pe,
        "p": cell.p,
        "levels": cell.levels,
        "time_median_s": stats["median"],
        "time_min_s": stats["min"],
        "time_max_s": stats["max"],
        "imbalance": rep["imbalance"],
        "max_startups": rep["traffic"]["max_startups_per_pe"],
        "max_words": rep["traffic"]["max_words_per_pe"],
    }
    for phase, value in rep["phase_times"].items():
        row[f"phase_{phase}"] = value
    return row


def _aggregate_weak_scaling(pairs) -> Dict[str, List[Dict[str, object]]]:
    rows = [_median_row(members) for members in _grouped(pairs).values()]
    best: Dict[tuple, Dict[str, object]] = {}
    for row in rows:
        key = (row["workload"], row["n_per_pe"], row["p"])
        if key not in best or row["time_median_s"] < best[key]["time_median_s"]:
            best[key] = row
    best_rows = [
        {
            "workload": workload,
            "n_per_pe": n_per_pe,
            "p": p,
            "best_levels": row["levels"],
            "time_median_s": row["time_median_s"],
            "imbalance": row["imbalance"],
            "max_startups": row["max_startups"],
        }
        for (workload, n_per_pe, p), row in sorted(
            best.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2])
        )
    ]
    return {"rows": rows, "best": best_rows}


def _aggregate_slowdown(pairs) -> Dict[str, List[Dict[str, object]]]:
    per_algo: Dict[tuple, Dict[str, object]] = {}
    for group, members in _grouped(pairs).items():
        row = _median_row(members)
        key = (group.workload, group.n_per_pe, group.p, group.algorithm)
        if key not in per_algo or row["time_median_s"] < per_algo[key]["time_median_s"]:
            per_algo[key] = row
    rows = []
    seen = set()
    for (workload, n_per_pe, p, _), _row in sorted(per_algo.items()):
        point = (workload, n_per_pe, p)
        if point in seen:
            continue
        seen.add(point)
        best_ams = per_algo.get((workload, n_per_pe, p, "ams"))
        best_rlm = per_algo.get((workload, n_per_pe, p, "rlm"))
        if best_ams is None or best_rlm is None:
            continue
        rows.append(
            {
                "workload": workload,
                "p": p,
                "n_per_pe": n_per_pe,
                "ams_levels": best_ams["levels"],
                "ams_time_s": best_ams["time_median_s"],
                "rlm_levels": best_rlm["levels"],
                "rlm_time_s": best_rlm["time_median_s"],
                "slowdown": slowdown_metric(
                    float(best_rlm["time_median_s"]), float(best_ams["time_median_s"])
                ),
            }
        )
    return {"rows": rows}


def _aggregate_overpartitioning(pairs) -> Dict[str, List[Dict[str, object]]]:
    fig10, fig11 = [], []
    for group, members in _grouped(pairs).items():
        row = _median_row(members)
        entry = {
            "workload": group.workload,
            "samples_per_pe": group.samples_per_pe,
            "b": group.overpartitioning,
            "a": group.oversampling,
            "imbalance": row["imbalance"],
            "time_median_s": row["time_median_s"],
        }
        if group.series == "fig11":
            entry["sampling_time_s"] = row.get("phase_splitter_selection", 0.0)
            fig11.append(entry)
        else:
            fig10.append(entry)
    return {"fig10": fig10, "fig11": fig11}


def _aggregate_variance(pairs) -> Dict[str, List[Dict[str, object]]]:
    rows = []
    for group, members in _grouped(pairs).items():
        times = [float(s["total_time_s"]) for _, s in members]
        stats = summarize_runs(times)
        rows.append(
            {
                "workload": group.workload,
                "p": group.p,
                "n_per_pe": group.n_per_pe,
                "levels": group.levels,
                "median_s": stats["median"],
                "min_s": stats["min"],
                "max_s": stats["max"],
                "relative_spread": stats["relative_spread"],
                "runs": stats["runs"],
            }
        )
    return {"rows": rows}


def _aggregate_comparison(pairs) -> Dict[str, List[Dict[str, object]]]:
    per_algo: Dict[tuple, Dict[str, object]] = {}
    order: List[tuple] = []
    for group, members in _grouped(pairs).items():
        row = _median_row(members)
        key = (group.workload, group.p, group.algorithm)
        if key not in per_algo:
            order.append(key)
            per_algo[key] = row
        elif row["time_median_s"] < per_algo[key]["time_median_s"]:
            per_algo[key] = row
    rows = []
    for workload, p, algorithm in order:
        row = per_algo[(workload, p, algorithm)]
        ams = per_algo.get((workload, p, "ams"))
        # None (JSON null) when the point has no AMS row, e.g. because its
        # AMS cells were quarantined — never NaN, which is not valid JSON.
        slowdown = (
            float(row["time_median_s"]) / float(ams["time_median_s"]) if ams else None
        )
        rows.append(
            {
                "workload": workload,
                "p": p,
                "algorithm": algorithm,
                "levels": row["levels"],
                "time_s": row["time_median_s"],
                "slowdown_vs_ams": slowdown,
                "max_startups": row["max_startups"],
            }
        )
    return {"rows": rows}


def _aggregate_level_table(pairs) -> Dict[str, List[Dict[str, object]]]:
    # The plan is workload-invariant, but one row set per workload is kept so
    # every experiment's rows share the campaign-wide workload column.
    rows = []
    for cell, summary in pairs:
        plans = {int(p): plan for p, plan in summary["plan_by_p"].items()}
        depth = cell.levels
        for level in range(depth):
            row: Dict[str, object] = {
                "workload": cell.workload,
                "k": depth,
                "level": level + 1,
            }
            for p in PAPER_P_VALUES:
                row[f"p={p}"] = plans[p][level] if level < len(plans[p]) else None
            rows.append(row)
    return {"rows": rows}


def _aggregate_faults(pairs) -> Dict[str, List[Dict[str, object]]]:
    groups = _grouped(pairs)
    clean: Dict[tuple, float] = {}
    for group, members in groups.items():
        if group.faults == "":
            times = [float(s["total_time_s"]) for _, s in members]
            clean[(group.workload, group.algorithm, group.p, group.n_per_pe)] = (
                float(summarize_runs(times)["median"])
            )
    rows = []
    for group, members in groups.items():
        times = [float(s["total_time_s"]) for _, s in members]
        stats = summarize_runs(times)
        fault_totals: Dict[str, float] = {}
        for _, summary in members:
            for key, value in (summary.get("faults") or {}).items():
                if isinstance(value, (int, float)):
                    fault_totals[key] = fault_totals.get(key, 0.0) + value
        base = clean.get((group.workload, group.algorithm, group.p, group.n_per_pe))
        # None (JSON null) when no healthy baseline exists — never NaN,
        # which would break golden-trace equality (NaN != NaN).
        slowdown = float(stats["median"]) / base if base else None
        rows.append(
            {
                "workload": group.workload,
                "algorithm": group.algorithm,
                "p": group.p,
                "n_per_pe": group.n_per_pe,
                "levels": group.levels,
                "faults": group.faults,
                "time_median_s": float(stats["median"]),
                "slowdown_vs_clean": slowdown,
                "imbalance": max(float(s["imbalance"]) for _, s in members),
                "dropped_rounds": int(fault_totals.get("dropped_rounds", 0)),
                "resent_words": int(fault_totals.get("resent_words", 0)),
                "timeout_wait_s": float(fault_totals.get("timeout_wait_s", 0.0)),
                "recovery_s": float(fault_totals.get("recovery_s", 0.0)),
                "straggle_s": float(fault_totals.get("straggle_s", 0.0)),
            }
        )
    return {"rows": rows}


_AGGREGATORS = {
    "weak_scaling": _aggregate_weak_scaling,
    "slowdown": _aggregate_slowdown,
    "overpartitioning": _aggregate_overpartitioning,
    "variance": _aggregate_variance,
    "comparison": _aggregate_comparison,
    "level_table": _aggregate_level_table,
    "faults": _aggregate_faults,
}


def aggregate_cells(
    cells: Sequence[CampaignCell], summaries: Mapping[str, Mapping[str, object]]
) -> Dict[str, Dict[str, List[Dict[str, object]]]]:
    """Reduce cell summaries to per-experiment row tables (paper order).

    Cells without a summary (quarantined after repeated execution-layer
    failures) are skipped: a broken host must cost rows, never the whole
    campaign.
    """
    out: Dict[str, Dict[str, List[Dict[str, object]]]] = {}
    for experiment in CAMPAIGN_EXPERIMENTS:
        pairs = []
        for cell in cells:
            if cell.experiment != experiment:
                continue
            summary = summaries.get(cell_key(cell))
            if summary is not None:
                pairs.append((cell, dict(summary)))
        if pairs:
            out[experiment] = _AGGREGATORS[experiment](pairs)
    return out


# ----------------------------------------------------------------------
# The campaign driver
# ----------------------------------------------------------------------
def _resolve_profile(
    profile: "str | Mapping[str, object] | None",
) -> Tuple[str, Dict[str, object]]:
    if profile is None or isinstance(profile, str):
        name = profile if profile is not None else os.environ.get("REPRO_SCALE", "quick")
        return name, scale_profile(name)
    return str(profile.get("name", "custom")), dict(profile)


def run_campaign(
    profile: "str | Mapping[str, object] | None" = None,
    experiments: Optional[Sequence[str]] = None,
    workloads: Optional[Sequence[str]] = None,
    jobs: int = 1,
    cache_dir: "Path | str | None" = None,
    resume: bool = True,
    progress: Optional[Callable[[str], None]] = None,
    fault_specs: Optional[Sequence[str]] = None,
    retries: int = 2,
    cell_timeout_s: Optional[float] = None,
) -> Tuple[Dict[str, object], Dict[str, object]]:
    """Expand, execute (sharded if ``jobs > 1``) and aggregate a campaign.

    Returns ``(summary, stats)``.  The summary contains only deterministic
    content (cell specs in, rows out) — no wall-clock times, worker counts or
    cache statistics — so two runs of the same campaign serialize to
    byte-identical JSON regardless of ``jobs`` and of how much came from the
    cache.  The stats dict carries the run-dependent part: cells executed vs
    served from cache, plus the recovery accounting of
    :func:`execute_cells` (retries, quarantines, corrupt cache entries).
    ``fault_specs`` overrides the fault-spec ladder of the ``"faults"``
    experiment (the healthy ``""`` baseline is always included).
    ``cell_timeout_s`` defaults to the profile's ``cell_timeout_s`` entry
    (set for the beyond tier, whose single rows can run for minutes).
    """
    name, prof = _resolve_profile(profile)
    if fault_specs is not None:
        prof["fault_specs"] = tuple(fault_specs)
    if cell_timeout_s is None:
        raw_timeout = prof.get("cell_timeout_s")
        cell_timeout_s = float(raw_timeout) if raw_timeout else None
    cells = expand_campaign(prof, experiments=experiments, workloads=workloads)
    cache = CellCache(cache_dir) if cache_dir is not None else None
    summaries, stats = execute_cells(
        cells, jobs=jobs, cache=cache, resume=resume, progress=progress,
        retries=retries, cell_timeout_s=cell_timeout_s,
    )
    used_experiments = tuple(dict.fromkeys(c.experiment for c in cells))
    used_workloads = tuple(dict.fromkeys(c.workload for c in cells))
    summary = {
        "meta": {
            "campaign": "conf_spaa_AxtmannBS015",
            "profile": name,
            "rng_version": RNG_VERSION,
            "experiments": list(used_experiments),
            "workloads": list(used_workloads),
            "cells": len(cells),
        },
        "experiments": aggregate_cells(cells, summaries),
    }
    return summary, stats


def campaign_to_json(summary: Mapping[str, object]) -> str:
    """Canonical JSON serialization (sorted keys, trailing newline)."""
    return json.dumps(summary, indent=2, sort_keys=True) + "\n"


_SECTION_TITLES = {
    "weak_scaling": "Table 2 / Figure 8 — AMS-sort weak scaling",
    "slowdown": "Figure 7 — slowdown of RLM-sort vs AMS-sort",
    "overpartitioning": "Figures 10/11 — oversampling and overpartitioning",
    "variance": "Figure 12 — distribution of modelled wall-times",
    "comparison": (
        "Section 7.3 — AMS-sort vs single-level baselines "
        f"(mergesort only up to p = {MERGESORT_MAX_P})"
    ),
    "level_table": "Table 1 — group counts r per level",
    "faults": "Fault degradation — slowdown and recovery cost vs fault rate",
}


def format_section(experiment: str, section: str, rows) -> str:
    """One aggregated section of an experiment as a titled text table."""
    title = _SECTION_TITLES[experiment]
    if section != "rows":
        title += f" [{section}]"
    return format_table(rows, title=title)


def format_campaign(summary: Mapping[str, object]) -> str:
    """Render the campaign summary as the familiar experiment text tables."""
    meta = summary["meta"]
    text = [
        f"Campaign: profile={meta['profile']}  cells={meta['cells']}  "
        f"workloads={','.join(meta['workloads'])}  rng={meta['rng_version']}"
    ]
    experiments = summary["experiments"]
    for experiment in CAMPAIGN_EXPERIMENTS:
        if experiment not in experiments:
            continue
        for section, rows in experiments[experiment].items():
            if rows:
                text.append(format_section(experiment, section, rows))
    return "\n\n".join(text)
