"""Flat vs reference engine equivalence across every named workload.

The engine-equivalence suite historically exercised uniform-ish random
inputs only.  The campaign threads a workload axis through every experiment,
so the cross-engine byte-identity contract must hold for every generator in
:data:`repro.workloads.generators.WORKLOADS` — including the adversarial
ones (all-equal keys stress tie-breaking, zipf stresses duplicate handling,
nearly-sorted/staggered stress splitter quality).  For each workload and
``p`` in {16, 64} the flat engine must reproduce the reference engine's
outputs, per-PE clocks, phase breakdowns and traffic counters byte for byte.
The same holds with AMS-sort's bucket-processing blocks shrunk, so that the
adversarial workloads also drive the block passes that split an island.
"""

import importlib

import numpy as np
import pytest

from repro.core.config import AMSConfig, RLMConfig
from repro.core.runner import run_on_machine
from repro.machine.spec import laptop_like
from repro.sim.machine import SimulatedMachine
from repro.workloads.generators import WORKLOADS, per_pe_workload

P_VALUES = (16, 64)
N_PER_PE = {16: 80, 64: 40}

COUNTER_FIELDS = (
    "messages_sent",
    "messages_received",
    "words_sent",
    "words_received",
    "collective_ops",
    "exchange_ops",
)


def _run(workload, p, algorithm, config, engine, seed=11):
    machine = SimulatedMachine(p, spec=laptop_like(), seed=seed)
    data = per_pe_workload(workload, p, N_PER_PE[p], seed=seed + 1)
    result = run_on_machine(
        machine, [d.copy() for d in data], algorithm=algorithm,
        config=config, engine=engine, validate=True,
    )
    return result, machine


def _assert_engines_identical(workload, p, algorithm, config):
    res_flat, m_flat = _run(workload, p, algorithm, config, "flat")
    res_ref, m_ref = _run(workload, p, algorithm, config, "reference")

    for i, (a, b) in enumerate(zip(res_flat.output, res_ref.output)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (
            f"{workload} p={p}: output of PE {i} differs between engines"
        )
    assert np.array_equal(m_flat.clock, m_ref.clock), (
        f"{workload} p={p}: per-PE clocks differ between engines"
    )
    assert sorted(m_flat.breakdown.phases()) == sorted(m_ref.breakdown.phases())
    for phase in m_ref.breakdown.phases():
        assert np.array_equal(
            m_flat.breakdown.per_pe(phase), m_ref.breakdown.per_pe(phase)
        ), f"{workload} p={p}: phase {phase!r} breakdown differs"
    for field in COUNTER_FIELDS:
        assert np.array_equal(
            getattr(m_flat.counters, field), getattr(m_ref.counters, field)
        ), f"{workload} p={p}: counter {field} differs"


@pytest.mark.parametrize("p", P_VALUES)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_ams_engines_identical_on_workload(workload, p):
    _assert_engines_identical(
        workload, p, "ams", AMSConfig(levels=2, node_size=4)
    )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_rlm_engines_identical_on_workload(workload):
    # RLM-sort's exact multiselect is the tie-breaking stress path; one
    # machine size keeps the reference-engine cost in budget.
    _assert_engines_identical(
        workload, 16, "rlm", RLMConfig(levels=2, node_size=4)
    )


# Bucket-processing block size for the small-block runs.  At the default
# size every batch here fits one block; at 256 elements level 0's single
# island (768 or 2,560 keys) splits into several blocks, and level 1 packs
# or splits its 4-PE islands as the workload's grouping loads them.
SMALL_BLOCK = 256


@pytest.mark.parametrize("delivery", ["deterministic", "naive", "advanced"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_ams_engines_identical_on_workload_small_blocks(
    workload, delivery, monkeypatch
):
    """Byte identity when bucket processing cuts islands into blocks.

    All three deliveries read the column-major piece plane: the
    deterministic one through its batched assignment, the naive one island
    by island and, at the final level, as the received values in place,
    and the advanced one through its chunks at every level.
    """
    ams_module = importlib.import_module("repro.core.ams_sort")
    monkeypatch.setattr(ams_module, "_BLOCK_ELEMS", SMALL_BLOCK)
    split_seen = []
    blocks_init = ams_module._LevelBlocks.__init__

    def recording_init(blocks, *args):
        blocks_init(blocks, *args)
        split_seen.append(any(b[6] for b in blocks.blocks))

    monkeypatch.setattr(ams_module._LevelBlocks, "__init__", recording_init)
    _assert_engines_identical(
        workload, 64, "ams", AMSConfig(levels=2, node_size=4, delivery=delivery)
    )
    assert split_seen[0], f"{workload}: level 0 never split its island"
