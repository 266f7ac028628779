"""One RNG discipline: every algorithmic draw comes from a keyed counter stream.

Samples, selection pivots and Feistel round keys are pure functions of the
machine seed and the draw's coordinates.  So a sort is charged the same
whatever ran on the machine before, no ``np.random.Generator`` is built
while sorting, and the lockstep selection draws all islands' pivots of a
round in one counter call.
"""

import importlib

import numpy as np
import pytest

from repro.blocks.delivery import DELIVERY_METHODS
from repro.core.baselines import single_level_mergesort
from repro.core.config import AMSConfig, RLMConfig
from repro.core.runner import ENGINES, run_on_machine
from repro.dist.ctr_rng import CounterRNG
from repro.sim.machine import SimulatedMachine
from repro.workloads.generators import per_pe_workload


def test_mergesort_charges_the_same_on_every_call():
    """Pivots do not depend on the draws of earlier calls on the machine."""
    p = 64
    data = per_pe_workload("uniform", p, 1000, seed=1)
    machine = SimulatedMachine(p, seed=0)
    increments, rounds = [], []
    for _ in range(3):
        time_before = machine.elapsed()
        ops_before = machine.counters.collective_ops.copy()
        single_level_mergesort(machine.world(), data)
        increments.append(machine.elapsed() - time_before)
        rounds.append(machine.counters.collective_ops - ops_before)
    assert increments[1] == pytest.approx(increments[0], rel=1e-12)
    assert increments[2] == pytest.approx(increments[0], rel=1e-12)
    assert np.array_equal(rounds[1], rounds[0])
    assert np.array_equal(rounds[2], rounds[0])


SORT_CASES = [
    pytest.param("ams", AMSConfig(levels=2, delivery=method), id=f"ams-{method}")
    for method in DELIVERY_METHODS
] + [
    pytest.param("rlm", RLMConfig(levels=2), id="rlm"),
    pytest.param("samplesort", None, id="samplesort"),
    pytest.param("mergesort", None, id="mergesort"),
    pytest.param("quicksort", None, id="quicksort"),
]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("algorithm,config", SORT_CASES)
def test_sorting_builds_no_numpy_generator(monkeypatch, algorithm, config, engine):
    p = 16
    data = per_pe_workload("uniform", p, 200, seed=1)

    def refuse(*args, **kwargs):
        raise AssertionError("np.random.default_rng called while sorting")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    machine = SimulatedMachine(p, seed=0)
    run_on_machine(machine, data, algorithm=algorithm, config=config, engine=engine)


def test_rlm_draws_each_pivot_round_in_one_counter_call(monkeypatch):
    """One ``CounterRNG.integers`` call per selection round, all islands in it.

    Every round of the lockstep selection makes one segmented search, so
    the searches count the rounds.  RLM-sort draws nothing else from a
    counter stream.
    """
    multiselect = importlib.import_module("repro.blocks.multiselect")
    draws, rounds = [], []
    integers = CounterRNG.integers
    search = multiselect.segmented_searchsorted

    def recording_integers(rng, level, pe, index, bound):
        draws.append(np.size(bound))
        return integers(rng, level, pe, index, bound)

    def counting_search(*args, **kwargs):
        rounds.append(1)
        return search(*args, **kwargs)

    monkeypatch.setattr(CounterRNG, "integers", recording_integers)
    monkeypatch.setattr(multiselect, "segmented_searchsorted", counting_search)
    p = 1024
    config = RLMConfig(levels=3)
    machine = SimulatedMachine(p, seed=0)
    run_on_machine(
        machine, per_pe_workload("zipf", p, 200, seed=1),
        algorithm="rlm", config=config,
    )
    assert rounds
    assert len(draws) == len(rounds)
    # A level of several islands draws all their rank rows at once.
    assert max(draws) > max(config.plan_for(p)) - 1
