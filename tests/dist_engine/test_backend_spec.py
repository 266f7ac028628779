"""Backend-spec validation: a bad spec fails early with a pinned message.

``numpy`` is the only named backend; anything else must fail at call time
with a message naming the offending spec, before any sorting starts.
"""

import numpy as np
import pytest

from repro.core.runner import run_on_machine
from repro.dist.backend import NumpyBackend, get_backend
from repro.sim.machine import SimulatedMachine


class TestValidateBackendSpec:
    def test_accepts_known_specs(self):
        assert isinstance(get_backend(None), NumpyBackend)
        assert get_backend("numpy") is get_backend("  NumPy ")

    def test_unknown_backend_lists_the_known_ones(self):
        with pytest.raises(
            ValueError, match=r"unknown backend spec 'cuda'; known: numpy"
        ):
            get_backend("cuda")

    def test_numpy_takes_no_argument(self):
        with pytest.raises(ValueError, match=r"unknown backend spec 'numpy:2'"):
            get_backend("numpy:2")


class TestEntryPoints:
    def test_run_on_machine_rejects_bad_spec_before_running(self):
        machine = SimulatedMachine(4, seed=0)
        data = [np.arange(8) for _ in range(4)]
        with pytest.raises(ValueError, match=r"unknown backend spec 'gpu:0'"):
            run_on_machine(machine, data, algorithm="ams", backend="gpu:0")
        assert machine.backend_used is None

    def test_get_backend_rejects_explicit_bad_spec(self):
        with pytest.raises(ValueError, match=r"unknown backend spec 'mpi'"):
            get_backend("mpi")
