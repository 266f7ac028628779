"""The kernel dispatch hook: a second ``KernelBackend`` sees every kernel call.

The flat engine's element-scale kernels dispatch through
:mod:`repro.dist.backend`, so a proxy backend (the benchmark's kernel
tracer) can observe a run without changing it.  These tests install a
recording fake that counts its calls and delegates to the numpy kernels,
and pin that every ``flatops`` dispatcher reaches it with its arguments
intact, that every kernel the engine calls reaches it during AMS-sort and
RLM-sort runs, and that a run through it is byte-identical to a numpy run:
outputs, clocks, phase breakdowns and traffic counters.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import AMSConfig, RLMConfig
from repro.core.runner import run_on_machine
from repro.dist import flatops
from repro.dist.backend import (
    KernelBackend,
    NumpyBackend,
    get_backend,
    install,
    use_backend,
)
from repro.machine.spec import laptop_like
from repro.sim.machine import SimulatedMachine
from repro.workloads.generators import WORKLOADS, per_pe_workload

COUNTER_FIELDS = (
    "messages_sent",
    "messages_received",
    "words_sent",
    "words_received",
    "collective_ops",
    "exchange_ops",
)

#: The eight abstract kernels of the interface.
KERNELS = sorted(KernelBackend.__abstractmethods__)


def _recorded(kernel):
    def call(self, *args, **kwargs):
        self.calls[kernel] += 1
        return getattr(NumpyBackend, kernel)(self, *args, **kwargs)

    return call


class RecordingBackend(NumpyBackend):
    """Numpy kernels that count their calls per kernel."""

    name = "recording"

    def __init__(self):
        self.calls = Counter()


for _kernel in KERNELS:
    setattr(RecordingBackend, _kernel, _recorded(_kernel))


@pytest.fixture(scope="module")
def recording():
    return RecordingBackend()


REFERENCE = NumpyBackend()


def assert_identical(a: np.ndarray, b: np.ndarray, what: str) -> None:
    assert a.dtype == b.dtype, f"{what}: dtype {a.dtype} != {b.dtype}"
    assert a.shape == b.shape, f"{what}: shape {a.shape} != {b.shape}"
    assert np.array_equal(a, b), f"{what}: values differ"


# ---------------------------------------------------------------------------
# Hypothesis strategies: ragged CSR layouts with empty segments and
# duplicate-heavy values.
# ---------------------------------------------------------------------------
def csr_layout(draw, max_segments=10, max_len=24, high=12):
    """A ragged CSR (values, offsets) pair; ``high`` small → many duplicates."""
    sizes = draw(
        st.lists(st.integers(0, max_len), min_size=1, max_size=max_segments)
    )
    offsets = np.concatenate([[0], np.cumsum(np.asarray(sizes, dtype=np.int64))])
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    values = rng.integers(0, high, size=int(offsets[-1]), dtype=np.int64)
    return values, offsets


def dispatched(backend, kernel, *args, **kwargs):
    """``flatops.<kernel>(...)`` with ``backend`` installed; the call must reach it."""
    before = backend.calls[kernel]
    with use_backend(backend):
        out = getattr(flatops, kernel)(*args, **kwargs)
    assert backend.calls[kernel] > before, f"{kernel} bypassed the backend"
    return out


class TestKernelOracles:
    """Each ``flatops`` dispatcher reaches the installed backend with its
    arguments intact: its result equals the numpy kernel called directly."""

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_segmented_sort_values(self, recording, data):
        values, offsets = csr_layout(data.draw)
        expect = REFERENCE.segmented_sort_values(values, offsets)
        got = dispatched(recording, "segmented_sort_values", values, offsets)
        assert_identical(expect, got, "segmented_sort_values")

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_segmented_searchsorted(self, recording, data):
        values, offsets = csr_layout(data.draw)
        values = REFERENCE.segmented_sort_values(values, offsets)
        n_seg = offsets.size - 1
        n_q = data.draw(st.integers(0, 30))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
        queries = rng.integers(-2, 14, size=n_q)
        query_seg = rng.integers(0, n_seg, size=n_q)
        side = data.draw(
            st.sampled_from(["left", "right", "mask"])
        )
        if side == "mask":
            side = rng.integers(0, 2, size=n_q).astype(bool)
        expect = REFERENCE.segmented_searchsorted(
            values, offsets, queries, query_seg, side=side
        )
        got = dispatched(
            recording, "segmented_searchsorted",
            values, offsets, queries, query_seg, side=side
        )
        assert_identical(expect, got, "segmented_searchsorted")

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_segmented_searchsorted_windowed(self, recording, data):
        values, offsets = csr_layout(data.draw)
        values = REFERENCE.segmented_sort_values(values, offsets)
        n_seg = offsets.size - 1
        n_q = data.draw(st.integers(0, 20))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
        queries = rng.integers(-2, 14, size=n_q)
        query_seg = rng.integers(0, n_seg, size=n_q)
        seg_sizes = (offsets[1:] - offsets[:-1])[query_seg]
        lo = (rng.random(n_q) * (seg_sizes + 1)).astype(np.int64)
        hi = lo + (rng.random(n_q) * (seg_sizes - lo + 1)).astype(np.int64)
        expect = REFERENCE.segmented_searchsorted(
            values, offsets, queries, query_seg, side="right", lo=lo, hi=hi
        )
        got = dispatched(
            recording, "segmented_searchsorted",
            values, offsets, queries, query_seg, side="right", lo=lo, hi=hi
        )
        assert_identical(expect, got, "segmented_searchsorted windowed")

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_blockwise_searchsorted(self, recording, data):
        values, offsets = csr_layout(data.draw)
        values = REFERENCE.segmented_sort_values(values, offsets)
        n_seg = offsets.size - 1
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
        q_sizes = rng.integers(0, 12, size=n_seg)
        query_offsets = np.concatenate([[0], np.cumsum(q_sizes)])
        queries = rng.integers(-2, 14, size=int(query_offsets[-1]))
        side = data.draw(st.sampled_from(["left", "right"]))
        expect = REFERENCE.blockwise_searchsorted(
            values, offsets, queries, query_offsets, side=side
        )
        got = dispatched(
            recording, "blockwise_searchsorted",
            values, offsets, queries, query_offsets, side=side
        )
        assert_identical(expect, got, "blockwise_searchsorted")

    @given(st.integers(0, 2**31 - 1), st.integers(0, 80), st.integers(1, 20))
    @settings(max_examples=40, deadline=None)
    def test_bincount(self, recording, seed, n, high):
        rng = np.random.default_rng(seed)
        key = rng.integers(0, high, size=n)
        minlength = int(rng.integers(0, 2 * high))
        expect = REFERENCE.bincount(key, minlength=minlength)
        got = dispatched(recording, "bincount", key, minlength=minlength)
        assert_identical(expect, got, "bincount")

    def test_bincount_weighted(self, recording):
        rng = np.random.default_rng(0)
        key = rng.integers(0, 9, size=200)
        w = rng.random(200)
        expect = REFERENCE.bincount(key, minlength=16, weights=w)
        got = dispatched(recording, "bincount", key, minlength=16, weights=w)
        assert_identical(expect, got, "bincount weighted")

    @given(st.integers(0, 2**31 - 1), st.integers(0, 120), st.integers(1, 64))
    @settings(max_examples=40, deadline=None)
    def test_stable_key_argsort(self, recording, seed, n, bound):
        rng = np.random.default_rng(seed)
        key = rng.integers(0, bound, size=n)
        expect = REFERENCE.stable_key_argsort(key, bound)
        got = dispatched(recording, "stable_key_argsort", key, bound)
        assert_identical(expect, got, "stable_key_argsort")

    @given(
        st.integers(0, 2**31 - 1),
        st.integers(0, 120),
        st.integers(1, 12),
        st.integers(1, 12),
    )
    @settings(max_examples=40, deadline=None)
    def test_stable_two_key_argsort(self, recording, seed, n, mb, nb):
        rng = np.random.default_rng(seed)
        major = rng.integers(0, mb, size=n)
        minor = rng.integers(0, nb, size=n)
        expect = REFERENCE.stable_two_key_argsort(major, minor, mb, nb)
        got = dispatched(recording, "stable_two_key_argsort", major, minor, mb, nb)
        assert_identical(expect, got, "stable_two_key_argsort")

    @given(st.integers(0, 2**31 - 1), st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_gather(self, recording, seed, n):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 1000, size=max(n, 1))
        indices = rng.integers(0, values.size, size=n)
        expect = REFERENCE.gather(values, indices)
        got = dispatched(recording, "gather", values, indices)
        assert_identical(expect, got, "gather")

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_take_ranges(self, recording, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
        values = rng.integers(0, 1000, size=80)
        k = data.draw(st.integers(0, 12))
        lengths = rng.integers(0, 10, size=k)
        starts = rng.integers(0, values.size - 9, size=k) if k else np.empty(
            0, dtype=np.int64
        )
        expect = REFERENCE.take_ranges(values, starts, lengths)
        got = dispatched(recording, "take_ranges", values, starts, lengths)
        assert_identical(expect, got, "take_ranges")

    def test_float_values_supported(self, recording):
        rng = np.random.default_rng(3)
        values = rng.random(5000)
        offsets = np.array([0, 1200, 1200, 5000], dtype=np.int64)
        expect = REFERENCE.segmented_sort_values(values, offsets)
        got = dispatched(recording, "segmented_sort_values", values, offsets)
        assert_identical(expect, got, "segmented_sort_values float")


# ---------------------------------------------------------------------------
# Validation: the numpy kernels reject malformed calls up front.
# ---------------------------------------------------------------------------
class TestValidationParity:
    def test_searchsorted_window_out_of_range(self):
        values = np.arange(10)
        offsets = np.array([0, 10])
        q = np.array([5])
        seg = np.array([0])
        with pytest.raises(IndexError):
            REFERENCE.segmented_searchsorted(
                values, offsets, q, seg, lo=np.array([4]), hi=np.array([20])
            )

    def test_searchsorted_bad_segment(self):
        with pytest.raises(IndexError):
            REFERENCE.segmented_searchsorted(
                np.arange(4), np.array([0, 4]), np.array([1]), np.array([3])
            )

    def test_blockwise_bad_offsets(self):
        with pytest.raises(ValueError):
            REFERENCE.blockwise_searchsorted(
                np.arange(4), np.array([0, 2, 4]), np.array([1]), np.array([0, 1])
            )


# ---------------------------------------------------------------------------
# End-to-end: whole sorts through the fake are byte-identical to numpy.
# ---------------------------------------------------------------------------
def run_with(backend, algorithm, config, p, data, seed):
    machine = SimulatedMachine(p, spec=laptop_like(), seed=seed)
    result = run_on_machine(
        machine, [d.copy() for d in data], algorithm=algorithm,
        config=config, backend=backend,
    )
    return machine, result


def assert_runs_identical(backend_b, algorithm, config, p, data, seed=0):
    m_a, r_a = run_with("numpy", algorithm, config, p, data, seed)
    m_b, r_b = run_with(backend_b, algorithm, config, p, data, seed)
    assert m_a.backend_used == "numpy"
    assert m_b.backend_used == backend_b.name
    for i, (x, y) in enumerate(zip(r_a.output, r_b.output)):
        assert np.array_equal(x, y), f"output of PE {i} differs"
    assert r_a.total_time == r_b.total_time
    assert r_a.phase_times == r_b.phase_times
    assert r_a.traffic == r_b.traffic
    assert np.array_equal(m_a.clock, m_b.clock)
    for phase in m_a.breakdown.phases():
        assert np.array_equal(
            m_a.breakdown.per_pe(phase), m_b.breakdown.per_pe(phase)
        ), f"phase {phase!r} differs"
    for field in COUNTER_FIELDS:
        assert np.array_equal(
            getattr(m_a.counters, field), getattr(m_b.counters, field)
        ), f"counter {field} differs"


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("p", [16, 64])
def test_ams_identical_across_backends(recording, workload, p):
    data = per_pe_workload(workload, p, 60, seed=p)
    config = AMSConfig(levels=2, node_size=4)
    assert_runs_identical(recording, "ams", config, p, data, seed=p)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("p", [16, 64])
def test_rlm_identical_across_backends(recording, workload, p):
    data = per_pe_workload(workload, p, 60, seed=p + 1)
    config = RLMConfig(levels=2, node_size=4)
    assert_runs_identical(recording, "rlm", config, p, data, seed=p)


def test_three_level_ams_identical(recording):
    data = per_pe_workload("uniform", 27, 80, seed=3)
    config = AMSConfig(levels=3, node_size=2)
    assert_runs_identical(recording, "ams", config, 27, data, seed=3)


# ---------------------------------------------------------------------------
# Registry / selection mechanics.
# ---------------------------------------------------------------------------
class TestBackendSelection:
    def test_get_backend_specs(self, recording):
        numpy_backend = get_backend("numpy")
        assert isinstance(numpy_backend, NumpyBackend)
        assert get_backend(" NumPy ") is numpy_backend  # one shared instance
        assert get_backend(None) is numpy_backend  # the process default
        assert get_backend(recording) is recording  # instances pass through

    def test_unknown_spec_rejected(self):
        # Scripts written for the former shared-memory backend must fail loudly.
        before = flatops._active_backend()
        for spec in ("sharedmem", "sharedmem:2", "warp"):
            with pytest.raises(ValueError, match=f"unknown backend spec '{spec}'; known: numpy"):
                get_backend(spec)
            with pytest.raises(ValueError, match="unknown backend spec"):
                install(spec)
        assert flatops._active_backend() is before

    def test_use_backend_restores(self, recording):
        before = flatops._active_backend()
        with use_backend(recording) as active:
            assert active is recording
            assert flatops._active_backend() is recording
        assert flatops._active_backend() is before

    def test_dispatch_goes_through_backend(self):
        backend = RecordingBackend()
        data = per_pe_workload("duplicates", 8, 40, seed=5)
        run_with(backend, "ams", AMSConfig(levels=2, node_size=2), 8, data, seed=5)
        run_with(backend, "rlm", RLMConfig(levels=2, node_size=2), 8, data, seed=5)
        # The engine calls every kernel of the interface, and each call
        # reaches the installed backend.
        assert len(KERNELS) == 8
        assert sorted(backend.calls) == KERNELS

    def test_machine_default_backend(self, recording):
        data = per_pe_workload("uniform", 8, 40, seed=5)
        machine = SimulatedMachine(8, spec=laptop_like(), seed=5)
        run_on_machine(machine, data, algorithm="ams", config=AMSConfig(node_size=2))
        assert machine.backend_used == "numpy"
        run_on_machine(machine, data, algorithm="ams", config=AMSConfig(node_size=2),
                       backend=recording)
        assert machine.backend_used == "recording"
