"""Outside-in tracing for the benchmark: layer, phase and kernel spans.

Nothing here changes what the program computes; the traced run checks that
against an untraced run of the same seed.

* :class:`TimingBackend` is a ``KernelBackend`` that delegates every kernel
  to the default numpy backend and records one span per call.
* :meth:`Tracer.attach` wraps one machine's public ``phase()`` context
  manager, so each phase interval becomes a span and each kernel span gets
  the phase that was innermost when it was called as its parent.
* :meth:`Tracer.span` times any block around a call into a layer.

Spans stay in memory; :func:`write_chrome_trace` writes them once, as Chrome
trace-event JSON (open it in https://ui.perfetto.dev or chrome://tracing).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from repro.dist.backend import KernelBackend, NumpyBackend
from repro.machine.counters import PAPER_PHASES, PHASE_OTHER

#: The nine element-scale kernels of the ``KernelBackend`` interface.
KERNELS = (
    "segmented_sort_values",
    "segmented_searchsorted",
    "blockwise_searchsorted",
    "ragged_bincount",
    "bincount",
    "stable_key_argsort",
    "stable_two_key_argsort",
    "gather",
    "take_ranges",
)

#: Parent of time spent before a run's first phase or after its last: the
#: machine's wall profile attributes that time to no phase.
OUTSIDE = "outside"

#: Every parent a kernel span can have, in report order.
PHASES = PAPER_PHASES + (PHASE_OTHER, OUTSIDE)

# Span fields.  Spans are lists so that a pending parent can be settled.
CAT, NAME, START, END, PARENT, ELEMENTS = range(6)


class Tracer:
    """In-memory span recorder plus the kernel proxy that feeds it."""

    def __init__(self) -> None:
        self.origin = perf_counter()
        self.spans: list = []
        self.backend = TimingBackend(self)
        self.machine = None
        self._depth = 0
        self._entered = False
        self._pending: list = []

    @contextmanager
    def span(self, cat: str, name: str):
        start = perf_counter()
        try:
            yield
        finally:
            self.spans.append([cat, name, start, perf_counter(), "", 0])

    def attach(self, machine) -> None:
        """Start a run on ``machine``: its phase and kernel spans come here."""
        self.settle()
        self._entered = False
        if machine is self.machine:
            return
        self.machine = machine
        original = machine.phase

        @contextmanager
        def phase(name):
            if self._depth == 0:
                # Kernel time between two phases is the wall profile's "other".
                for span in self._pending:
                    span[PARENT] = PHASE_OTHER
                self._pending.clear()
            self._depth += 1
            self._entered = True
            start = perf_counter()
            try:
                with original(name):
                    yield
            finally:
                self._depth -= 1
                self.spans.append(["phase", name, start, perf_counter(), "", 0])

        machine.phase = phase

    def settle(self) -> None:
        """End of a run: kernel time after its last phase stays outside phases."""
        self._pending.clear()

    def kernel(self, name: str, start: float, end: float, elements: int) -> None:
        span = ["kernel", name, start, end, OUTSIDE, elements]
        if self._depth:
            span[PARENT] = self.machine.current_phase
        elif self._entered:
            self._pending.append(span)
        self.spans.append(span)

    def durations(self, cat: str, name: str | None = None) -> list:
        """Durations of the spans of one category (and name)."""
        return [s[END] - s[START] for s in self.spans
                if s[CAT] == cat and name in (None, s[NAME])]


def _timed(kernel: str):
    def call(self, *args, **kwargs):
        start = perf_counter()
        out = getattr(self.inner, kernel)(*args, **kwargs)
        self.tracer.kernel(kernel, start, perf_counter(), int(np.size(args[0])))
        return out

    call.__name__ = kernel
    return call


class TimingBackend(KernelBackend):
    """Numpy kernels, each call recorded as a span (elements = first argument)."""

    name = "timed-numpy"

    def __init__(self, tracer: Tracer) -> None:
        self.inner = NumpyBackend()
        self.tracer = tracer

    segmented_sort_values = _timed("segmented_sort_values")
    segmented_searchsorted = _timed("segmented_searchsorted")
    blockwise_searchsorted = _timed("blockwise_searchsorted")
    ragged_bincount = _timed("ragged_bincount")
    bincount = _timed("bincount")
    stable_key_argsort = _timed("stable_key_argsort")
    stable_two_key_argsort = _timed("stable_two_key_argsort")
    gather = _timed("gather")
    take_ranges = _timed("take_ranges")


def kernel_table(tracer: Tracer) -> dict:
    """``{(parent phase, kernel): [calls, busy_s, elements]}`` over all spans."""
    table: dict = {}
    for span in tracer.spans:
        if span[CAT] == "kernel":
            row = table.setdefault((span[PARENT], span[NAME]), [0, 0.0, 0])
            row[0] += 1
            row[1] += span[END] - span[START]
            row[2] += span[ELEMENTS]
    return table


def phase_kernel_metrics(tracer: Tracer, profiles: list, walls: list) -> dict:
    """Per-phase wall, kernel busy and self time; per-kernel calls and rate.

    ``profiles`` are the machines' wall profiles of the traced calls and
    ``walls`` the traced call walls, so every figure is a mean per call.
    The phase walls, ``outside`` included, add up to the mean call wall.
    """
    n = len(walls)
    table = kernel_table(tracer)
    wall = {ph: sum(p.get(ph, 0.0) for p in profiles) / n for ph in PHASES[:-1]}
    wall[OUTSIDE] = sum(walls) / n - sum(wall.values())
    metrics = {}
    for ph in PHASES:
        busy = sum(row[1] for (parent, _), row in table.items() if parent == ph) / n
        metrics[f"phase.{ph}.wall_s"] = (wall[ph], "s")
        metrics[f"phase.{ph}.kernel_busy_s"] = (busy, "s")
        metrics[f"phase.{ph}.self_s"] = (wall[ph] - busy, "s")
    total_busy = 0.0
    for kernel in KERNELS:
        rows = [row for (_, name), row in table.items() if name == kernel]
        calls = sum(r[0] for r in rows)
        busy = sum(r[1] for r in rows)
        elements = sum(r[2] for r in rows)
        total_busy += busy
        metrics[f"kernel.{kernel}.calls"] = (round(calls / n), "count")
        metrics[f"kernel.{kernel}.busy_s"] = (busy / n, "s")
        metrics[f"kernel.{kernel}.melem_per_s"] = (
            elements / busy / 1e6 if busy else 0.0, "Melem/s")
    metrics["kernel.busy_share"] = (total_busy / sum(walls), "ratio")
    return metrics


def write_chrome_trace(path, tracer: Tracer, metadata: dict) -> None:
    """Write every span as a complete ("X") trace event, times in microseconds."""
    events = [
        {
            "name": span[NAME],
            "cat": span[CAT],
            "ph": "X",
            "pid": 1,
            "tid": 1,
            "ts": (span[START] - tracer.origin) * 1e6,
            "dur": (span[END] - span[START]) * 1e6,
            "args": {"parent": span[PARENT], "elements": span[ELEMENTS]},
        }
        for span in sorted(tracer.spans, key=lambda s: (s[START], -s[END]))
    ]
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                   "otherData": metadata}, fh)
