"""Deterministic fault injection for the simulated machine.

Real massively-parallel sorters run on machines that are never perfectly
healthy: some nodes are persistently slow, and exchange rounds are
occasionally dropped and must be retransmitted after a timeout.  This module
models both as a *seeded, fully deterministic* overlay on the simulator's
cost model:

* **Stragglers** — a subset of PEs (expected fraction
  ``straggler_fraction``) runs every charge ``straggler_factor`` times
  slower.  The slowdown scales every local-work, collective and exchange
  charge that flows through
  :meth:`~repro.sim.machine.SimulatedMachine.advance` /
  :meth:`~repro.sim.machine.SimulatedMachine.advance_many`.
* **Dropped exchange rounds** — each irregular exchange (``Exch(P, h, r)``)
  can fail per PE with probability ``drop_rate``.  Every failure costs a
  timeout (``timeout_rounds * alpha`` of idle wait) plus a retransmission
  charged through the same ``alpha * r + beta * h`` model scaled by
  ``resend_fraction``; the number of consecutive failures is a truncated
  geometric draw (at most ``max_retries``).

Determinism is the load-bearing property:

* All draws come from a dedicated :class:`~repro.dist.ctr_rng.CounterRNG`
  whose seed is salted away from the machine seed and whose ``level`` slot
  carries a *fault-domain tag* — the sampling/pivot streams (and therefore
  ``RNG_VERSION`` and the sorted outputs) are untouched.
* Draws are keyed only by per-PE state that is byte-identical across the
  flat and reference engines: the PE index (straggler draw) and the per-PE
  exchange counter (drop draws).  Both engines therefore charge
  byte-identical faulted clocks.
* With no plan attached — or a plan whose every rate is zero — the machine
  is byte-identical to a fault-free one (the scaling hooks short-circuit).

Recovery costs are tallied per PE in
:class:`~repro.machine.counters.FaultCounters` and surface in
``SortResult.summary_dict()`` under the ``"faults"`` key (only when a plan
is active, keeping golden traces of fault-free runs byte-identical).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.dist.ctr_rng import CounterRNG
from repro.machine.counters import FaultCounters


# Fault-domain tags, passed in the ``level`` slot of the CounterRNG key so
# every fault class consumes its own independent stream family.
FAULT_DOMAIN_STRAGGLER = 2  #: which PEs are persistent stragglers
FAULT_DOMAIN_DROP = 4  #: per (PE, exchange index) drop/retry draw

#: Salt mixed into the plan seed so a FaultPlan sharing the machine seed
#: still draws from streams uncorrelated with the sampling paths.
_FAULT_SEED_SALT = 0x5FA17_1A9E5


@dataclass(frozen=True)
class FaultPlan:
    """Seeded description of the faults to inject (all off by default).

    Attach to a machine with ``SimulatedMachine(..., faults=FaultPlan(...))``
    or as a spec string (see :func:`parse_fault_spec`).  A default-constructed
    plan injects nothing; the machine then behaves byte-identically to one
    with no plan at all.

    Attributes
    ----------
    seed:
        Seed of the fault streams (independent of the machine seed).
    straggler_fraction:
        Expected fraction of PEs that are persistent stragglers.
    straggler_factor:
        Slowdown multiplier of straggler PEs (``>= 1``).
    drop_rate:
        Per-PE, per-exchange probability that a round is dropped and must be
        retransmitted (must be ``< 1``).
    max_retries:
        Cap on consecutive retransmissions per exchange per PE.
    timeout_rounds:
        Idle wait before a dropped round is detected, in units of ``alpha``
        (message startup latency).
    resend_fraction:
        Fraction of the exchange volume/startups retransmitted per retry
        (1.0 = full retransmit).
    """

    seed: int = 0
    straggler_fraction: float = 0.0
    straggler_factor: float = 2.0
    drop_rate: float = 0.0
    max_retries: int = 3
    timeout_rounds: float = 4.0
    resend_fraction: float = 1.0

    def __post_init__(self) -> None:
        for name in ("straggler_fraction", "resend_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if not 0.0 <= self.drop_rate < 1.0:
            raise ValueError(f"drop_rate must be in [0, 1), got {self.drop_rate}")
        if self.straggler_factor < 1.0:
            raise ValueError(
                f"straggler_factor must be >= 1, got {self.straggler_factor}"
            )
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.timeout_rounds < 0:
            raise ValueError("timeout_rounds must be non-negative")

    @property
    def enabled(self) -> bool:
        """Whether this plan injects anything at all.

        A disabled plan is dropped at machine construction, so attaching it
        is *exactly* a no-op (byte-identity, not epsilon-identity).
        """
        return bool(
            (self.straggler_fraction > 0 and self.straggler_factor > 1)
            or self.drop_rate > 0
        )

    def spec(self) -> str:
        """Canonical spec string (non-default fields only, fixed order)."""
        parts = []
        for key, (field_name, conv) in _SPEC_KEYS.items():
            value = getattr(self, field_name)
            if value == _FIELD_DEFAULTS[field_name]:
                continue
            parts.append(f"{key}:{int(value)}" if conv is int else f"{key}:{value:g}")
        return ",".join(parts)


_FIELD_DEFAULTS: Dict[str, object] = {
    f.name: f.default for f in dataclasses.fields(FaultPlan)
}

#: Spec-string grammar: ``key:value`` pairs joined by commas, e.g.
#: ``"stragglers:0.1,droprate:0.01"``.  Keys map onto FaultPlan fields; the
#: dict order is the canonical order :meth:`FaultPlan.spec` emits.
_SPEC_KEYS: Dict[str, Tuple[str, type]] = {
    "seed": ("seed", int),
    "stragglers": ("straggler_fraction", float),
    "slow": ("straggler_factor", float),
    "droprate": ("drop_rate", float),
    "retries": ("max_retries", int),
    "timeout": ("timeout_rounds", float),
    "resend": ("resend_fraction", float),
}


def parse_fault_spec(spec: "str | FaultPlan | None") -> Optional[FaultPlan]:
    """Parse a fault spec string like ``"stragglers:0.1,droprate:0.01"``.

    Returns ``None`` for ``None`` / empty / whitespace-only specs, passes an
    existing :class:`FaultPlan` through, and raises :class:`ValueError` on
    unknown keys or malformed values.  See :data:`_SPEC_KEYS` for the
    grammar.
    """
    if spec is None or isinstance(spec, FaultPlan):
        return spec
    spec = spec.strip()
    if not spec:
        return None
    fields: Dict[str, object] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, raw = part.partition(":")
        key = key.strip().lower()
        if not sep or key not in _SPEC_KEYS:
            known = ", ".join(_SPEC_KEYS)
            raise ValueError(
                f"bad fault spec entry {part!r}; expected 'key:value' with "
                f"key one of: {known}"
            )
        field_name, conv = _SPEC_KEYS[key]
        try:
            fields[field_name] = conv(raw.strip())
        except ValueError:
            raise ValueError(
                f"bad fault spec value {raw!r} for key {key!r} "
                f"(expected {conv.__name__})"
            ) from None
    return FaultPlan(**fields)  # __post_init__ validates ranges


class FaultState:
    """Per-machine runtime state of an active :class:`FaultPlan`.

    Holds the salted fault RNG, the precomputed per-PE slowdown and the
    :class:`FaultCounters` tallies.  All methods are pure functions of
    ``(plan, arguments)`` — no mutable draw cursors — which is what makes
    fault injection independent of how the engines batch their charges.
    """

    def __init__(self, plan: FaultPlan, p: int):
        if not plan.enabled:
            raise ValueError("FaultState requires an enabled FaultPlan")
        self.plan = plan
        self.p = int(p)
        self.rng = CounterRNG(int(plan.seed) ^ _FAULT_SEED_SALT)
        self.counters = FaultCounters(self.p)
        self.straggler_pes = np.zeros(self.p, dtype=bool)
        if plan.straggler_fraction > 0 and plan.straggler_factor > 1:
            pes = np.arange(self.p, dtype=np.int64)
            self.straggler_pes = (
                self.rng.uniforms(FAULT_DOMAIN_STRAGGLER, pes, 0)
                < plan.straggler_fraction
            )
        self.slowdown = np.where(self.straggler_pes, plan.straggler_factor, 1.0)
        self._scaling = bool(self.straggler_pes.any())

    def reset(self) -> None:
        """Zero the tallies (the draws are stateless and unaffected)."""
        self.counters.reset()

    # ------------------------------------------------------------------
    # Charge scaling (advance / advance_many hook)
    # ------------------------------------------------------------------
    def scale(self, idx: np.ndarray, dts: np.ndarray) -> np.ndarray:
        """Faulted durations of the charges ``dts`` of PEs ``idx``.

        Applies the per-PE straggler slowdown; the extra time is tallied in
        ``counters.straggle_s``.
        """
        if not self._scaling:
            return dts
        out = dts * self.slowdown[idx]
        np.add.at(self.counters.straggle_s, idx, out - dts)
        return out

    def scale_scalar(self, pe: int, dt: float) -> float:
        """Scalar wrapper over :meth:`scale` (the ``advance`` hook).

        Routes through the same vectorised code on one-element arrays so the
        per-PE reference charges are bit-identical to the flat engine's
        batched lanes.
        """
        if not self._scaling:
            return dt
        out = self.scale(
            np.array([pe], dtype=np.int64),
            np.array([dt], dtype=np.float64),
        )
        return float(out[0])

    # ------------------------------------------------------------------
    # Exchange faults (execute_exchange / charge_exchange hook)
    # ------------------------------------------------------------------
    def exchange_extra(
        self,
        members: np.ndarray,
        op_index: np.ndarray,
        h_per_pe: np.ndarray,
        r_per_pe: np.ndarray,
        alpha: float,
        beta: "float | np.ndarray",
    ) -> np.ndarray:
        """Extra per-PE time of dropped rounds for one exchange.

        ``op_index`` is each member's ``exchange_ops`` counter *before* the
        exchange is recorded — the per-PE draw key, identical across engines
        because both issue the same per-PE exchange sequence.  Failures per
        PE are a truncated geometric draw (``floor(ln u / ln drop_rate)``
        capped at ``max_retries``): for a fixed uniform ``u`` the count is
        monotone non-decreasing in ``drop_rate``, so recovery cost is
        *exactly* monotone in the drop rate for a fixed seed.  Each failure
        costs ``timeout_rounds * alpha`` of idle wait plus a resend charged
        through the same ``alpha * r + beta * h`` exchange model.  PEs with
        nothing to send or receive are unaffected.
        """
        plan = self.plan
        if plan.drop_rate == 0:
            return np.zeros(h_per_pe.shape, dtype=np.float64)
        active = (h_per_pe > 0) | (r_per_pe > 0)
        u = self.rng.uniforms(FAULT_DOMAIN_DROP, members, op_index)
        with np.errstate(divide="ignore"):
            failures = np.floor(np.log(u) / math.log(plan.drop_rate))
        failures = np.minimum(failures, plan.max_retries)
        failures = np.where(active, failures, 0.0).astype(np.int64)
        resend_h = np.ceil(plan.resend_fraction * h_per_pe)
        resend_r = np.ceil(plan.resend_fraction * r_per_pe)
        timeout = plan.timeout_rounds * alpha
        per_retry = timeout + alpha * resend_r + beta * resend_h
        retry_cost = failures * per_retry
        counters = self.counters
        np.add.at(counters.dropped_rounds, members, failures)
        np.add.at(
            counters.resent_words, members,
            (failures * resend_h).astype(np.int64),
        )
        np.add.at(counters.timeout_wait_s, members, failures * timeout)
        np.add.at(counters.recovery_s, members, retry_cost)
        return retry_cost

    def summary(self) -> Dict[str, object]:
        """JSON-safe fault summary: the plan spec plus the counter tallies."""
        out: Dict[str, object] = {"spec": self.plan.spec()}
        out.update(self.counters.summary())
        return out
