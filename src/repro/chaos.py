"""Deterministic chaos injection for the *real* execution infrastructure.

:mod:`repro.sim.faults` injects *simulated* faults into the modelled
clocks — stragglers, dropped exchange rounds — and is part of the paper
reproduction's physics.  This module is the other half of the robustness
story: it attacks the **host-level** execution layer (the campaign cell
cache) so the recovery machinery can be proven to work.  Chaos never
touches modelled time, RNG streams or sorted outputs; a chaos run must
produce results byte-identical to a healthy run — the injection only
exercises the detect-and-recompute path.

Enable it with the ``REPRO_CHAOS`` environment variable (OFF by default),
a compact ``key:value`` spec mirroring the fault-plan grammar::

    REPRO_CHAOS="seed:7,corrupt:0.4,trunc:0.2"

* ``seed`` — base seed of the chaos draws (default 0).
* ``corrupt`` — probability that a just-written campaign cell cache file
  has a run of bytes flipped in place.
* ``trunc`` — probability that a just-written cache file is truncated to
  half its length instead.

All draws are **deterministic**: SHA-256 of the seed and the cache *file
name* (the content hash of the cell), never :func:`random.random`, so a
chaos run is reproducible bit for bit and which cells get corrupted does
not depend on the completion order of a sharded campaign.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Dict, Optional, Union


@dataclass(frozen=True)
class ChaosPlan:
    """Parsed ``REPRO_CHAOS`` spec; all rates default to zero (no chaos)."""

    seed: int = 0
    corrupt_rate: float = 0.0
    truncate_rate: float = 0.0

    @property
    def enabled(self) -> bool:
        return self.corrupt_rate > 0 or self.truncate_rate > 0


_KEYS = {
    "seed": "seed",
    "corrupt": "corrupt_rate",
    "trunc": "truncate_rate",
}


def parse_chaos_spec(
    spec: Union[None, str, ChaosPlan]
) -> Optional[ChaosPlan]:
    """Parse a chaos spec string; ``None``/empty → ``None`` (chaos off).

    Raises :class:`ValueError` with the offending key/value for anything
    that is not part of the grammar, so a typo in ``REPRO_CHAOS`` fails at
    startup instead of silently running a healthy campaign.
    """
    if spec is None or isinstance(spec, ChaosPlan):
        return spec
    text = str(spec).strip()
    if not text:
        return None
    fields: Dict[str, object] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition(":")
        key = key.strip().lower()
        if not sep or key not in _KEYS:
            raise ValueError(
                f"bad chaos spec {spec!r}: unknown key {key!r} "
                f"(known: {', '.join(sorted(_KEYS))})"
            )
        try:
            parsed = int(value) if key == "seed" else float(value)
        except ValueError:
            raise ValueError(
                f"bad chaos spec {spec!r}: {key} needs a number, got {value!r}"
            ) from None
        if key != "seed" and not 0.0 <= parsed <= 1.0:
            raise ValueError(
                f"bad chaos spec {spec!r}: {key} must be a rate in [0, 1]"
            )
        fields[_KEYS[key]] = parsed
    plan = ChaosPlan(**fields)  # type: ignore[arg-type]
    if plan.corrupt_rate + plan.truncate_rate > 1.0:
        raise ValueError(
            f"bad chaos spec {spec!r}: corrupt + trunc rates exceed 1"
        )
    return plan


class ChaosState:
    """Runtime chaos draws + counters for one process.

    The counters are reporting only (they surface next to the campaign
    stats so a chaos run's log shows what was injected); the draws are
    pure functions of the plan seed and the file name.
    """

    def __init__(self, plan: ChaosPlan):
        self.plan = plan
        self.counters: Dict[str, int] = {
            "cache_corruptions": 0,
            "cache_truncations": 0,
        }

    def maybe_corrupt_cache(self, path: "os.PathLike | str") -> Optional[str]:
        """Corrupt or truncate the file at ``path`` per the plan's rates.

        Returns ``"corrupt"``/``"truncate"`` when an injection happened,
        ``None`` otherwise.  The draw is keyed by the file *name* so the
        same cells are attacked regardless of write order.
        """
        name = os.path.basename(os.fspath(path))
        digest = hashlib.sha256(f"{self.plan.seed}|cache|{name}".encode()).digest()
        u = int.from_bytes(digest[:8], "big") / 2**64
        if u < self.plan.truncate_rate:
            try:
                size = os.path.getsize(path)
                os.truncate(path, size // 2)
            except OSError:  # pragma: no cover - racing cleanup
                return None
            self.counters["cache_truncations"] += 1
            return "truncate"
        if u < self.plan.truncate_rate + self.plan.corrupt_rate:
            try:
                with open(path, "r+b") as f:
                    f.seek(0, os.SEEK_END)
                    size = f.tell()
                    if size == 0:
                        return None
                    mid = size // 2
                    f.seek(mid)
                    chunk = f.read(min(16, size - mid)) or b"\0"
                    f.seek(mid)
                    f.write(bytes(b ^ 0xFF for b in chunk))
            except OSError:  # pragma: no cover - racing cleanup
                return None
            self.counters["cache_corruptions"] += 1
            return "corrupt"
        return None


# ----------------------------------------------------------------------
# Process singleton (resolved from the environment)
# ----------------------------------------------------------------------
_STATE: Optional[ChaosState] = None
_SPEC: Optional[str] = None


def get_chaos() -> Optional[ChaosState]:
    """The process chaos state per ``REPRO_CHAOS``; ``None`` when off.

    Re-reads the environment on every call (it is two dict lookups), so
    tests can monkeypatch ``REPRO_CHAOS`` without import-order games; the
    state object itself is kept while the spec string is unchanged so the
    injection counters accumulate across calls.
    """
    global _STATE, _SPEC
    spec = os.environ.get("REPRO_CHAOS", "").strip()
    if spec != _SPEC:
        plan = parse_chaos_spec(spec)
        _STATE = ChaosState(plan) if plan is not None and plan.enabled else None
        _SPEC = spec
    return _STATE
