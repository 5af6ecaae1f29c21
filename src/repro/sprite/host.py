"""Workstations and their owners.

A host is *idle* — and therefore eligible to accept migrated processes — only
when its owner has not touched mouse or keyboard for a while (Sprite's rule,
thesis §4.3.3).  Owner behaviour is a deterministic periodic schedule so every
simulation is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class OwnerSchedule:
    """Deterministic periodic owner-activity pattern.

    The owner is at the machine during ``[k*period + offset, k*period +
    offset + busy)`` for every integer ``k >= 0``.  ``busy == 0`` means the
    owner never returns (a compute server); ``busy == period`` means the
    machine is never idle.
    """

    period: float = 3600.0
    busy: float = 0.0
    offset: float = 0.0

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError("period must be positive")
        if not 0 <= self.busy <= self.period:
            raise ValueError("busy span must lie within the period")

    def varies(self) -> bool:
        """Whether the owner ever both arrives and leaves."""
        return 0 < self.busy < self.period

    # The owner arrives at ``arrival(k)`` and leaves at ``arrival(k) +
    # busy``.  State and transitions both come from the cycle index ``k``
    # and these same two float expressions, so a transition time computed
    # by ``next_transition`` lies in the state it announces:
    # ``is_busy(u) != is_busy(t)`` and ``next_transition(u) > u`` for
    # ``u = next_transition(t)``.  Reducing ``t`` modulo the period would
    # not: the remainder of ``u`` often rounds back into the old state.

    def _arrival(self, k: int) -> float:
        return self.offset + k * self.period

    def _cycle(self, t: float) -> int:
        """The ``k >= 0`` with ``arrival(k) <= t < arrival(k + 1)``, for
        ``t >= offset``."""
        k = int((t - self.offset) // self.period)
        while self._arrival(k + 1) <= t:
            k += 1
        while k > 0 and self._arrival(k) > t:
            k -= 1
        return k

    def is_busy(self, t: float) -> bool:
        if self.busy == 0:
            return False
        if self.busy == self.period:
            return True
        if t < self.offset:
            return False
        return t < self._arrival(self._cycle(t)) + self.busy

    def next_transition(self, t: float) -> float | None:
        """The next time the owner arrives or leaves (None if never)."""
        if not self.varies():
            return None
        if t < self.offset:
            return self.offset
        k = self._cycle(t)
        leave = self._arrival(k) + self.busy
        if t < leave:
            return leave                          # owner leaves
        return self._arrival(k + 1)               # owner returns


@dataclass
class Workstation:
    """One node of the network."""

    name: str
    speed: float = 1.0
    schedule: OwnerSchedule = field(default_factory=OwnerSchedule)
    #: Process ids currently resident (foreign + local).
    resident: set[int] = field(default_factory=set)

    def is_owner_busy(self, t: float) -> bool:
        return self.schedule.is_busy(t)

    def load(self) -> int:
        return len(self.resident)

    def rate(self) -> float:
        """Per-process compute rate under timesharing."""
        return self.speed / max(1, len(self.resident))
