"""1+1 APS switchover control for the supervised link.

This is the head/tail protection logic GR-253 puts behind the K1/K2
line-overhead bytes.  The selector reads one :class:`LaneState` per
lane per interval, so any monitor can drive it: the supervised link
feeds it the health engine's verdicts, and a SONET tail end
(``examples/protected_ring.py``) feeds it each receive framer's sync
state and OOF count with ``hold_off=1``, switching in the frame the
working line fails.

Three timers shape every decision:

* **hold-off** — a switch condition must persist ``hold_off``
  consecutive intervals before the selector moves, so a single errored
  interval (one burst) never causes a lane change;
* **switch spacing** — at most one switch per hold-off window, ever;
  even a forced (operator/ladder) switch respects this floor, which is
  the property the hypothesis suite pins down;
* **wait-to-restore** — after a revertive link has failed over, the
  working lane must stay healthy ``wait_to_restore`` consecutive
  intervals before traffic returns to it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import ConfigError
from repro.resilience.events import EventLog
from repro.resilience.health import LaneState

__all__ = ["ApsRequest", "SwitchRecord", "ApsController"]

WORKING = "working"
PROTECT = "protect"


class ApsRequest(enum.IntEnum):
    """K1 bits 1-4 request codes (GR-253 subset)."""

    NO_REQUEST = 0b0000
    WAIT_TO_RESTORE = 0b0110
    SIGNAL_DEGRADE = 0b1010
    SIGNAL_FAIL = 0b1100
    FORCED_SWITCH = 0b1110


@dataclass(frozen=True)
class SwitchRecord:
    """One completed lane switch."""

    interval: int
    from_lane: str
    to_lane: str
    request: ApsRequest
    reason: str

    def as_dict(self) -> Dict[str, object]:
        return {
            "interval": self.interval,
            "from_lane": self.from_lane,
            "to_lane": self.to_lane,
            "request": self.request.name,
            "reason": self.reason,
        }


class ApsController:
    """Selector state machine over a working and a protect lane."""

    def __init__(
        self,
        *,
        hold_off: int = 2,
        wait_to_restore: int = 6,
        revertive: bool = True,
        log: Optional[EventLog] = None,
    ) -> None:
        if hold_off < 1:
            raise ConfigError("hold_off must be >= 1 interval")
        if wait_to_restore < hold_off:
            raise ConfigError("wait_to_restore must be >= hold_off")
        self.hold_off = hold_off
        self.wait_to_restore = wait_to_restore
        self.revertive = revertive
        self.log = log if log is not None else EventLog()
        self.active = WORKING
        self.request = ApsRequest.NO_REQUEST
        self.switches: List[SwitchRecord] = []
        #: Interval the current switch condition was first seen.
        self._pending_since: Optional[int] = None
        self._last_switch: Optional[int] = None
        self._wtr_streak = 0

    # ------------------------------------------------------------------ views
    @property
    def standby(self) -> str:
        return PROTECT if self.active == WORKING else WORKING

    def k1_byte(self) -> int:
        """K1 as transmitted: request bits 1-4, channel number bits 5-8."""
        channel = 1 if self.active == PROTECT else 0
        return (int(self.request) << 4) | channel

    def k2_byte(self) -> int:
        """K2: bridged channel number + 1+1 architecture bit (GR-253)."""
        channel = 1 if self.active == PROTECT else 0
        return (channel << 4) | 0b100

    def _spacing_ok(self, interval: int) -> bool:
        """At most one switch per hold-off window (inclusive floor)."""
        return (
            self._last_switch is None
            or interval - self._last_switch > self.hold_off
        )

    # -------------------------------------------------------------- switching
    def _switch(self, interval: int, request: ApsRequest, reason: str) -> SwitchRecord:
        record = SwitchRecord(
            interval=interval,
            from_lane=self.active,
            to_lane=self.standby,
            request=request,
            reason=reason,
        )
        self.active = self.standby
        self.request = request
        self.switches.append(record)
        self._last_switch = interval
        self._pending_since = None
        self._wtr_streak = 0
        self.log.record(
            interval, "aps", record.to_lane, "switch",
            from_lane=record.from_lane, request=request.name,
            reason=reason, k1=self.k1_byte(),
        )
        return record

    def evaluate(
        self, interval: int, working: LaneState, protect: LaneState
    ) -> Optional[SwitchRecord]:
        """One interval's decision from the two lanes' health states."""
        states = {WORKING: working, PROTECT: protect}
        active_state = states[self.active]
        standby_state = states[self.standby]

        fail = active_state is LaneState.FAILED
        degrade = (
            active_state is LaneState.DEGRADED
            and standby_state is LaneState.OK
        )
        standby_usable = standby_state is not LaneState.FAILED

        if (fail or degrade) and standby_usable:
            request = (
                ApsRequest.SIGNAL_FAIL if fail else ApsRequest.SIGNAL_DEGRADE
            )
            if self._pending_since is None:
                self._pending_since = interval
                self.log.record(
                    interval, "aps", self.active, "hold-off-start",
                    request=request.name,
                )
            self.request = request
            held = interval - self._pending_since
            if held >= self.hold_off - 1 and self._spacing_ok(interval):
                return self._switch(
                    interval, request,
                    f"{self.active} {active_state.value}, held {held + 1} "
                    f"interval(s)",
                )
            return None

        self._pending_since = None
        if (
            self.revertive
            and self.active == PROTECT
            and working is LaneState.OK
        ):
            self._wtr_streak += 1
            self.request = ApsRequest.WAIT_TO_RESTORE
            if (
                self._wtr_streak >= self.wait_to_restore
                and self._spacing_ok(interval)
            ):
                record = self._switch(
                    interval, ApsRequest.WAIT_TO_RESTORE,
                    f"working healthy {self._wtr_streak} interval(s)",
                )
                self.request = ApsRequest.NO_REQUEST
                return record
            return None

        self._wtr_streak = 0
        self.request = ApsRequest.NO_REQUEST
        return None

    def force_switch(
        self, interval: int, reason: str = "operator"
    ) -> Optional[SwitchRecord]:
        """Commanded switch (recovery-ladder rung).

        Still bounded by the one-switch-per-hold-off-window floor:
        returns ``None`` (and logs the refusal) when a switch happened
        too recently — a commanded flap is still a flap.
        """
        if not self._spacing_ok(interval):
            self.log.record(
                interval, "aps", self.active, "force-refused",
                reason="inside hold-off spacing",
                last_switch=self._last_switch,
            )
            return None
        return self._switch(interval, ApsRequest.FORCED_SWITCH, reason)
