"""repro.resilience — the supervised redundant-link runtime.

Everything before this package *measures* how the P⁵ datapath fails
(:mod:`repro.faults` campaigns) or how fast it goes
(:mod:`repro.fastpath`); this package makes a link *survive*.  A
:class:`LinkSupervisor` runs two full P⁵ lanes — working and protect —
as one long-lived 1+1 protected session:

* per-lane health scoring with SD/SF hysteresis
  (:mod:`repro.resilience.health`);
* 1+1 APS switchover with hold-off and wait-to-restore timers,
  signalling GR-253 K1/K2 request codes (:mod:`repro.resilience.aps`,
  the one APS selector; a SONET tail end drives it from its receive
  framers, see ``examples/protected_ring.py``);
* a bounded-retry recovery ladder — resync, flush, LCP renegotiate,
  lane switch, quarantine (:mod:`repro.resilience.ladder`);
* graceful fastpath degradation under differential spot-checks
  (:mod:`repro.resilience.guard`);
* deterministic seeded chaos schedules reusing the fault-campaign
  injector primitives (:mod:`repro.resilience.chaos`).

``repro resilience --soak`` drives all of it from the CLI.
"""

from repro.resilience.aps import (
    PROTECT,
    WORKING,
    ApsController,
    ApsRequest,
    SwitchRecord,
)
from repro.resilience.chaos import ChaosEvent, chaos_schedule
from repro.resilience.events import EventLog, ResilienceEvent
from repro.resilience.guard import FastpathGuard, GuardMode, RxDelta
from repro.resilience.health import HealthEngine, HealthSample, LaneState
from repro.resilience.ladder import LadderAction, RecoveryLadder, RecoveryStep
from repro.resilience.supervisor import (
    LinkSupervisor,
    SoakResult,
    SoakViolation,
    SupervisorConfig,
)
from repro.resilience.wire import LaneWire

__all__ = [
    "ApsController",
    "ApsRequest",
    "ChaosEvent",
    "EventLog",
    "FastpathGuard",
    "GuardMode",
    "HealthEngine",
    "HealthSample",
    "LadderAction",
    "LaneState",
    "LaneWire",
    "LinkSupervisor",
    "PROTECT",
    "RecoveryLadder",
    "RecoveryStep",
    "ResilienceEvent",
    "RxDelta",
    "SoakResult",
    "SoakViolation",
    "SupervisorConfig",
    "SwitchRecord",
    "WORKING",
    "chaos_schedule",
]
