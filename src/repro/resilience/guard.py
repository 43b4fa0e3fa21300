"""Graceful fastpath degradation with differential spot-checks.

The supervisor moves traffic through the PR-4
:class:`~repro.fastpath.engine.FastpathEngine` — that is what makes a
10k-frame soak affordable — but the fast engine is only trusted while
it provably matches the golden cycle model.  This guard enforces that
trust at runtime:

* in **fast** mode, every ``check_every``-th encode (and any encode
  whose output left the engine tampered — the chaos schedule's
  ``sabotage`` event models a fastpath memory fault) is differentially
  spot-checked against the cycle engine via the PR-4
  :class:`~repro.fastpath.differential.DifferentialHarness`, plus a
  live comparison of the bytes actually shipped against the engine's
  re-encode;
* any mismatch **quarantines** the fastpath: a diagnostic event is
  logged, and TX/RX fall back to the cycle-accurate transmitter and a
  persistent cycle receiver (running under a timing
  :class:`~repro.sta.conformance.ContractMonitor`, whose findings feed
  the health engine) — traffic keeps flowing, slower but golden;
* after ``reinstate_after`` consecutive quarantined intervals in which
  the fast engine's re-encode agrees byte-for-byte with the shipped
  cycle line, the fastpath is reinstated.

Both receive paths are *streaming*: the fast side is the receive codec
(:class:`~repro.hdlc.delineation.Delineator`, under the engine's
cycle-mirroring policy), which carries the open frame between
intervals — at most ``max_frame_octets`` of it — and the cycle
receiver is a long-lived pipeline fed through
:meth:`~repro.rtl.pipeline.StreamSource.extend` — so frames split
across interval boundaries by storms or cuts decode exactly as a
continuous wire would.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import P5Config
from repro.core.rx import P5Receiver
from repro.fastpath.differential import DifferentialHarness
from repro.fastpath.engine import FastpathEngine
from repro.hdlc.delineation import Delineator, DelineatorStats
from repro.resilience.events import EventLog
from repro.rtl.pipeline import StreamSource, beats_from_bytes
from repro.rtl.simulator import Simulator

__all__ = ["GuardMode", "RxDelta", "QuarantineRecord", "FastpathGuard"]


class GuardMode(enum.Enum):
    FAST = "fast"
    QUARANTINED = "quarantined"


@dataclass(frozen=True)
class QuarantineRecord:
    """Why the fastpath was benched."""

    interval: int
    mismatches: Tuple[str, ...]

    def as_dict(self) -> Dict[str, object]:
        return {"interval": self.interval, "mismatches": list(self.mismatches)}


@dataclass
class RxDelta:
    """One interval's receive outcome, mode-independent."""

    frames: List[Tuple[bytes, bool]] = field(default_factory=list)
    frames_ok: int = 0
    fcs_errors: int = 0
    #: Aborts + oversize cuts + runts.
    framing_faults: int = 0
    hunt_octets: int = 0
    contract_violations: int = 0
    mode: str = GuardMode.FAST.value


class _StreamingCycleRx:
    """Persistent cycle-accurate receiver under a contract monitor."""

    def __init__(self, config: P5Config, name: str, *, timeout: int) -> None:
        self.rx = P5Receiver(config, name=name)
        self.source = StreamSource(f"{name}.wire", self.rx.phy_in, [])
        self.sim = Simulator([self.source] + self.rx.modules, self.rx.channels)
        # Non-strict: findings are folded into health scores instead of
        # aborting the soak mid-flight.
        self.monitor = self.sim.enable_conformance(strict=False)
        self.timeout = timeout
        self._config = config
        self._frame_cursor = 0
        self._counts = self._snapshot()

    def _snapshot(self) -> Dict[str, int]:
        rx = self.rx
        return {
            "frames_ok": rx.crc.frames_ok,
            "fcs_errors": rx.crc.fcs_errors,
            "framing_faults": (
                rx.delineator.aborts
                + rx.delineator.oversize_drops
                + rx.crc.runt_frames
            ),
            "hunt_octets": rx.delineator.octets_discarded_hunting,
            "violations": len(self.monitor.findings()),
        }

    def feed(self, data: bytes) -> RxDelta:
        if data:
            self.source.extend(
                beats_from_bytes(data, self._config.width_bytes, frame_marks=False)
            )
            self.sim.run_until(lambda: self.source.done, timeout=self.timeout)
            self.sim.drain(idle_cycles=16, timeout=self.timeout)
        before = self._counts
        after = self._snapshot()
        self._counts = after
        frames = self.rx.frames[self._frame_cursor:]
        self._frame_cursor = len(self.rx.frames)
        return RxDelta(
            frames=list(frames),
            frames_ok=after["frames_ok"] - before["frames_ok"],
            fcs_errors=after["fcs_errors"] - before["fcs_errors"],
            framing_faults=after["framing_faults"] - before["framing_faults"],
            hunt_octets=after["hunt_octets"] - before["hunt_octets"],
            contract_violations=after["violations"] - before["violations"],
            mode=GuardMode.QUARANTINED.value,
        )


class FastpathGuard:
    """Mode-switching TX/RX codec for one lane."""

    def __init__(
        self,
        config: P5Config,
        *,
        name: str,
        check_every: int = 8,
        reinstate_after: int = 4,
        log: Optional[EventLog] = None,
        timeout: int = 2_000_000,
    ) -> None:
        if check_every < 1:
            raise ValueError("check_every must be >= 1")
        if reinstate_after < 1:
            raise ValueError("reinstate_after must be >= 1")
        self.config = config
        self.name = name
        self.check_every = check_every
        self.reinstate_after = reinstate_after
        self.log = log if log is not None else EventLog()
        self.timeout = timeout
        self.engine = FastpathEngine(config)
        self.mode = GuardMode.FAST
        self.spot_checks = 0
        self.quarantines: List[QuarantineRecord] = []
        self.reinstatements = 0
        self._encodes = 0
        self._clean_streak = 0
        self._sabotage_armed = False
        self._harness = DifferentialHarness(config, timeout=timeout)
        self._fast_rx = Delineator(self.engine.receive_policy)
        self._cycle_rx: Optional[_StreamingCycleRx] = None
        self._pending_carry = b""

    # ------------------------------------------------------------------ chaos
    def arm_sabotage(self) -> None:
        """Corrupt the next fast encode's output (models a fastpath
        memory fault the spot-check must catch)."""
        self._sabotage_armed = True

    def _sabotage(self, line: bytes) -> bytes:
        """Flip one bit of a body byte, keeping flag/escape census
        intact so the damage is a pure payload corruption."""
        special = {self.config.flag_octet, self.config.esc_octet}
        out = bytearray(line)
        for i, value in enumerate(out):
            if value not in special and (value ^ 0x01) not in special:
                out[i] = value ^ 0x01
                return bytes(out)
        return bytes(out)  # pathological all-flag line: ship unchanged

    # --------------------------------------------------------------------- TX
    def encode(self, contents: Sequence[bytes], interval: int) -> bytes:
        """Encode one interval's batch; returns the bytes to ship."""
        if self.mode is GuardMode.QUARANTINED:
            return self._encode_quarantined(contents, interval)
        self._encodes += 1
        shipped = self.engine.encode_frames(list(contents)).line
        expected = shipped
        if self._sabotage_armed:
            self._sabotage_armed = False
            shipped = self._sabotage(shipped)
        due = self._encodes % self.check_every == 0
        if due or shipped != expected:
            self._spot_check(contents, shipped, expected, interval)
        return shipped

    def _spot_check(
        self,
        contents: Sequence[bytes],
        shipped: bytes,
        expected: bytes,
        interval: int,
    ) -> None:
        self.spot_checks += 1
        mismatches: List[str] = []
        if shipped != expected:
            diff_at = next(
                (
                    i
                    for i, (a, b) in enumerate(zip(shipped, expected))
                    if a != b
                ),
                min(len(shipped), len(expected)),
            )
            mismatches.append(
                f"shipped line diverges from fastpath re-encode at octet "
                f"{diff_at}"
            )
        report = self._harness.run(list(contents))
        mismatches.extend(report.mismatches)
        if mismatches:
            self._quarantine(interval, mismatches)
        else:
            self.log.record(
                interval, "fastpath", self.name, "spot-check-ok",
                frames=len(contents),
            )

    def _quarantine(self, interval: int, mismatches: List[str]) -> None:
        record = QuarantineRecord(
            interval=interval, mismatches=tuple(mismatches)
        )
        self.quarantines.append(record)
        self.mode = GuardMode.QUARANTINED
        self._clean_streak = 0
        # Hand the fast decoder's open frame to the cycle receiver so no
        # in-flight frame is lost across the mode switch.
        self._pending_carry = self._fast_rx.open_frame()
        self._fast_rx.flush()
        self.log.record(
            interval, "fastpath", self.name, "quarantine",
            diagnostic="; ".join(mismatches),
        )

    def _encode_quarantined(
        self, contents: Sequence[bytes], interval: int
    ) -> bytes:
        _system, line = self._harness.run_cycle_tx(list(contents))
        # Re-verification: once the fast engine agrees with the golden
        # line for reinstate_after consecutive intervals, trust it again.
        fast = self.engine.encode_frames(list(contents)).line
        if fast == line:
            self._clean_streak += 1
            if self._clean_streak >= self.reinstate_after:
                self.mode = GuardMode.FAST
                self.reinstatements += 1
                self._clean_streak = 0
                self._fast_rx.flush()
                self.log.record(
                    interval, "fastpath", self.name, "reinstate",
                    after_clean_intervals=self.reinstate_after,
                )
        else:
            self._clean_streak = 0
            self.log.record(
                interval, "fastpath", self.name, "still-diverging",
            )
        return line

    # --------------------------------------------------------------------- RX
    def decode(self, data: bytes, interval: int) -> RxDelta:
        """Decode one interval's arriving bytes in the current mode."""
        if self.mode is GuardMode.QUARANTINED:
            if self._cycle_rx is None:
                self._cycle_rx = _StreamingCycleRx(
                    self.config, f"{self.name}.qrx", timeout=self.timeout
                )
            carry, self._pending_carry = self._pending_carry, b""
            return self._cycle_rx.feed(carry + data)
        rx = self._fast_rx
        rx.stats = stats = DelineatorStats()
        frames = rx.push_bytes(data)
        return RxDelta(
            frames=frames,
            frames_ok=stats.frames_ok,
            fcs_errors=stats.fcs_errors,
            framing_faults=stats.aborts + stats.oversize + stats.runts,
            hunt_octets=stats.octets_discarded_hunting,
            mode=GuardMode.FAST.value,
        )

    def resync(self) -> None:
        """Recovery-ladder rung: drop delineation state and re-hunt."""
        self._fast_rx.flush()
        self._pending_carry = b""

    def describe(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "mode": self.mode.value,
            "spot_checks": self.spot_checks,
            "quarantines": [q.as_dict() for q in self.quarantines],
            "reinstatements": self.reinstatements,
        }
