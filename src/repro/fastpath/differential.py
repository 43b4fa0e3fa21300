"""Differential equivalence harness: fastpath vs. cycle-accurate P5.

The fast engine is only trustworthy while it is *provably the same
machine* as the golden cycle model.  This harness runs one workload
through both and compares every observable the two share:

* **line stream** — the TX wire bytes must be identical octet for
  octet (captured from the cycle model's PHY hop);
* **frames** — contents and FCS verdicts landed in receive memory;
* **counters** — the OAM-visible statistics both sides keep: frames
  wrapped, escapes inserted/deleted, frames ok, FCS errors, runts,
  aborts, oversize cuts, hunt discards and empty inter-frame bodies.

:meth:`DifferentialHarness.run` covers the clean loopback (host
contents in, frames out).  :meth:`DifferentialHarness.run_rx` feeds an
*arbitrary* wire stream — crafted aborts, runts, oversize bodies —
into both receivers.  Oversize cuts are mirrored exactly (the cycle
delineator's force-closed cut prefix is deterministic in the octet
domain, so the engine reproduces it).  One modelled divergence remains
and is excluded: whether an *aborted* frame's already-shipped prefix
is force-closed as a bad-FCS frame or silently dropped depends on the
cycle receiver's word alignment, which a frame-level engine cannot
see.  Good frames and the error counters still agree, and that is
what ``run_rx`` asserts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.config import P5Config
from repro.core.p5 import P5System, PhyWire
from repro.fastpath.engine import FastpathEngine
from repro.rtl.pipeline import StreamSource, beats_from_bytes
from repro.rtl.simulator import Simulator

__all__ = ["DifferentialHarness", "DifferentialReport"]


@dataclass
class DifferentialReport:
    """Outcome of one differential run."""

    frames: int
    line_octets: int
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def assert_ok(self) -> None:
        if self.mismatches:
            raise AssertionError(
                "fastpath/cycle divergence: " + "; ".join(self.mismatches)
            )


class DifferentialHarness:
    """Runs identical workloads through both engines and compares."""

    def __init__(
        self,
        config: Optional[P5Config] = None,
        *,
        timeout: int = 5_000_000,
    ) -> None:
        self.config = config or P5Config()
        self.timeout = timeout
        self.engine = FastpathEngine(self.config)

    # ------------------------------------------------------------ cycle side
    def run_cycle_tx(self, contents: Sequence[bytes]) -> Tuple[P5System, bytes]:
        """One batch through a P5 looped to itself; returns the system
        and the wire bytes its line-capturing PhyWire saw."""
        system = P5System(self.config, name="diff")
        captured = bytearray()

        def tap(beat):
            captured.extend(beat.payload())
            return beat

        wire = PhyWire(
            "diff.wire", system.tx.phy_out, system.rx.phy_in, corrupt=tap
        )
        sim = Simulator(
            system.tx.modules + [wire] + system.rx.modules,
            system.channels,
        )
        for content in contents:
            system.submit(content)
        sim.run_until(
            lambda: len(system.received()) >= len(contents) and system.idle(),
            timeout=self.timeout,
        )
        sim.drain(timeout=self.timeout)
        return system, bytes(captured)

    def _run_cycle_rx(self, line: bytes):
        """Feed raw wire bytes into a standalone cycle receiver."""
        from repro.core.rx import P5Receiver

        rx = P5Receiver(self.config, name="diffrx")
        beats = beats_from_bytes(line, self.config.width_bytes, frame_marks=False)
        source = StreamSource("diffrx.wire", rx.phy_in, beats)
        sim = Simulator([source] + rx.modules, rx.channels)
        sim.run_until(lambda: source.done, timeout=self.timeout)
        sim.drain(idle_cycles=16, timeout=self.timeout)
        return rx

    # ------------------------------------------------------------- the runs
    def run(self, contents: Sequence[bytes]) -> DifferentialReport:
        """Full clean-loopback differential: TX + RX, all observables."""
        tx_fast, rx_fast = self.engine.loopback(contents)
        system, line_cycle = self.run_cycle_tx(contents)

        report = DifferentialReport(
            frames=len(contents), line_octets=len(tx_fast.line)
        )
        note = report.mismatches.append
        if line_cycle != tx_fast.line:
            note(
                f"line streams differ: cycle {len(line_cycle)} octets vs "
                f"fastpath {len(tx_fast.line)}"
                + (
                    ""
                    if len(line_cycle) != len(tx_fast.line)
                    else " (same length, different bytes)"
                )
            )
        if system.rx.frames != rx_fast.frames:
            note(
                f"received frames differ: cycle {len(system.rx.frames)} vs "
                f"fastpath {len(rx_fast.frames)}"
            )
        oam = system.oam
        from repro.core.oam import (
            ADDR_ESC_DELETED,
            ADDR_ESC_INSERTED,
            ADDR_RX_ABORTS,
            ADDR_RX_FCS_ERRORS,
            ADDR_RX_FRAMES_OK,
            ADDR_RX_HUNT_DISCARDS,
            ADDR_RX_OVERSIZE,
            ADDR_RX_RUNTS,
            ADDR_TX_FRAMES,
        )

        pairs = [
            ("TX_FRAMES", oam.read(ADDR_TX_FRAMES), tx_fast.frames),
            ("ESC_INSERTED", oam.read(ADDR_ESC_INSERTED), tx_fast.octets_escaped),
            ("RX_FRAMES_OK", oam.read(ADDR_RX_FRAMES_OK), rx_fast.frames_ok),
            ("RX_FCS_ERRORS", oam.read(ADDR_RX_FCS_ERRORS), rx_fast.fcs_errors),
            ("RX_RUNTS", oam.read(ADDR_RX_RUNTS), rx_fast.runt_frames),
            ("RX_ABORTS", oam.read(ADDR_RX_ABORTS), rx_fast.aborts),
            ("RX_OVERSIZE", oam.read(ADDR_RX_OVERSIZE), rx_fast.oversize_drops),
            (
                "RX_HUNT_DISCARDS",
                oam.read(ADDR_RX_HUNT_DISCARDS),
                rx_fast.octets_discarded_hunting,
            ),
            ("ESC_DELETED", oam.read(ADDR_ESC_DELETED), rx_fast.octets_deleted),
        ]
        for name, cycle_value, fast_value in pairs:
            if cycle_value != fast_value:
                note(f"counter {name}: cycle {cycle_value} vs fastpath {fast_value}")
        if system.rx.delineator.empty_bodies != rx_fast.empty_bodies:
            note(
                f"counter EMPTY_BODIES: cycle "
                f"{system.rx.delineator.empty_bodies} vs fastpath "
                f"{rx_fast.empty_bodies}"
            )
        return report

    def run_rx(self, line: bytes) -> DifferentialReport:
        """RX-only differential over an arbitrary (possibly damaged) line.

        Compares good-frame contents and the delineation error
        counters; bad-FCS frame *lists* are excluded because the cycle
        receiver may force-close an aborted frame's already-shipped
        prefix that the frame-level engine drops whole (see the module
        docstring).
        """
        rx_cycle = self._run_cycle_rx(line)
        rx_fast = self.engine.decode_stream(line)

        report = DifferentialReport(frames=len(rx_fast.frames), line_octets=len(line))
        note = report.mismatches.append
        if rx_cycle.good_frames() != rx_fast.good_frames():
            note(
                f"good frames differ: cycle {len(rx_cycle.good_frames())} vs "
                f"fastpath {len(rx_fast.good_frames())}"
            )
        pairs: List[Tuple[str, int, int]] = [
            ("RX_FRAMES_OK", rx_cycle.crc.frames_ok, rx_fast.frames_ok),
            ("RX_ABORTS", rx_cycle.delineator.aborts, rx_fast.aborts),
            (
                "RX_OVERSIZE",
                rx_cycle.delineator.oversize_drops,
                rx_fast.oversize_drops,
            ),
            (
                "RX_HUNT_DISCARDS",
                rx_cycle.delineator.octets_discarded_hunting,
                rx_fast.octets_discarded_hunting,
            ),
            (
                "EMPTY_BODIES",
                rx_cycle.delineator.empty_bodies,
                rx_fast.empty_bodies,
            ),
        ]
        for name, cycle_value, fast_value in pairs:
            if cycle_value != fast_value:
                note(f"counter {name}: cycle {cycle_value} vs fastpath {fast_value}")
        return report
