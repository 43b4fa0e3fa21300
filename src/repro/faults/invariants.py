"""The recovery contract: what must still be true after a fault.

Every campaign trial injects exactly one fault into an otherwise
clean loopback exchange and then checks:

``no-stall``
    The exchange completed; the simulator watchdog never declared a
    wedged pipeline.  (A fault may *damage* frames; it must never
    *deadlock* the datapath.)
``recovery``
    The receiver re-hunted to flag sync: the last two submitted frames
    — which the campaign guarantees were transmitted entirely after
    the fault — arrived byte-identical and FCS-good.
``damage-bound``
    At most ``max_damaged`` submitted frames were lost or damaged by
    the single fault (a beat-level fault can straddle one frame
    boundary, hence the default bound of 2).
``zero-damage``
    Backpressure storms and register upsets are *non-destructive*
    layers: they must damage nothing at all.
``goodness``
    Every FCS-good frame is byte-identical to some submitted frame, in
    order.  Injected bursts are capped at CRC-32's burst-detection
    length, so corruption sneaking through the FCS is a checker bug,
    not bad luck.
``oam-reconcile``
    The OAM registers agree exactly with the datapath ground truth:
    register reads match module counters (so upset writes bounced off
    the read-only map), the per-stage frame counts obey the pipeline's
    conservation law, and damaged frames left a trace in some error
    counter.
``line-stats``
    The injector's :class:`~repro.phy.line.LineStats` agree with its
    event log — flips happened exactly where and how the campaign
    asked, and non-line layers flipped nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.p5 import P5System
from repro.faults.injectors import BeatFaultInjector

__all__ = ["Violation", "match_frames", "check_trial"]


@dataclass(frozen=True)
class Violation:
    """One broken invariant in one trial."""

    trial: int
    layer: str
    kind: str
    invariant: str
    message: str

    def render(self) -> str:
        return (
            f"trial {self.trial} [{self.layer}/{self.kind}] "
            f"{self.invariant}: {self.message}"
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "trial": self.trial,
            "layer": self.layer,
            "kind": self.kind,
            "invariant": self.invariant,
            "message": self.message,
        }


def match_frames(
    submitted: Sequence[bytes], good: Sequence[bytes]
) -> Tuple[List[bool], List[bytes]]:
    """Greedy in-order matching of received-good against submitted.

    Returns ``(matched, spurious)``: ``matched[i]`` says submitted
    frame ``i`` arrived intact; ``spurious`` lists good frames that
    match no remaining submitted frame (which the goodness invariant
    forbids).  Greedy first-fit is exact here because the datapath
    preserves order — a good frame can only be a submitted frame at or
    after the previous match.
    """
    matched = [False] * len(submitted)
    spurious: List[bytes] = []
    cursor = 0
    for frame in good:
        i = cursor
        while i < len(submitted) and submitted[i] != frame:
            i += 1
        if i < len(submitted):
            matched[i] = True
            cursor = i + 1
        else:
            spurious.append(frame)
    return matched, spurious


def _oam_register_pairs(system: P5System) -> List[Tuple[str, int]]:
    """(register name, ground-truth counter) for every RO counter."""
    return [
        ("TX_FRAMES", system.tx.flags.frames_wrapped),
        ("RX_FRAMES_OK", system.rx.crc.frames_ok),
        ("RX_FCS_ERRORS", system.rx.crc.fcs_errors),
        ("RX_RUNTS", system.rx.crc.runt_frames),
        ("RX_HUNT_DISCARDS", system.rx.delineator.octets_discarded_hunting),
        ("ESC_INSERTED", system.tx.escape.octets_escaped),
        ("ESC_DELETED", system.rx.escape.octets_deleted),
        ("DANGLING_ESCAPES", system.rx.escape.dangling_escape_errors),
        ("RX_ABORTS", system.rx.delineator.aborts),
        ("RX_OVERSIZE", system.rx.delineator.oversize_drops),
        ("RESYNC_DROPS_RX", system.rx.escape.resync_overflow_drops),
    ]


def check_trial(
    *,
    trial: int,
    layer: str,
    kind: str,
    system: P5System,
    injector: BeatFaultInjector,
    submitted: Sequence[bytes],
    max_damaged: int,
    stalled: bool,
    stall_message: str = "",
) -> List[Violation]:
    """Evaluate the full recovery contract for one finished trial."""

    def violation(invariant: str, message: str) -> Violation:
        return Violation(trial=trial, layer=layer, kind=kind,
                         invariant=invariant, message=message)

    if stalled:
        # Nothing downstream of a deadlock is meaningful.
        return [violation("no-stall", stall_message or "pipeline stalled")]

    out: List[Violation] = []
    good = system.rx.sink.good_frames()
    matched, spurious = match_frames(submitted, good)
    damaged = matched.count(False)

    for frame in spurious:
        out.append(violation(
            "goodness",
            f"FCS-good frame of {len(frame)} octets matches no submitted frame",
        ))
    if damaged > max_damaged:
        out.append(violation(
            "damage-bound",
            f"{damaged} submitted frames damaged; bound is {max_damaged}",
        ))
    if layer in ("backpressure", "oam") and damaged:
        out.append(violation(
            "zero-damage",
            f"non-destructive layer damaged {damaged} frame(s)",
        ))
    if len(submitted) >= 2 and not all(matched[-2:]):
        out.append(violation(
            "recovery",
            "a post-fault frame did not arrive intact: the receiver "
            "failed to re-hunt to flag sync within two flag periods",
        ))

    out.extend(_check_oam(violation, system, submitted, damaged))
    out.extend(_check_line_stats(violation, layer, injector))
    return out


def _check_oam(violation, system: P5System, submitted, damaged) -> List[Violation]:
    out: List[Violation] = []
    for name, truth in _oam_register_pairs(system):
        readback = system.oam.regs.read_name(name)
        if readback != truth:
            out.append(violation(
                "oam-reconcile",
                f"register {name} reads {readback}, datapath says {truth}",
            ))
    crc = system.rx.crc
    delin = system.rx.delineator
    if system.tx.flags.frames_wrapped != len(submitted):
        out.append(violation(
            "oam-reconcile",
            f"transmitter wrapped {system.tx.flags.frames_wrapped} frames, "
            f"{len(submitted)} were submitted",
        ))
    if system.rx.escape.resync_overflow_drops == 0 and \
            crc.frames_checked != delin.frames_delineated:
        out.append(violation(
            "oam-reconcile",
            f"CRC checked {crc.frames_checked} frames but the "
            f"delineator closed {delin.frames_delineated}",
        ))
    if crc.frames_ok + crc.fcs_errors + crc.runt_frames != crc.frames_checked:
        out.append(violation(
            "oam-reconcile",
            "CRC verdict counters do not sum to frames checked",
        ))
    if len(system.rx.sink.good_frames()) != crc.frames_ok:
        out.append(violation(
            "oam-reconcile",
            f"sink holds {len(system.rx.sink.good_frames())} good frames, "
            f"CRC counted {crc.frames_ok}",
        ))
    error_trace = (
        crc.fcs_errors + crc.runt_frames + delin.aborts + delin.oversize_drops
        + system.rx.escape.dangling_escape_errors
        + delin.octets_discarded_hunting
    )
    if damaged and not error_trace:
        out.append(violation(
            "oam-reconcile",
            f"{damaged} frame(s) damaged but every error counter is zero",
        ))
    return out


def _check_line_stats(violation, layer: str, injector: BeatFaultInjector) -> List[Violation]:
    out: List[Violation] = []
    stats = injector.line.stats
    if layer in ("line", "beat"):
        if injector.faults_applied != 1:
            out.append(violation(
                "line-stats",
                f"injector applied {injector.faults_applied} faults, expected 1",
            ))
        if injector.burst_bits_left:
            out.append(violation(
                "line-stats",
                f"{injector.burst_bits_left} burst bits never reached the wire",
            ))
    if layer == "line":
        asked = sum(e.detail.get("bits", 0) for e in injector.events)
        if stats.bits_flipped != asked:
            out.append(violation(
                "line-stats",
                f"line flipped {stats.bits_flipped} bits, events asked for {asked}",
            ))
    else:
        if stats.bits_flipped:
            out.append(violation(
                "line-stats",
                f"non-line layer flipped {stats.bits_flipped} bits",
            ))
    if layer in ("backpressure", "oam"):
        if injector.faults_applied or injector.beats_dropped or \
                injector.beats_duplicated or injector.beats_corrupted:
            out.append(violation(
                "line-stats",
                "wire injector acted during a non-wire layer trial",
            ))
    return out
