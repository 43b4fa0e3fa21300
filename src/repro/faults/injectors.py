"""Fault sources for the four injection layers.

Layer 1 (**line**) and layer 2 (**beat**) faults are applied by
:class:`BeatFaultInjector`, a drop-in replacement for the
``PhyWire`` hop between a transmitter and a receiver: bit flips and
burst errors ride on an internal :class:`~repro.phy.line.BitErrorLine`
(so its :class:`~repro.phy.line.LineStats` remain the ground truth the
invariants reconcile against), while drops, duplications and
lane-valid upsets operate on whole :class:`~repro.rtl.pipeline.WordBeat`
words.  Injected bursts are capped at 32 bits — within CRC-32's
guaranteed burst-detection length — so a corrupted frame can never
masquerade as good.

Layer 3 (**backpressure**) is a :func:`backpressure_storm` stall
pattern attached to the receive frame sink; layer 4 (**oam**) is
:class:`OamRegisterUpset`, which fires host-bus writes at the OAM
register file the way a soft error in a microcontroller driver would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.oam import (
    ADDR_CTRL,
    ADDR_DANGLING_ESCAPES,
    ADDR_ESC_DELETED,
    ADDR_ESC_INSERTED,
    ADDR_FRAMING,
    ADDR_IRQ_MASK,
    ADDR_IRQ_PENDING,
    ADDR_RESYNC_DROPS_RX,
    ADDR_RX_ABORTS,
    ADDR_RX_FCS_ERRORS,
    ADDR_RX_FRAMES_OK,
    ADDR_RX_OVERSIZE,
    ADDR_RX_RUNTS,
    ADDR_STATION_ADDRESS,
    ADDR_TX_FRAMES,
    CTRL_RX_ENABLE,
    CTRL_TX_ENABLE,
    ProtocolOam,
)
from repro.phy.line import BitErrorLine
from repro.rtl.module import Channel, Module, TimingContract
from repro.rtl.pipeline import StallPattern, WordBeat
from repro.utils.rng import SeedLike, make_rng

__all__ = [
    "FaultEvent",
    "BeatFaultInjector",
    "backpressure_storm",
    "OamRegisterUpset",
]

#: The longest burst the campaigns inject, chosen to stay within
#: CRC-32's guaranteed burst-detection length so corruption is always
#: caught by the FCS (the "goodness" invariant depends on this).
MAX_BURST_BITS = 32


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, for the campaign report.

    ``beat_index`` is the wire-word index the fault landed on (-1 for
    faults that do not target the wire, e.g. register upsets).
    """

    layer: str
    kind: str
    cycle: int
    beat_index: int
    detail: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "layer": self.layer,
            "kind": self.kind,
            "cycle": self.cycle,
            "beat_index": self.beat_index,
            "detail": dict(self.detail),
        }


class BeatFaultInjector(Module):
    """A PHY hop that can be armed to damage exactly one thing.

    Behaves as a one-word-per-cycle registered wire (the
    :class:`~repro.core.p5.PhyWire` contract) until :meth:`arm` is
    called; the armed fault fires once when ``after_beats`` words have
    crossed, then the wire is transparent again.  One armed fault per
    trial keeps cause and effect attributable — the campaign layer
    owns repetition.

    Kinds
    -----
    ``bit``
        Flip one random bit of the target word (line layer).
    ``burst``
        Flip ``bits`` (<= 32) contiguous bits starting at a random
        offset in the target word, continuing into following words if
        the run crosses a word boundary (line layer).
    ``drop``
        Delete the target word from the wire (beat layer).
    ``dup``
        Deliver the target word twice (beat layer) — the reason this
        module reserves room for two pushes per cycle.
    ``lane``
        Toggle one lane's valid bit (beat layer): a framing-level
        upset that inserts a garbage octet or deletes a real one.
    """

    KINDS = ("bit", "burst", "drop", "dup", "lane")

    def __init__(
        self,
        name: str,
        inp: Channel,
        out: Channel,
        *,
        corrupt=None,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(name)
        self.inp = self.reads(inp)
        self.out = self.writes(out)
        self.corrupt = corrupt
        self._rng = make_rng(seed)
        #: Bit-flip bookkeeping: every line-layer flip goes through this
        #: zero-BER line so ``line.stats`` is exact ground truth.
        self.line = BitErrorLine(0.0, self._rng)
        self._armed: Optional[Dict[str, int]] = None
        self._armed_kind: Optional[str] = None
        self._burst_bits_left = 0
        self.beats_seen = 0
        self.words_moved = 0
        self.beats_dropped = 0
        self.beats_duplicated = 0
        self.beats_corrupted = 0
        self.faults_applied = 0
        self.events: List[FaultEvent] = []

    @property
    def burst_bits_left(self) -> int:
        """Bits of an in-flight burst still waiting for wire words."""
        return self._burst_bits_left

    def arm(self, kind: str, *, after_beats: int = 0, bits: int = 1) -> None:
        """Schedule one fault ``after_beats`` wire words from now."""
        if kind not in self.KINDS:
            raise ValueError(f"unknown fault kind {kind!r}; pick from {self.KINDS}")
        if not 1 <= bits <= MAX_BURST_BITS:
            raise ValueError(f"bits must be 1..{MAX_BURST_BITS} (CRC-32 burst bound)")
        if self._armed is not None:
            raise ValueError("an earlier fault is still armed")
        self._armed_kind = kind
        self._armed = {"after_beats": self.beats_seen + after_beats, "bits": bits}

    def capacity_needs(self):
        return [(self.out, 2, "a duplicated beat emits two words in one cycle")]

    def timing_contract(self) -> TimingContract:
        # Declares no output flow bounds: injected drops/dups exist to
        # violate flow conservation, so only the latency and the dup
        # burst are contractual.
        return TimingContract(latency_cycles=1)

    def clock(self) -> None:
        if not self.inp.can_pop:
            return
        # Reserve room for the dup case (two pushes) up front so every
        # push below is unconditionally safe.
        if self.out.capacity - self.out.occupancy < 2:
            self.note_stall()
            return
        word = self.inp.pop()
        index = self.beats_seen
        self.beats_seen += 1
        burst = self._burst_bits_left > 0
        fire = self._armed is not None and index >= self._armed["after_beats"]
        if burst or fire or self.corrupt is not None:
            # The faults act on the word shown as a beat of the wire's width.
            beat = WordBeat.from_word(word, self.inp.width_bytes)
            if self.corrupt is not None:
                beat = self.corrupt(beat)
            if burst:
                emit = [self._continue_burst(beat)]
            elif fire:
                emit = self._fire(beat, index)
            else:
                emit = [beat]
            words = [tuple(beat) for beat in emit]
        else:
            words = [word]
        for word in words:
            self.out.push(word)
            self.words_moved += 1

    # ----------------------------------------------------------- fault paths
    def _fire(self, beat: WordBeat, index: int) -> List[WordBeat]:
        kind = self._armed_kind or "bit"
        bits = self._armed["bits"] if self._armed else 1
        self._armed = None
        self._armed_kind = None
        self.faults_applied += 1
        detail: Dict[str, int] = {}
        if kind == "drop":
            self.beats_dropped += 1
            out: List[WordBeat] = []
        elif kind == "dup":
            self.beats_duplicated += 1
            out = [beat, beat]
        elif kind == "lane":
            out = [self._toggle_lane(beat, detail)]
        else:  # bit / burst
            out = [self._start_flips(beat, bits if kind == "burst" else 1, detail)]
        layer = "line" if kind in ("bit", "burst") else "beat"
        self.events.append(
            FaultEvent(layer=layer, kind=kind, cycle=self.cycles,
                       beat_index=index, detail=detail)
        )
        return out

    def _start_flips(self, beat: WordBeat, bits: int, detail: Dict[str, int]) -> WordBeat:
        payload = beat.payload()
        if not payload:
            detail["bits"] = 0
            return beat
        start = int(self._rng.integers(8 * len(payload)))
        here = min(bits, 8 * len(payload) - start)
        self._burst_bits_left = bits - here
        self.beats_corrupted += 1
        detail["bits"] = bits
        detail["start_bit"] = start
        return self._with_payload(beat, self.line.burst(payload, start, here))

    def _continue_burst(self, beat: WordBeat) -> WordBeat:
        payload = beat.payload()
        if not payload:
            return beat
        here = min(self._burst_bits_left, 8 * len(payload))
        self._burst_bits_left -= here
        self.beats_corrupted += 1
        return self._with_payload(beat, self.line.burst(payload, 0, here))

    def _toggle_lane(self, beat: WordBeat, detail: Dict[str, int]) -> WordBeat:
        lane = int(self._rng.integers(beat.width_bytes))
        lanes = list(beat.lanes)
        valid = list(beat.valid)
        valid[lane] = not valid[lane]
        if valid[lane]:
            lanes[lane] = int(self._rng.integers(0x100))
        else:
            lanes[lane] = 0
        self.beats_corrupted += 1
        detail["lane"] = lane
        detail["now_valid"] = int(valid[lane])
        return WordBeat(tuple(lanes), tuple(valid), sof=beat.sof, eof=beat.eof)

    @staticmethod
    def _with_payload(beat: WordBeat, payload: bytes) -> WordBeat:
        lanes = list(beat.lanes)
        cursor = 0
        for i, ok in enumerate(beat.valid):
            if ok:
                lanes[i] = payload[cursor]
                cursor += 1
        return WordBeat(tuple(lanes), beat.valid, sof=beat.sof, eof=beat.eof)


def backpressure_storm(
    probability: float, *, burst: int = 4, seed: SeedLike = None
) -> StallPattern:
    """A randomized ready-deassertion schedule for the receive sink.

    Each cycle stalls with ``probability``, and every stall extends to
    ``burst`` consecutive cycles — long multi-cycle windows where the
    shared-memory write port refuses data, as under host-bus
    contention.  Keep ``probability`` at or below 0.75: the campaigns
    run under a watchdog, and a storm must produce finite stall runs,
    not a plausible deadlock.
    """
    if not 0.0 < probability <= 0.75:
        raise ValueError("storm probability must be in (0, 0.75]")
    if burst < 1:
        raise ValueError("burst must be >= 1")
    return StallPattern(probability=probability, burst=burst, seed=seed)


class OamRegisterUpset:
    """Host-bus register soft errors against a live OAM block.

    Each :meth:`inject` performs one stray write.  The targets are
    chosen so an upset exercises the register file's protections
    rather than legitimately reconfiguring the link dead:

    * ``ctrl`` writes keep the TX/RX enable bits set (an upset that
      *disables* the transmitter would trivially and uninterestingly
      stop traffic);
    * ``framing`` writes carry ``flag == escape``, the nonsense
      pattern :meth:`~repro.core.oam.ProtocolOam._write_framing`
      ignores, as hardware would;
    * ``counter`` writes target read-only registers, which the
      register map discards by contract.
    """

    TARGETS = ("irq_mask", "irq_pending", "station_address", "ctrl",
               "framing", "counter")

    #: Every read-only counter register (upset writes must bounce off).
    COUNTER_ADDRS = (
        ADDR_TX_FRAMES,
        ADDR_RX_FRAMES_OK,
        ADDR_RX_FCS_ERRORS,
        ADDR_RX_RUNTS,
        ADDR_ESC_INSERTED,
        ADDR_ESC_DELETED,
        ADDR_DANGLING_ESCAPES,
        ADDR_RX_ABORTS,
        ADDR_RX_OVERSIZE,
        ADDR_RESYNC_DROPS_RX,
    )

    def __init__(self, oam: ProtocolOam, seed: SeedLike = None) -> None:
        self.oam = oam
        self._rng = make_rng(seed)
        self.events: List[FaultEvent] = []

    def inject(self, *, cycle: int = 0, target: Optional[str] = None) -> FaultEvent:
        """Fire one stray register write; returns its event record."""
        if target is None:
            target = self.TARGETS[int(self._rng.integers(len(self.TARGETS)))]
        elif target not in self.TARGETS:
            raise ValueError(f"unknown upset target {target!r}")
        raw = int(self._rng.integers(1 << 16))
        if target == "ctrl":
            address = ADDR_CTRL
            value = (raw & ~(CTRL_TX_ENABLE | CTRL_RX_ENABLE)) \
                | CTRL_TX_ENABLE | CTRL_RX_ENABLE
        elif target == "station_address":
            address = ADDR_STATION_ADDRESS
            value = raw & 0xFF
        elif target == "irq_pending":
            address = ADDR_IRQ_PENDING
            value = raw & 0x7
        elif target == "irq_mask":
            address = ADDR_IRQ_MASK
            value = raw & 0x7
        elif target == "framing":
            address = ADDR_FRAMING
            octet = raw & 0xFF
            value = (octet << 8) | octet  # flag == escape: ignored
        else:  # counter
            address = self.COUNTER_ADDRS[
                int(self._rng.integers(len(self.COUNTER_ADDRS)))
            ]
            value = raw
        self.oam.write(address, value)
        event = FaultEvent(
            layer="oam", kind=target, cycle=cycle, beat_index=-1,
            detail={"address": address, "value": value},
        )
        self.events.append(event)
        return event
