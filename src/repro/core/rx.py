"""The P5 Receiver (paper Figure 4).

Data path: **PHY → flag delineation → Escape Detect → CRC check →
Control (shared memory)**.  The delineator hunts for flag octets in
the unaligned wire stream, the Escape Detect unit deletes escapes and
fills the resulting bubbles, the CRC unit verifies and strips the
FCS, and the frame sink writes whole frames into receive memory with
their verdicts.

Recovery hardening (exercised by :mod:`repro.faults`): the delineator
recognises the HDLC **abort sequence** (escape octet immediately
followed by a flag) and discards the aborted frame, enforces an
**oversize** bound so a corrupted-away closing flag cannot merge
frames indefinitely, and records every rejection as a typed
:class:`~repro.errors.FramingError` instance alongside the OAM
counters.  All error paths re-hunt to flag sync; none of them wedge
the pipeline.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.config import P5Config
from repro.core.crc_unit import CrcCheck
from repro.core.escape_pipeline import PipelinedEscapeDetect
from repro.errors import AbortError, FramingError, OversizeFrameError
from repro.hdlc.constants import ESC_OCTET, FLAG_OCTET
from repro.rtl.module import Channel, ChannelTiming, Module, TimingContract
from repro.rtl.pipeline import EOF_ABORT, StallPattern

__all__ = ["WordDelineator", "RxFrameSink", "P5Receiver"]


class WordDelineator(Module):
    """Flag hunting and frame delineation on word-wide data.

    The wire presents ``W`` arbitrary octets per cycle; flags may sit
    on any lane, frames may start mid-word and a single word can close
    one frame and open the next.  The module re-emits the *frame body*
    octets (flags stripped) as dense words with sof/eof marks.

    A one-word **holdback** keeps the most recent full word in the
    carry until more data (or the closing flag) arrives — otherwise a
    frame whose body length is an exact multiple of W would have
    already shipped its last word before the flag reveals it was the
    last, and the eof mark could not be attached.  Hardware has the
    same constraint and the same solution (a registered word of
    lookahead).

    Two error paths protect the downstream pipeline:

    * **abort** — a frame body ending in the escape octet when the
      closing flag arrives is the RFC 1662 abort sequence, counted in
      :attr:`aborts`.  If nothing has shipped downstream yet the frame
      is discarded here; if part of it already shipped, the rest (less
      the abort's escape) goes out closed by an :data:`EOF_ABORT` mark,
      and the CRC check and the sink drop the whole frame: an aborted
      frame is never judged by its FCS, nor delivered.
    * **oversize** — a body exceeding ``max_frame_octets`` (a merged
      frame after a corrupted closing flag) is cut, counted in
      :attr:`oversize_drops`, and the delineator re-enters the flag
      hunt, resynchronising at the next flag on the wire.
    """

    def __init__(
        self,
        name: str,
        inp: Channel,
        out: Channel,
        *,
        width_bytes: int,
        flag_octet: int = FLAG_OCTET,
        esc_octet: int = ESC_OCTET,
        max_frame_octets: int = 0,
    ) -> None:
        super().__init__(name)
        self.inp = self.reads(inp)
        self.out = self.writes(out)
        self.width_bytes = width_bytes
        self.flag_octet = flag_octet
        self.esc_octet = esc_octet
        self.max_frame_octets = max_frame_octets
        self._carry = bytearray()      # body bytes of the open frame
        self._synced = False
        self._sof_pending = False
        self._emitted = False          # open frame has words downstream
        self._body_octets = 0          # body octets seen for the open frame
        self.octets_discarded_hunting = 0
        self.frames_delineated = 0
        self.empty_bodies = 0          # idle flags between frames
        self.aborts = 0
        self.oversize_drops = 0
        #: Typed records of every rejected frame (abort/oversize), in
        #: arrival order — the errors.py hierarchy as data, not raises.
        self.faults: List[FramingError] = []

    @property
    def quiescent(self) -> bool:
        # Input-driven: an empty PHY channel means clock() returns at
        # its first guard, whatever frame is half-delineated.
        return not self.inp

    def capacity_needs(self):
        # One PHY word of tiny frames can burst W+2 words (the room
        # check in clock()); anything shallower deadlocks the hunt.
        return [(self.out, self.width_bytes + 2, "worst-case tiny-frame burst")]

    def timing_contract(self) -> TimingContract:
        # Structural latency is 2 cycles (the one-word holdback), but
        # the *first* emission also waits for flag alignment — a
        # property of the traffic, not the structure — so the latency
        # is a steady-state figure, not a run-time bound.
        return TimingContract(
            latency_cycles=2,
            latency_is_bound=False,
            outputs=(
                ChannelTiming(
                    self.out,
                    # Flags and hunt noise are stripped: the body can
                    # contract all the way to nothing (idle flag fill).
                    min_expansion=0.0,
                    burst_words=self.width_bytes + 2,
                ),
            ),
        )

    def clock(self) -> None:
        if not self.inp:
            return
        # Worst case: a word full of tiny frames can emit up to W/3+2
        # words; require generous room or stall the PHY word.
        if self.out.capacity - len(self.out) < self.width_bytes + 2:
            self.note_stall()
            return
        payload, _sof, _eof = self.inp.pop()
        limit = self.max_frame_octets
        if (
            self._synced
            and self.flag_octet not in payload
            and not (limit and self._body_octets + len(payload) > limit)
        ):
            # A synced, flag-free word that cannot cross the oversize
            # bound: every octet would just join the body.
            self._carry += payload
            self._body_octets += len(payload)
        else:
            for octet in payload:
                self._consume_octet(octet)
        self._emit_words()

    def _consume_octet(self, octet: int) -> None:
        if not self._synced:
            if octet == self.flag_octet:
                self._synced = True
                self._sof_pending = True
            else:
                self.octets_discarded_hunting += 1
            return
        if octet == self.flag_octet:
            if self._carry and self._carry[-1] == self.esc_octet:
                self._abort_frame()
            elif self._carry or self._emitted:
                self._close_frame()
            else:
                self.empty_bodies += 1
            self._sof_pending = True
            return
        self._carry.append(octet)
        self._body_octets += 1
        if self.max_frame_octets and self._body_octets > self.max_frame_octets:
            self._oversize_frame()

    def _emit_words(self) -> None:
        # Strictly-greater-than: hold one word back (see class docs).
        w = self.width_bytes
        carry = self._carry
        while len(carry) > w:
            self.out.push((bytes(carry[:w]), self._sof_pending, False))
            del carry[:w]
            self._sof_pending = False
            self._emitted = True

    def _flush(self, eof) -> None:
        # Ship everything held back, the last word closing the frame
        # with ``eof`` (an empty word if nothing is left, as after an
        # abort whose escape was the whole carry).
        self._emit_words()
        self.out.push((bytes(self._carry), self._sof_pending, eof))
        self._carry.clear()
        self._sof_pending = False

    def _close_frame(self) -> None:
        self._flush(True)
        self.frames_delineated += 1
        self._reset_frame()

    def _abort_frame(self) -> None:
        """RFC 1662 abort: ``<ESC> <FLAG>`` discards the frame in progress."""
        self.aborts += 1
        self.faults.append(AbortError(
            f"{self.name}: abort sequence after {self._body_octets} body octets"
        ))
        del self._carry[-1]   # the abort's escape is not frame data
        if self._emitted:
            # Part of the frame already shipped: close it with the
            # abort mark so the stages downstream drop it whole.
            self._flush(EOF_ABORT)
        else:
            self._carry.clear()
        self._reset_frame()

    def _oversize_frame(self) -> None:
        """Oversize cut: drop the runaway frame and re-hunt for a flag."""
        self.oversize_drops += 1
        self.faults.append(OversizeFrameError(
            f"{self.name}: frame body exceeded {self.max_frame_octets} octets"
        ))
        if self._emitted:
            self._close_frame()
        else:
            self._carry.clear()
            self._reset_frame()
        # Everything until the next flag is un-frameable noise; the
        # hunt counter accounts for it as discarded octets.
        self._synced = False

    def _reset_frame(self) -> None:
        self._body_octets = 0
        self._emitted = False


class RxFrameSink(Module):
    """Control unit + shared-memory write port.

    Assembles words into whole frames and pairs them with the CRC
    checker's verdicts.  ``frames`` holds ``(content, good)`` tuples —
    the paper's "receiver unpacketises and extracts the encapsulated
    datagram".

    The optional :attr:`stall` pattern models memory-bus contention on
    the write port (the fault campaigns' backpressure storms): on
    stalled cycles the sink deasserts ready and the stall ripples back
    up the pipeline, which must absorb it without losing a frame.
    """

    def __init__(
        self,
        name: str,
        inp: Channel,
        crc: CrcCheck,
        *,
        stall: Optional[StallPattern] = None,
    ) -> None:
        super().__init__(name)
        self.inp = self.reads(inp)
        self.crc = crc
        self.stall = stall
        self._current = bytearray()
        self.frames: List[Tuple[bytes, bool]] = []

    @property
    def quiescent(self) -> bool:
        # A stall pattern may draw RNG (or count stalled cycles), so
        # only an unstalled sink with an empty input is skippable.
        return (
            (self.stall is None or self.stall.is_never)
            and not self.inp
        )

    def clock(self) -> None:
        if self.stall is not None and self.stall.active(self.cycles):
            self.note_stall()
            return
        if not self.inp:
            return
        octets, _sof, eof = self.inp.pop()
        self._current += octets
        if eof == EOF_ABORT:
            self._current.clear()   # aborted: never lands, has no verdict
        elif eof:
            self.frames.append((bytes(self._current), self.crc.pop_verdict()))
            self._current.clear()

    def good_frames(self) -> List[bytes]:
        """Contents of frames that passed the FCS check."""
        return [content for content, good in self.frames if good]

    def timing_contract(self) -> TimingContract:
        # Terminal stage: one cycle to land a word in receive memory;
        # no output channels to constrain.
        return TimingContract(latency_cycles=1)


class P5Receiver:
    """The complete receiver pipeline as a module/channel bundle."""

    def __init__(self, config: P5Config, *, name: str = "rx") -> None:
        self.config = config
        w = config.width_bytes
        self.phy_in = Channel(f"{name}.phy", capacity=4, width_bytes=w)
        # The delineator can burst many small words from one PHY word
        # (see WordDelineator room check): size its output accordingly.
        self.ch_body = Channel(f"{name}.body", capacity=2 * w + 4, width_bytes=w)
        self.ch_clear = Channel(f"{name}.clear", capacity=6, width_bytes=w)
        self.ch_checked = Channel(f"{name}.checked", capacity=6, width_bytes=w)

        self.delineator = WordDelineator(
            f"{name}.delin", self.phy_in, self.ch_body,
            width_bytes=w, flag_octet=config.flag_octet,
            esc_octet=config.esc_octet,
            max_frame_octets=config.max_frame_octets,
        )
        self.escape = PipelinedEscapeDetect(
            f"{name}.escdet", self.ch_body, self.ch_clear,
            width_bytes=w,
            esc_octet=config.esc_octet,
            flag_octet=config.flag_octet,
            pipeline_stages=4 if config.width_bits > 8 else 2,
            resync_depth_words=config.resync_depth_words,
        )
        self.crc = CrcCheck(
            f"{name}.crcchk", self.ch_clear, self.ch_checked,
            width_bytes=w, spec=config.fcs,
        )
        self.sink = RxFrameSink(f"{name}.sink", self.ch_checked, self.crc)
        self.modules: List[Module] = [
            self.delineator, self.escape, self.crc, self.sink
        ]
        self.channels = [self.phy_in, self.ch_body, self.ch_clear, self.ch_checked]

    @property
    def frames(self) -> List[Tuple[bytes, bool]]:
        """All received frames with verdicts."""
        return self.sink.frames

    @property
    def faults(self) -> List[FramingError]:
        """Typed framing rejections seen anywhere in the receive path."""
        return list(self.delineator.faults) + list(self.crc.faults)

    def good_frames(self) -> List[bytes]:
        return self.sink.good_frames()
