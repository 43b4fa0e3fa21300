"""GFP HEC-based frame delineation (G.7041 section 6.3).

Unlike HDLC, there is no reserved octet to hunt for: the receiver
slides over the byte stream testing every 4-byte window as a candidate
core header (descramble, recompute the CRC-16 over the PLI, compare
with the cHEC).  A hit gives the frame length, which *predicts where
the next header is* — after ``presync_hits`` consecutive correct
predictions the receiver declares sync, exactly like ATM cell
delineation.

In sync, the cHEC also provides **single-bit error correction**: the
CRC-16's syndrome identifies which of the 32 header bits flipped, so a
lone bit error costs nothing (HDLC, by contrast, loses the whole frame
when its flag or length context is hit).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List

from repro.errors import FcsError, FramingError
from repro.gfp.frame import CORE_SCRAMBLE_WORD, GfpFrame, hec

__all__ = ["GfpState", "GfpStats", "GfpDelineator"]


class GfpState(enum.Enum):
    """Delineation states (G.7041 figure 6-2)."""

    HUNT = "hunt"
    PRESYNC = "presync"
    SYNC = "sync"


def _syndrome_table() -> Dict[int, int]:
    """Map cHEC syndrome -> flipped-bit index (0..31, MSB-first header).

    The XMODEM CRC (init 0, no reflection, no xorout) is GF(2)-linear,
    so the syndrome of a single-bit error pattern is the CRC of that
    pattern — precomputable for all 32 positions.
    """
    table: Dict[int, int] = {}
    for bit in range(32):
        error = bytearray(4)
        error[bit // 8] = 0x80 >> (bit % 8)
        syndrome = hec(bytes(error[:2])) ^ int.from_bytes(error[2:4], "big")
        table[syndrome] = bit
    return table


_SYNDROMES = _syndrome_table()


@dataclass
class GfpStats:
    """Receive-side counters."""

    frames_ok: int = 0
    idle_frames: int = 0
    corrected_headers: int = 0
    header_errors: int = 0
    client_errors: int = 0        # tHEC / pFCS failures
    bytes_discarded_hunting: int = 0
    resyncs: int = 0


class GfpDelineator:
    """Streaming GFP receiver.

    Feed arbitrary chunks with :meth:`feed`; decoded client frames are
    returned in order.  ``presync_hits`` is the DELTA of G.7041 (number
    of consecutive correct headers required to declare sync).
    """

    def __init__(self, *, presync_hits: int = 2, correct_single_bit: bool = True) -> None:
        self.presync_hits = presync_hits
        self.correct_single_bit = correct_single_bit
        self.state = GfpState.HUNT
        self.stats = GfpStats()
        self._buffer = bytearray()
        self._confirmations = 0

    # ----------------------------------------------------------------- intake
    def feed(self, data: bytes) -> List[GfpFrame]:
        """Consume line bytes; return the client frames recovered."""
        self._buffer.extend(data)
        frames: List[GfpFrame] = []
        progressed = True
        while progressed:
            progressed = False
            if self.state is GfpState.HUNT:
                progressed = self._hunt()
            else:
                progressed = self._try_frame(frames)
        return frames

    # ------------------------------------------------------------------ hunt
    def _header_pli(self, window: bytes, *, correct: bool) -> int:
        """Validate a candidate core header; returns PLI or raises."""
        raw = int.from_bytes(window, "big") ^ CORE_SCRAMBLE_WORD
        pli = raw >> 16
        syndrome = hec(pli.to_bytes(2, "big")) ^ (raw & 0xFFFF)
        if syndrome == 0:
            return pli
        if correct and self.correct_single_bit and syndrome in _SYNDROMES:
            # Bit 0 is the MSB of the 32-bit header.
            fixed = raw ^ (1 << (31 - _SYNDROMES[syndrome]))
            self.stats.corrected_headers += 1
            return fixed >> 16
        raise FramingError("cHEC mismatch")

    def _hunt(self) -> bool:
        while len(self._buffer) >= 4:
            try:
                self._header_pli(bytes(self._buffer[:4]), correct=False)
            except FramingError:
                del self._buffer[0]
                self.stats.bytes_discarded_hunting += 1
                continue
            self.state = GfpState.PRESYNC
            self._confirmations = 0
            return True
        return False

    # ----------------------------------------------------------------- frames
    def _try_frame(self, frames: List[GfpFrame]) -> bool:
        if len(self._buffer) < 4:
            return False
        correcting = self.state is GfpState.SYNC
        try:
            pli = self._header_pli(bytes(self._buffer[:4]), correct=correcting)
        except FramingError:
            self.stats.header_errors += 1
            self.stats.resyncs += 1
            self.state = GfpState.HUNT
            del self._buffer[0]
            self.stats.bytes_discarded_hunting += 1
            return True
        if len(self._buffer) < 4 + pli:
            return False   # wait for the rest of the frame
        area = bytes(self._buffer[4 : 4 + pli])
        del self._buffer[: 4 + pli]
        if self.state is GfpState.PRESYNC:
            self._confirmations += 1
            if self._confirmations >= self.presync_hits:
                self.state = GfpState.SYNC
        if pli == 0:
            self.stats.idle_frames += 1
            return True
        try:
            frame = GfpFrame.decode_payload_area(area)
        except (FcsError, FramingError):
            self.stats.client_errors += 1
            return True
        self.stats.frames_ok += 1
        frames.append(frame)
        return True
