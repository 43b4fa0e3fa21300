"""SONET receive framer: alignment hunting, OOF/LOF, overhead checks.

The receiver sees an unaligned byte stream.  It hunts for the A1…A2
framing pattern, requires two consecutive aligned frames before
declaring sync (GR-253's m-consecutive rule), monitors framing on
every frame thereafter (4 consecutive errored framings → out-of-frame,
persistent OOF → loss-of-frame), descrambles, verifies B1/B2/B3
parity, interprets the H1/H2 pointer, checks the C2 path label and
hands the payload columns to the layer above.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.sonet.constants import A1, A2, POINTER_MAX, ROWS
from repro.sonet.framer import _bip8, keystream_grid, payload_columns
from repro.sonet.rates import StsRate

__all__ = ["FramerState", "RxCounters", "SonetRxFramer"]


class FramerState(enum.Enum):
    """Alignment states (GR-253 simplified)."""

    HUNT = "hunt"          # no alignment known
    PRESYNC = "presync"    # candidate alignment, confirming
    SYNC = "sync"          # in frame


@dataclass
class RxCounters:
    """Receive-side SONET monitoring counters."""

    frames_ok: int = 0
    oof_events: int = 0
    lof_events: int = 0
    b1_errors: int = 0
    b2_errors: int = 0
    b3_errors: int = 0
    pointer_invalid: int = 0
    c2_mismatches: int = 0
    bytes_discarded_hunting: int = 0


class SonetRxFramer:
    """Streaming STS-Nc receiver.

    Feed arbitrary byte chunks with :meth:`feed`; extracted SPE payload
    bytes are returned (concatenated across the frames completed by
    the chunk).  Alignment and parity events accumulate in
    :attr:`counters`.

    Parameters
    ----------
    n:
        STS level; must match the transmitter.
    expected_c2:
        Path signal label to verify (None disables the check).
    descramble:
        Must match the transmitter's ``scramble`` flag.
    oof_threshold / lof_threshold:
        Consecutive bad framings to declare OOF, and consecutive OOF
        frames to escalate to LOF.
    """

    def __init__(
        self,
        n: int,
        *,
        expected_c2: Optional[int] = None,
        descramble: bool = True,
        oof_threshold: int = 4,
        lof_threshold: int = 24,
    ) -> None:
        self.rate = StsRate(n)
        self.n = n
        self.expected_c2 = expected_c2
        self.descramble = descramble
        self.oof_threshold = oof_threshold
        self.lof_threshold = lof_threshold
        self._keystream = keystream_grid(self.rate) if descramble else None
        self._framing_pattern = bytes([A1] * n + [A2] * n)
        self._buffer = bytearray()
        self.state = FramerState.HUNT
        self.counters = RxCounters()
        self._bad_framings = 0
        self._oof_hunt_bytes = 0      # bytes spent hunting since OOF
        self._lof_declared = False
        self._presync_ok = 0
        # Parity of the previous frame, checked against this frame's
        # B1/B2/B3.
        self._b1: Optional[int] = None
        self._b2: Optional[int] = None
        self._b3: Optional[int] = None

    # ---------------------------------------------------------------- sizes
    @property
    def frame_bytes(self) -> int:
        return ROWS * self.rate.columns

    # ----------------------------------------------------------------- feed
    def feed(self, data: bytes) -> bytes:
        """Consume a chunk of line bytes; return recovered payload."""
        self._buffer.extend(data)
        payload = bytearray()
        progressed = True
        while progressed:
            progressed = False
            if self.state is FramerState.HUNT:
                progressed = self._hunt()
            elif len(self._buffer) >= self.frame_bytes:
                chunk = bytes(self._buffer[: self.frame_bytes])
                del self._buffer[: self.frame_bytes]
                payload.extend(self._process_frame(chunk))
                progressed = True
        return bytes(payload)

    def _hunt(self) -> bool:
        pattern = self._framing_pattern
        idx = bytes(self._buffer).find(pattern)
        if idx < 0:
            # Keep a pattern's worth of tail in case it straddles chunks.
            keep = len(pattern) - 1
            dropped = max(0, len(self._buffer) - keep)
            if dropped:
                self.counters.bytes_discarded_hunting += dropped
                self._note_oof_persistence(dropped)
                del self._buffer[:dropped]
            return False
        self.counters.bytes_discarded_hunting += idx
        self._note_oof_persistence(idx)
        del self._buffer[:idx]
        self.state = FramerState.PRESYNC
        self._presync_ok = 0
        self._oof_hunt_bytes = 0
        self._lof_declared = False
        return True

    def _note_oof_persistence(self, hunted_bytes: int) -> None:
        """Escalate OOF to LOF when hunting persists (GR-253's 3 ms,
        modelled as ``lof_threshold`` frame-times of fruitless hunt)."""
        if not self.counters.oof_events or self._lof_declared:
            return
        self._oof_hunt_bytes += hunted_bytes
        if self._oof_hunt_bytes >= self.lof_threshold * self.frame_bytes:
            self.counters.lof_events += 1
            self._lof_declared = True

    def _framing_ok(self, raw: bytes) -> bool:
        return raw.startswith(self._framing_pattern)

    def _process_frame(self, raw: bytes) -> bytes:
        if not self._framing_ok(raw):
            return self._handle_bad_framing(raw)
        self._bad_framings = 0
        self._oof_frames = 0
        if self.state is FramerState.PRESYNC:
            self._presync_ok += 1
            if self._presync_ok >= 2:
                self.state = FramerState.SYNC
        grid_scrambled = np.frombuffer(raw, dtype=np.uint8).reshape(
            ROWS, self.rate.columns
        )
        grid = grid_scrambled ^ self._keystream if self.descramble else grid_scrambled
        payload = self._extract(grid, grid_scrambled)
        self.counters.frames_ok += 1
        return payload

    def _handle_bad_framing(self, raw: bytes) -> bytes:
        self._bad_framings += 1
        if self._bad_framings >= self.oof_threshold:
            self.counters.oof_events += 1
            self._oof_hunt_bytes = 0
            # Re-hunt within the data we still hold.
            self._buffer[:0] = raw  # push the frame back for re-scan
            del self._buffer[:1]    # but never at offset 0 again
            self.counters.bytes_discarded_hunting += 1
            self.state = FramerState.HUNT
            self._bad_framings = 0
            self._b1 = self._b2 = self._b3 = None
        return b""

    def _extract(self, grid: np.ndarray, grid_scrambled: np.ndarray) -> bytes:
        n = self.n
        # Parity checks: B1/B2/B3 in this frame cover the previous one.
        if self._b1 is not None and int(grid[1, 0]) != self._b1:
            self.counters.b1_errors += 1
        if self._b2 is not None and int(grid[5, 0]) != self._b2:
            self.counters.b2_errors += 1
        # Pointer interpretation.
        h1, h2 = int(grid[3, 0]), int(grid[3, n])
        pointer = ((h1 & 0x03) << 8) | h2
        if pointer > POINTER_MAX:
            self.counters.pointer_invalid += 1
            pointer = 0
        toh = self.rate.toh_columns
        poh_col = toh + pointer % self.rate.spe_columns
        if self.expected_c2 is not None and int(grid[2, poh_col]) != self.expected_c2:
            self.counters.c2_mismatches += 1
        if self._b3 is not None and int(grid[1, poh_col]) != self._b3:
            self.counters.b3_errors += 1
        payload = grid[:, payload_columns(n, poh_col)].tobytes()
        self._b1 = _bip8(grid_scrambled)
        self._b2 = _bip8(grid[3:, :])
        self._b3 = _bip8(grid[:, toh:])
        return payload
