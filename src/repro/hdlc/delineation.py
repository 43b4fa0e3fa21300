"""Streaming frame delineation — the receiver's hunt/sync machine.

The whole-frame :class:`~repro.hdlc.framer.HdlcFramer` assumes it is
handed complete frames; real receivers see an unaligned octet stream
(possibly mid-frame at power-up, possibly corrupted).  The
:class:`Delineator` consumes that stream, exactly like the P5
receiver's front end consumes the PHY stream, and emits decoded frames
while accounting every discard reason in :class:`DelineatorStats` —
the counters the Protocol OAM block exposes to the host
microprocessor.  :meth:`Delineator.push` is the readable one-octet
reference; :meth:`Delineator.push_bytes` does the same with C-level
``split`` on the flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from repro.errors import (
    AbortError,
    FcsError,
    FramingError,
    OversizeFrameError,
    RuntFrameError,
)
from repro.hdlc.constants import FLAG_OCTET
from repro.hdlc.framer import DecodedFrame, HdlcFramer

_FLAG = bytes([FLAG_OCTET])

__all__ = ["Delineator", "DelineatorStats"]


@dataclass
class DelineatorStats:
    """Receive-side event counters (mirrored into the OAM register map)."""

    frames_ok: int = 0
    fcs_errors: int = 0
    aborts: int = 0
    runts: int = 0
    oversize: int = 0
    framing_errors: int = 0
    octets_in: int = 0
    octets_discarded_hunting: int = 0

    def total_errors(self) -> int:
        """All discarded-frame events combined."""
        return (
            self.fcs_errors
            + self.aborts
            + self.runts
            + self.oversize
            + self.framing_errors
        )


@dataclass
class Delineator:
    """Octet-streaming HDLC frame delineator.

    Feed octets with :meth:`push` / :meth:`push_bytes`; completed,
    FCS-verified frames are returned.  The machine starts in *hunt*
    state and discards octets until the first flag, as hardware must
    after power-up or loss of synchronisation.  The only state carried
    between calls is the open frame body; decoded frames are not kept.

    Parameters
    ----------
    framer:
        The frame codec to use (FCS width, ACCM, MRU guard).
    """

    framer: HdlcFramer = field(default_factory=HdlcFramer)
    stats: DelineatorStats = field(default_factory=DelineatorStats)

    def __post_init__(self) -> None:
        self._synced = False
        self._body = bytearray()

    @property
    def in_sync(self) -> bool:
        """Whether at least one flag has been seen (frame-aligned)."""
        return self._synced

    def push(self, octet: int) -> Optional[DecodedFrame]:
        """Consume one octet; return a frame if this octet completed one."""
        self.stats.octets_in += 1
        if not self._synced:
            if octet == FLAG_OCTET:
                self._synced = True
            else:
                self.stats.octets_discarded_hunting += 1
            return None
        if octet != FLAG_OCTET:
            self._body.append(octet)
            return None
        # Closing flag: an empty body is inter-frame idle, not a frame.
        body = bytes(self._body)
        self._body.clear()
        if not body:
            return None
        return self._finish(body)

    def _finish(self, body: bytes) -> Optional[DecodedFrame]:
        try:
            frame = self.framer.decode_body(body)
        except AbortError:
            self.stats.aborts += 1
        except FcsError:
            self.stats.fcs_errors += 1
        except RuntFrameError:
            self.stats.runts += 1
        except OversizeFrameError:
            self.stats.oversize += 1
        except FramingError:
            self.stats.framing_errors += 1
        else:
            self.stats.frames_ok += 1
            return frame
        return None

    def push_bytes(self, data: Iterable[int]) -> List[DecodedFrame]:
        """Consume a buffer; return the frames completed within it.

        Equivalent to :meth:`push` on each octet, counters included:
        the buffer is split on the flag, every piece but the last
        closes a body (the first one continuing the carried body), and
        the last piece is carried open into the next call.
        """
        data = bytes(data)
        stats = self.stats
        stats.octets_in += len(data)
        pieces = data.split(_FLAG)
        if not self._synced:
            # Everything before the first flag is hunt discard; the
            # first flag opens an empty body.
            stats.octets_discarded_hunting += len(pieces[0])
            if len(pieces) == 1:
                return []
            self._synced = True
            pieces[0] = b""
        if len(pieces) == 1:
            self._body += pieces[0]
            return []
        pieces[0] = bytes(self._body) + pieces[0]
        self._body = bytearray(pieces.pop())
        completed: List[DecodedFrame] = []
        for body in pieces:
            # An empty body is inter-frame idle, not a frame.
            if body:
                frame = self._finish(body)
                if frame is not None:
                    completed.append(frame)
        return completed

    def flush(self) -> None:
        """Drop any partial frame (e.g. on link down) and resync."""
        if self._body:
            self.stats.framing_errors += 1
            self._body.clear()
        self._synced = False
