"""Whole-frame HDLC encode/decode with FCS, RFC 1662 sections 3–4.

:class:`HdlcFramer` is the behavioural model of the complete TX/RX
datapath the P5 implements: on transmit it runs the transmit codec
(:class:`~repro.hdlc.encoder.Encoder`), which appends the FCS, applies
octet transparency and wraps the result in flags; on receive it runs
each body through the streaming receive codec
(:class:`~repro.hdlc.delineation.Delineator`) and turns its verdict
into the frame or an exception.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.crc import CRC32, CrcSpec
from repro.errors import (
    AbortError,
    FcsError,
    FramingError,
    OversizeFrameError,
    RuntFrameError,
)
from repro.hdlc.accm import Accm
from repro.hdlc.byte_stuffing import unstuff
from repro.hdlc.constants import FLAG_OCTET
from repro.hdlc.delineation import Delineator, ReceivePolicy
from repro.hdlc.encoder import Encoder, TransmitPolicy

__all__ = ["HdlcFramer", "DecodedFrame"]

_FLAG = bytes([FLAG_OCTET])

#: How :meth:`HdlcFramer.decode_body` reports each discard counter.
_COUNTED_ERRORS = (
    ("aborts", AbortError, "frame aborted: escape immediately before the closing flag"),
    ("framing_errors", FramingError, "invalid escape pair 7D 7D"),
    ("runts", RuntFrameError, "frame body cannot hold content + FCS"),
    ("oversize", OversizeFrameError, "frame exceeds the maximum receive unit"),
)


@dataclass(frozen=True)
class DecodedFrame:
    """A successfully delineated and checked frame.

    Attributes
    ----------
    content:
        The frame body with transparency removed and FCS stripped —
        for PPP this is address/control/protocol/information.
    fcs:
        The FCS value carried by the frame (already verified).
    wire_length:
        Octets consumed on the line including both flags; used by the
        efficiency analyses.
    """

    content: bytes
    fcs: int
    wire_length: int


class HdlcFramer:
    """Encode/decode HDLC-like frames with a selectable FCS.

    Parameters
    ----------
    fcs_spec:
        ``repro.crc.CRC16_X25`` (FCS-16) or ``repro.crc.CRC32``
        (FCS-32; the P5 default "for accuracy purposes").
    accm:
        Optional async control character map; ``None`` means
        octet-synchronous rules (only 0x7D/0x7E escaped).
    max_content:
        Receive guard (the :class:`~repro.hdlc.delineation.ReceivePolicy`
        drop limit): decoded content longer than this raises
        :class:`~repro.errors.OversizeFrameError`.  PPP's default MRU
        is 1500 information octets; the extra headroom covers
        address/control/protocol.
    """

    def __init__(
        self,
        fcs_spec: CrcSpec = CRC32,
        accm: Optional[Accm] = None,
        max_content: int = ReceivePolicy.max_content,
    ) -> None:
        #: The transmit codec (its policy checks the FCS width).
        self.encoder = Encoder(TransmitPolicy(fcs=fcs_spec, accm=accm.mask if accm else 0))
        self.fcs_spec = fcs_spec
        self.accm = accm
        self.max_content = max_content

    @property
    def fcs_octets(self) -> int:
        """Size of the FCS trailer in octets (2 or 4)."""
        return self.fcs_spec.width // 8

    # ---------------------------------------------------------------- encode
    def compute_fcs(self, content: bytes) -> int:
        """FCS over the unstuffed frame content (addr..information)."""
        return self.encoder.fcs_of(content)

    def encode(self, content: bytes, *, leading_flag: bool = True) -> bytes:
        """Build the on-wire frame: ``[7E] stuffed(content + FCS) 7E``.

        ``leading_flag=False`` drops the opening flag, for back-to-back
        frames that share one flag as RFC 1662 permits
        (:meth:`encode_stream`).  The P5 transmitter does not share
        flags: it wraps every frame in its own pair, ``7E 7E`` between
        frames (:meth:`~repro.hdlc.encoder.Encoder.encode_frames`).
        """
        wire = self.encoder.encode(content)
        return wire if leading_flag else wire[1:]

    def encode_stream(self, contents: List[bytes]) -> bytes:
        """Encode several frames back to back sharing one flag between
        frames: ``7E b1 7E b2 7E``."""
        return _FLAG.join([b"", *map(self.encoder.body, contents), b""])

    # ---------------------------------------------------------------- decode
    @property
    def receive_policy(self) -> ReceivePolicy:
        """The receive codec's policy for this framer: ``7D 7D`` is a
        framing error and ``max_content`` drops by decoded size."""
        return ReceivePolicy(fcs=self.fcs_spec, max_content=self.max_content)

    def decode_body(self, body: bytes, *, wire_length: Optional[int] = None) -> DecodedFrame:
        """Decode the octets *between* flags through the receive codec.

        Raises :class:`AbortError`, :class:`FramingError` (a bare flag
        or ``7D 7D``), :class:`RuntFrameError`,
        :class:`OversizeFrameError` or :class:`FcsError` — the codec's
        verdict on the body.
        """
        if _FLAG in body:
            raise FramingError("unescaped flag octet inside frame")
        rx = Delineator(self.receive_policy)
        for content, good in rx.push_bytes(_FLAG + body + _FLAG):
            computed = self.compute_fcs(content)
            if not good:
                trailer = unstuff(body, strict=False)[-self.fcs_octets :]
                raise FcsError(int.from_bytes(trailer, "little"), computed)
            return DecodedFrame(
                content=content,
                fcs=computed,
                wire_length=wire_length if wire_length is not None else len(body) + 2,
            )
        for counter, error, message in _COUNTED_ERRORS:
            if getattr(rx.stats, counter):
                raise error(message)
        raise RuntFrameError("no frame body between flags")

    def decode(self, wire: bytes) -> DecodedFrame:
        """Decode one complete frame including its delimiting flags."""
        if len(wire) < 2 or wire[0] != FLAG_OCTET or wire[-1] != FLAG_OCTET:
            raise FramingError("frame must start and end with the flag octet 0x7E")
        # Tolerate flag padding/sharing at the boundaries.
        return self.decode_body(wire[1:-1].strip(_FLAG), wire_length=len(wire))

    def decode_stream(self, wire: bytes) -> List[DecodedFrame]:
        """Split a flag-delimited stream into frames and decode each.

        Octets before the first flag are ignored and empty inter-flag
        gaps (idle flags) skipped, matching the receiver FSM's
        behaviour of treating repeated flags as one; the first bad
        body raises.
        """
        pieces = bytes(wire).split(_FLAG)
        if len(pieces) > 1 and pieces[-1]:
            raise FramingError("stream ends inside an undelimited frame")
        return [
            self.decode_body(body, wire_length=len(body) + 2)
            for body in pieces[1:-1]
            if body
        ]
