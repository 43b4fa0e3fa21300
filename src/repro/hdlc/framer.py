"""Whole-frame HDLC encode/decode with FCS, RFC 1662 sections 3–4.

:class:`HdlcFramer` is the behavioural model of the complete TX/RX
datapath the P5 implements: on transmit it appends the FCS, applies
octet transparency and wraps the result in flags; on receive it runs
each body through the streaming receive codec
(:class:`~repro.hdlc.delineation.Delineator`) and turns its verdict
into the frame or an exception.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.crc import CRC32, CrcSpec, TableCrc
from repro.errors import (
    AbortError,
    FcsError,
    FramingError,
    OversizeFrameError,
    RuntFrameError,
)
from repro.hdlc.accm import Accm
from repro.hdlc.byte_stuffing import stuff, unstuff
from repro.hdlc.constants import FLAG_OCTET
from repro.hdlc.delineation import Delineator, ReceivePolicy
from repro.rtl.module import ChannelTiming, TimingContract

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


def _fcs_trailer(spec: CrcSpec, value: int) -> bytes:
    """Serialise an FCS value least-significant octet first (RFC 1662)."""
    return value.to_bytes(spec.width // 8, "little")


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

    The class-level :data:`TIMING_CONTRACT` is the behavioural
    counterpart of the datapath modules' ``timing_contract()``: it
    states the worst-case flow ratio (stuffing can double the body)
    and the per-frame overhead (two flags plus the widest FCS) that
    the :mod:`repro.sta` flow solver assumes of any HDLC encoder.
    """

    #: Whole-frame model: zero pipeline depth, but the same worst-case
    #: expansion the cycle-accurate escape-generate unit declares.
    TIMING_CONTRACT = TimingContract(
        latency_cycles=1,
        latency_is_bound=False,
        outputs=(ChannelTiming(max_expansion=2.0, per_frame_octets=2 + 4),),
    )

    def __init__(
        self,
        fcs_spec: CrcSpec = CRC32,
        accm: Optional[Accm] = None,
        max_content: int = ReceivePolicy.max_content,
    ) -> None:
        if fcs_spec.width not in (16, 32):
            raise ValueError(f"FCS must be 16 or 32 bits, got {fcs_spec.width}")
        self.fcs_spec = fcs_spec
        self.accm = accm
        self.max_content = max_content
        self._crc = TableCrc(fcs_spec)

    @property
    def fcs_octets(self) -> int:
        """Size of the FCS trailer in octets (2 or 4)."""
        return self.fcs_spec.width // 8

    # ---------------------------------------------------------------- encode
    def compute_fcs(self, content: bytes) -> int:
        """FCS over the unstuffed frame content (addr..information)."""
        return self._crc.crc_of(content)

    def encode(self, content: bytes, *, leading_flag: bool = True) -> bytes:
        """Build the on-wire frame: ``[7E] stuffed(content + FCS) 7E``.

        ``leading_flag=False`` supports back-to-back frames sharing a
        single flag, as RFC 1662 permits and the P5 transmitter does
        when frames are queued without idle time.
        """
        fcs = self.compute_fcs(content)
        body = stuff(content + _fcs_trailer(self.fcs_spec, fcs), self.accm)
        head = bytes([FLAG_OCTET]) if leading_flag else b""
        return head + body + bytes([FLAG_OCTET])

    def encode_stream(self, contents: List[bytes]) -> bytes:
        """Encode several frames back-to-back with shared flags."""
        out = bytearray([FLAG_OCTET])
        for content in contents:
            out += self.encode(content, leading_flag=False)
        return bytes(out)

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
