"""The RFC 1662 transmit codec: FCS trailer, octet stuffing, flags.

The paper's transmitter is one pipeline — CRC Generate, Escape
Generate, flag insertion — and :class:`Encoder` is that pipeline at
frame level, the one frame-level transmitter: ``HdlcFramer``,
:func:`stuff`, the fastpath engine and PPP over SONET all run it.
Where they want different values, a :class:`TransmitPolicy` names
them, as :class:`~repro.hdlc.delineation.ReceivePolicy` does on
receive.  ``byte_stuffing._stuff_scalar`` is the per-octet reference
the tests hold the stuffing kernels to.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import FrozenSet, Optional, Sequence

from repro.crc import CRC32, CrcSpec
from repro.crc.table import TableCrc
from repro.hdlc.accm import Accm
from repro.hdlc.byte_stuffing import check_framing_octets, escape_octets
from repro.hdlc.constants import ESCAPE_XOR, ESC_OCTET, FLAG_OCTET

__all__ = ["TransmitPolicy", "Encoder", "stuff", "escape_set", "stuffed_length"]


@dataclass(frozen=True)
class TransmitPolicy:
    """The transmit choices on which the codec's callers differ.

    The defaults are octet-synchronous RFC 1662 with FCS-32; the
    fastpath sets every field from its ``P5Config`` to mirror the
    cycle transmitter.

    Attributes
    ----------
    fcs:
        The FCS appended to every frame (16 or 32 bits).
    accm:
        Async control character map (RFC 1662 section 7.1): bit ``n``
        set escapes octet ``n`` (0-31).
    flag_octet, esc_octet:
        The framing octets (programmable in ``P5Config``).
    """

    fcs: CrcSpec = CRC32
    accm: int = 0
    flag_octet: int = FLAG_OCTET
    esc_octet: int = ESC_OCTET

    def __post_init__(self) -> None:
        if self.fcs.width not in (16, 32):
            raise ValueError(f"FCS must be 16 or 32 bits, got {self.fcs.width}")
        if self.accm & ~0xFFFFFFFF:
            raise ValueError(f"ACCM mask must fit in 32 bits, got 0x{self.accm:X}")
        check_framing_octets(self.flag_octet, self.esc_octet)

    @property
    def escape_octets(self) -> FrozenSet[int]:
        """Every octet sent escaped: the flag, the escape and the ACCM's picks."""
        return escape_octets(self.accm, self.flag_octet, self.esc_octet)


class Encoder:
    """Frame-level HDLC transmit codec under one :class:`TransmitPolicy`.

    Stateless: one encoder serves any number of frames and batches.
    The stuffing kernel is a ``bytes.replace`` chain when the policy
    makes it exact and one regex pass otherwise, chosen at construction.
    """

    def __init__(self, policy: TransmitPolicy = TransmitPolicy()) -> None:
        self.policy = policy
        #: The published FCS of one frame's content: the CRC engine's
        #: one-shot kernel, :func:`zlib.crc32` itself for FCS-32.
        self.fcs_of = TableCrc(policy.fcs).crc_of
        self._fcs_octets = policy.fcs.width // 8
        self._flag = bytes([policy.flag_octet])
        esc = policy.esc_octet
        escapes = policy.escape_octets
        # (octet, escaped form), the escape octet first so no later
        # pass re-escapes an escape an earlier one inserted.
        self._pairs = tuple(
            (bytes([v]), bytes([esc, v ^ ESCAPE_XOR]))
            for v in [esc] + sorted(escapes - {esc})
        )
        # The chain is exact only when no escaped form's second octet
        # is itself escapable, so no pass matches what an earlier one
        # wrote: true for any ACCM over the default framing octets.
        self._escape_re: Optional[re.Pattern] = None
        if any(v ^ ESCAPE_XOR in escapes for v in escapes):
            self._escaped = dict(self._pairs)
            self._escape_re = re.compile(
                b"[" + b"".join(re.escape(octet) for octet, _ in self._pairs) + b"]"
            )

    def stuff(self, data: bytes) -> bytes:
        """RFC 1662 stuffing: each escapable octet ``c`` becomes ``ESC, c ^ 0x20``."""
        if self._escape_re is not None:
            return self._escape_re.sub(lambda m: self._escaped[m.group()], data)
        for octet, escaped in self._pairs:
            data = data.replace(octet, escaped)
        return data

    def body(self, content: bytes) -> bytes:
        """One frame between its flags: ``content + FCS``, stuffed."""
        return self.stuff(content + self.fcs_of(content).to_bytes(self._fcs_octets, "little"))

    def encode(self, content: bytes) -> bytes:
        """One frame on the wire: ``7E body 7E``."""
        return self._flag + self.body(content) + self._flag

    def encode_frames(self, contents: Sequence[bytes]) -> bytes:
        """A batch in the cycle transmitter's line format.

        Each frame is wrapped in its own pair of flags and the frames
        follow back to back, ``7E b1 7E 7E b2 7E``, octet for octet
        what the cycle-accurate transmitter puts on the PHY for the
        same submissions.  Like that transmitter it cannot send an
        empty frame.
        """
        if not all(contents):
            raise ValueError("cannot transmit an empty frame")
        if not contents:
            return b""
        flag = self._flag
        between = flag + flag
        # One list and one join: a per-frame tuple, or a join wrapped
        # in flag concatenations, measured slower on IMIX batches.
        wire = [flag]
        for content in contents:
            wire.append(self.body(content))
            wire.append(between)
        wire[-1] = flag
        return b"".join(wire)


@lru_cache(maxsize=32)
def _encoder(accm: int) -> Encoder:
    return Encoder(TransmitPolicy(accm=accm))


def stuff(data: bytes, accm: Optional[Accm] = None) -> bytes:
    """Apply octet transparency: escape flags, escapes and ACCM octets.

    ``0x7E`` becomes ``0x7D 0x5E``, ``0x7D`` becomes ``0x7D 0x5D``, and
    any ACCM-selected control octet ``c`` becomes ``0x7D, c ^ 0x20``:
    :meth:`Encoder.stuff` under the default policy with ``accm``'s map.
    """
    return _encoder(accm.mask if accm else 0).stuff(bytes(data))


def escape_set(accm: Optional[Accm] = None) -> FrozenSet[int]:
    """The set of octet values that must be escaped on transmit."""
    return _encoder(accm.mask if accm else 0).policy.escape_octets


def stuffed_length(data: bytes, accm: Optional[Accm] = None) -> int:
    """Length of ``stuff(data)`` without materialising it.

    Every escapable octet costs exactly one extra octet, so this is
    ``len(data) + count(escapable)`` — the quantity the paper's
    resynchronisation buffer has to absorb.
    """
    return len(data) + sum(map(bytes(data).count, escape_set(accm)))
