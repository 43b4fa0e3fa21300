"""GFP frame construction (G.7041 sections 6.1-6.2, essentials).

Frame layout::

    PLI (2)   — payload length indicator (length of the payload area)
    cHEC (2)  — CRC-16 over the PLI, XORed with the Barker-like word
    ---- payload area (PLI bytes) ----
    Type (2)  — PTI/PFI/EXI/UPI
    tHEC (2)  — CRC-16 over the Type field
    payload   — the client PDU (a PPP frame, an Ethernet frame, ...)
    pFCS (4)  — optional CRC-32 over the payload (present iff PFI set)

The core header (PLI + cHEC) is additionally XORed with the
``B6 AB 31 E0`` word so an all-zero line does not look like endless
idle frames.  Idle frames are 4 bytes: PLI = 0 with a valid cHEC.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.crc import CRC16_XMODEM, CRC32, TableCrc
from repro.errors import FcsError, FramingError

__all__ = [
    "GfpType",
    "GfpFrame",
    "core_header",
    "idle_frame",
    "hec",
    "CORE_SCRAMBLE",
    "CORE_SCRAMBLE_WORD",
]

#: The core-header scramble word (G.7041 §6.1.2.2).
CORE_SCRAMBLE = bytes([0xB6, 0xAB, 0x31, 0xE0])
#: The same word as one 32-bit int, MSB first.
CORE_SCRAMBLE_WORD = int.from_bytes(CORE_SCRAMBLE, "big")

#: Payload-type identifier for client data with / without payload FCS.
_PTI_CLIENT_DATA = 0b000


class GfpType(enum.IntEnum):
    """UPI values (user payload identifiers) this model uses."""

    PPP = 0x06          # G.7041: frame-mapped PPP
    ETHERNET = 0x01


#: Stateless one-shot kernels of module-level engines: the HEC
#: (cHEC/tHEC, also used by the delineator) and the payload FCS.
hec = TableCrc(CRC16_XMODEM).crc_of
_crc32 = TableCrc(CRC32).crc_of


def core_header(pli: int) -> bytes:
    """Build the 4-byte scrambled core header for payload length ``pli``."""
    if not 0 <= pli <= 0xFFFF:
        raise ValueError("PLI is a 16-bit length")
    header = (pli << 16) | hec(pli.to_bytes(2, "big"))
    return (header ^ CORE_SCRAMBLE_WORD).to_bytes(4, "big")


def idle_frame() -> bytes:
    """The 4-byte GFP idle frame (PLI = 0)."""
    return core_header(0)


@dataclass(frozen=True)
class GfpFrame:
    """One GFP client frame."""

    payload: bytes
    upi: int = GfpType.PPP
    with_pfcs: bool = True

    @property
    def type_field(self) -> int:
        pfi = 1 if self.with_pfcs else 0
        return (_PTI_CLIENT_DATA << 13) | (pfi << 12) | (self.upi & 0xFF)

    def encode(self) -> bytes:
        """Serialise to wire bytes (core header + payload area)."""
        type_bytes = self.type_field.to_bytes(2, "big")
        area = type_bytes + hec(type_bytes).to_bytes(2, "big") + self.payload
        if self.with_pfcs:
            area += _crc32(self.payload).to_bytes(4, "big")
        return core_header(len(area)) + area

    @classmethod
    def decode_payload_area(cls, area: bytes) -> "GfpFrame":
        """Parse a payload area (the delineator supplies whole areas)."""
        if len(area) < 4:
            raise FramingError("GFP payload area shorter than its header")
        type_field = int.from_bytes(area[0:2], "big")
        thec = int.from_bytes(area[2:4], "big")
        if hec(area[0:2]) != thec:
            raise FcsError(thec, hec(area[0:2]), "GFP tHEC failed")
        pfi = (type_field >> 12) & 1
        upi = type_field & 0xFF
        body = area[4:]
        if pfi:
            if len(body) < 4:
                raise FramingError("GFP frame too short for its pFCS")
            payload, trailer = body[:-4], body[-4:]
            carried = int.from_bytes(trailer, "big")
            computed = _crc32(payload)
            if carried != computed:
                raise FcsError(carried, computed, "GFP pFCS failed")
        else:
            payload = body
        return cls(payload=payload, upi=upi, with_pfcs=bool(pfi))

    @property
    def wire_length(self) -> int:
        """Total wire bytes: constant 8 (+4 with pFCS) of overhead."""
        return 4 + 4 + len(self.payload) + (4 if self.with_pfcs else 0)
