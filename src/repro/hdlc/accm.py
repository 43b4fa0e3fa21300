"""Async-Control-Character-Map (ACCM) handling, RFC 1662 section 7.1.

On asynchronous links, octets 0x00–0x1F may be intercepted by modems
or terminal drivers, so the sender must escape any of them selected by
the negotiated 32-bit ACCM.  On octet-synchronous links such as
PPP-over-SONET the ACCM is irrelevant and defaults to zero — only the
flag and escape octets themselves are escaped, which is the case the
P5 hardware optimises.
"""

from __future__ import annotations

from typing import Iterable

from repro.hdlc.constants import ESC_OCTET, FLAG_OCTET

__all__ = ["Accm"]


class Accm:
    """A 32-bit async control character map plus the mandatory escapes.

    Bit ``n`` of ``mask`` set means octet ``n`` (0–31) must be escaped
    on transmit.  ``0x7D`` and ``0x7E`` are always escaped regardless.
    """

    #: RFC 1662 default for async links: escape all of 0x00-0x1F.
    DEFAULT_ASYNC_MASK = 0xFFFFFFFF

    #: Octet-synchronous (e.g. SONET) default: no control chars escaped.
    DEFAULT_SYNC_MASK = 0x00000000

    def __init__(self, mask: int = DEFAULT_SYNC_MASK) -> None:
        if mask & ~0xFFFFFFFF:
            raise ValueError(f"ACCM mask must fit in 32 bits, got 0x{mask:X}")
        self.mask = mask

    @classmethod
    def for_async(cls) -> "Accm":
        """The RFC default map for asynchronous (dial-up style) links."""
        return cls(cls.DEFAULT_ASYNC_MASK)

    @classmethod
    def from_octets(cls, octets: Iterable[int]) -> "Accm":
        """Build a map escaping exactly the given control octets (< 32)."""
        mask = 0
        for octet in octets:
            if not 0 <= octet < 32:
                raise ValueError(f"ACCM only covers octets 0..31, got {octet}")
            mask |= 1 << octet
        return cls(mask)

    def must_escape(self, octet: int) -> bool:
        """Whether ``octet`` requires transparency processing on TX."""
        if octet in (FLAG_OCTET, ESC_OCTET):
            return True
        return octet < 32 and bool((self.mask >> octet) & 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Accm(mask=0x{self.mask:08X})"
