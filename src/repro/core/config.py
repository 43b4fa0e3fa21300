"""P5 system configuration — the programmable parameters.

The paper stresses *programmability*: the address field is
programmable (MAPOS compatibility), the FCS is selectable, and the
datapath width distinguishes the 625 Mbps (8-bit) from the 2.5 Gbps
(32-bit) instantiation.  :class:`P5Config` gathers every such knob;
the OAM register map exposes them to the host.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet

from repro.crc import CRC32, CrcSpec
from repro.errors import ConfigError
from repro.hdlc.byte_stuffing import check_framing_octets, escape_octets
from repro.hdlc.constants import DEFAULT_ADDRESS, ESC_OCTET, FLAG_OCTET

__all__ = ["P5Config"]

#: The paper's system clock: 2.5 Gbps / 32 bits = 78.125 MHz.
LINE_CLOCK_HZ = 78.125e6


@dataclass(frozen=True)
class P5Config:
    """Static configuration of one P5 instance.

    Attributes
    ----------
    width_bits:
        Datapath width: 8 (the commercial-baseline system) or 32 (the
        paper's gigabit design).  16 and 64 are accepted for the
        scaling ablations.
    fcs:
        FCS specification; CRC-32 is the paper's default "for
        accuracy purposes", CRC-16 remains programmable.
    address:
        Programmable HDLC address octet (0xFF = all-stations PPP;
        other values for MAPOS).
    accm_mask:
        Extra control octets to escape (0 on SONET links).
    resync_depth_words:
        Depth of the escape pipeline's resynchronisation buffer in
        datapath words.  The paper's claim is that a very small value
        suffices; 3 words (the structural minimum: one worst-case
        expansion job) is the default the A2 ablation validates.
    max_frame_octets:
        Oversize cut-off for the receive delineator, in frame-body
        octets on the wire.  A frame whose body exceeds this bound
        (the signature of a corrupted-away closing flag merging two
        frames) is dropped with an ``RX_OVERSIZE`` count and the
        delineator re-hunts to the next flag.  ``0`` (the default)
        disables the check.
    clock_hz:
        System clock for latency/throughput conversions (78.125 MHz
        gives the paper's 2.5 Gbps at 32 bits/cycle).
    """

    width_bits: int = 32
    fcs: CrcSpec = CRC32
    address: int = DEFAULT_ADDRESS
    accm_mask: int = 0
    resync_depth_words: int = 3
    max_frame_octets: int = 0
    clock_hz: float = LINE_CLOCK_HZ
    #: Programmable framing octets (HDLC defaults).  Exotic values
    #: support non-standard delineation experiments — the follow-on
    #: "programmable frame delineation" work of the same authors.
    flag_octet: int = FLAG_OCTET
    esc_octet: int = ESC_OCTET

    def __post_init__(self) -> None:
        if self.width_bits not in (8, 16, 32, 64):
            raise ConfigError(f"unsupported datapath width {self.width_bits}")
        if self.fcs.width not in (16, 32):
            raise ConfigError(f"FCS must be 16 or 32 bits, got {self.fcs.width}")
        if not 0 <= self.address <= 0xFF:
            raise ConfigError(f"address octet out of range: {self.address}")
        if self.accm_mask & ~0xFFFFFFFF:
            raise ConfigError("ACCM mask must fit in 32 bits")
        if self.resync_depth_words < 3:
            raise ConfigError(
                "resync buffer must hold at least 3 words (one worst-case job)"
            )
        if self.max_frame_octets and self.max_frame_octets < 4 * self.width_bytes:
            raise ConfigError(
                "max_frame_octets must be 0 (unbounded) or at least four "
                "datapath words (the delineator's oversize cut assumes a "
                "frame spans multiple words)"
            )
        if self.clock_hz <= 0:
            raise ConfigError("clock must be positive")
        for name, octet in (("flag_octet", self.flag_octet), ("esc_octet", self.esc_octet)):
            if not 0 <= octet <= 0xFF:
                raise ConfigError(f"{name} out of range: {octet}")
        try:
            check_framing_octets(self.flag_octet, self.esc_octet)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    @property
    def width_bytes(self) -> int:
        """Datapath width in byte lanes."""
        return self.width_bits // 8

    @property
    def escape_octets(self) -> FrozenSet[int]:
        """The programmable escape set: flag, escape, plus ACCM picks."""
        return escape_octets(self.accm_mask, self.flag_octet, self.esc_octet)

    @property
    def line_rate_bps(self) -> float:
        """Nominal full-rate line throughput: width x clock."""
        return self.width_bits * self.clock_hz

    @classmethod
    def eight_bit(cls, **overrides) -> "P5Config":
        """The 625 Mbps baseline configuration."""
        return cls(width_bits=8, **overrides)

    @classmethod
    def thirty_two_bit(cls, **overrides) -> "P5Config":
        """The 2.5 Gbps paper configuration."""
        return cls(width_bits=32, **overrides)

    def describe(self) -> str:
        """One-line summary for reports."""
        return (
            f"P5/{self.width_bits}-bit @ {self.clock_hz / 1e6:.3f} MHz "
            f"({self.line_rate_bps / 1e9:.3f} Gbps line rate), "
            f"FCS-{self.fcs.width}, address 0x{self.address:02X}, "
            f"resync {self.resync_depth_words} words"
        )
