"""PPP-over-SONET on the fast datapath (RFC 1619 / RFC 2615).

The behavioural :class:`~repro.sonet.path.PppOverSonet` pulls queued
HDLC frames into 125 µs payloads one frame at a time and delineates
the receive side octet by octet.  This mapper does the same
transformation in bulk: one batched
:meth:`~repro.fastpath.engine.FastpathEngine.encode_frames` call
produces the whole HDLC stream, flag fill pads it to a whole number of
SPE payloads, the x^43+1 scrambler runs over the full payload block as
one integer, and the receive side descrambles and decodes the entire
stream in one :meth:`~repro.fastpath.engine.FastpathEngine.
decode_stream` pass.

Like :class:`~repro.sonet.path.PppOverSonet`, the path keeps one
scrambler per direction for its lifetime, so successive batches form
one continuous RFC 2615 stream that any receiver, fastpath or
behavioural, descrambles across batch boundaries.

The SONET transport overhead itself is the behavioural path's
:class:`~repro.sonet.framer.SonetFramer`: one numpy grid per frame
over cached column geometry, frame-sync scrambled by a single XOR.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.config import P5Config
from repro.fastpath.engine import FastpathEngine, FastpathRxResult
from repro.sonet.constants import SONET_C2_PPP, SONET_C2_PPP_SCRAMBLED
from repro.sonet.framer import SonetFramer
from repro.sonet.rx_framer import SonetRxFramer
from repro.sonet.scrambler import SelfSyncScrambler

__all__ = ["SonetFastpath", "SonetFastpathResult"]


@dataclass
class SonetFastpathResult:
    """Outcome of one batched SONET round trip."""

    line_frames: List[bytes]
    rx: FastpathRxResult

    @property
    def recovered(self) -> List[bytes]:
        """Good PPP frame contents, in order."""
        return self.rx.good_frames()


class SonetFastpath:
    """Batched PPP-over-SONET mapping on the fastpath engine."""

    def __init__(
        self,
        n: int = 48,
        *,
        payload_scrambling: bool = True,
        config: Optional[P5Config] = None,
    ) -> None:
        c2 = SONET_C2_PPP_SCRAMBLED if payload_scrambling else SONET_C2_PPP
        self.n = n
        self.payload_scrambling = payload_scrambling
        self.engine = FastpathEngine(config)
        self.framer = SonetFramer(n, c2=c2)
        self.rx_framer = SonetRxFramer(n, expected_c2=c2)
        self._tx_scrambler = SelfSyncScrambler()
        self._rx_scrambler = SelfSyncScrambler()

    # --------------------------------------------------------------- TX side
    def encode(self, contents: Sequence[bytes]) -> List[bytes]:
        """Map a batch of PPP frames into complete SONET line frames.

        The HDLC stream is produced in one batched pass, padded with
        flag octets to a whole number of SPE payloads (the POS idle
        pattern), scrambled, and cut into 125 µs frames.
        """
        flag = self.engine.config.flag_octet
        stream = self.engine.encode_frames(contents).line
        need = self.framer.payload_bytes_per_frame
        remainder = len(stream) % need
        if remainder or not stream:
            stream += bytes([flag]) * (need - remainder)
        if self.payload_scrambling:
            stream = self._tx_scrambler.scramble(stream)
        return [
            self.framer.build(stream[off : off + need])
            for off in range(0, len(stream), need)
        ]

    # --------------------------------------------------------------- RX side
    def decode(self, line_frames: Sequence[bytes]) -> SonetFastpathResult:
        """Recover PPP frames from SONET line bytes, in one pass."""
        payload = self.rx_framer.feed(b"".join(line_frames))
        if self.payload_scrambling and payload:
            payload = self._rx_scrambler.descramble(payload)
        return SonetFastpathResult(
            line_frames=list(line_frames),
            rx=self.engine.decode_stream(payload),
        )

    def roundtrip(self, contents: Sequence[bytes]) -> SonetFastpathResult:
        """Encode a batch and decode it straight back."""
        return self.decode(self.encode(contents))
