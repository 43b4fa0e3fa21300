"""PPP-over-SONET on the fast datapath (RFC 1619 / RFC 2615).

:class:`SonetFastpath` is the one PoS mapper,
:class:`~repro.sonet.path.PppOverSonet`, with both codecs' policies
taken from a :class:`~repro.fastpath.engine.FastpathEngine`; its
:meth:`~SonetFastpath.decode` reports each batch on its own through
:meth:`~repro.fastpath.engine.FastpathEngine.decode_stream`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.config import P5Config
from repro.fastpath.engine import FastpathEngine, FastpathRxResult
from repro.hdlc.delineation import Delineator
from repro.sonet.path import PppOverSonet

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


class SonetFastpath(PppOverSonet):
    """Batched PPP-over-SONET mapping under a ``P5Config``."""

    def __init__(
        self,
        n: int = 48,
        *,
        payload_scrambling: bool = True,
        config: Optional[P5Config] = None,
    ) -> None:
        super().__init__(n, payload_scrambling=payload_scrambling)
        self.engine = FastpathEngine(config)
        self.encoder = self.engine.encoder
        self.delineator = Delineator(self.engine.receive_policy)

    def decode(self, line_frames: Sequence[bytes]) -> SonetFastpathResult:
        """Recover PPP frames from SONET line bytes, in one pass."""
        payload = self.receive_payload(b"".join(line_frames))
        return SonetFastpathResult(
            line_frames=list(line_frames),
            rx=self.engine.decode_stream(payload),
        )

    def roundtrip(self, contents: Sequence[bytes]) -> SonetFastpathResult:
        """Encode a batch and decode it straight back."""
        return self.decode(self.encode(contents))
