"""The frame-level fast datapath engine: the cycle model's config bound
to the frame-level codecs.

Everything the cycle-accurate P5 does to a frame — FCS generation,
octet stuffing, flag wrapping, delineation, destuffing, FCS checking —
is done by the two :mod:`repro.hdlc` codecs with C-level ``bytes``
operations.  :class:`FastpathEngine` holds no codec code of its own:
from one ``P5Config`` it sets a
:class:`~repro.hdlc.encoder.TransmitPolicy` for the
:class:`~repro.hdlc.encoder.Encoder` and a
:class:`~repro.hdlc.delineation.ReceivePolicy` for the
:class:`~repro.hdlc.delineation.Delineator` that mirror the cycle
model, and it reports in the cycle model's counter names.

The engine mirrors the cycle model's observable behaviour: identical
line bytes on TX, and on RX identical frame verdicts plus the OAM
counter set (aborts, oversize cuts, runts, hunt discards, escapes
deleted, empty bodies).  The
:class:`~repro.fastpath.differential.DifferentialHarness` asserts this
equivalence run by run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.config import P5Config
from repro.hdlc.delineation import Delineator, DelineatorStats, ReceivePolicy
from repro.hdlc.encoder import Encoder, TransmitPolicy

__all__ = ["FastpathEngine", "FastpathTxResult", "FastpathRxResult"]


@dataclass(frozen=True)
class FastpathTxResult:
    """One encoded batch: the wire stream plus TX-side OAM counters."""

    line: bytes
    frames: int
    content_octets: int
    octets_escaped: int

    @property
    def line_octets(self) -> int:
        return len(self.line)


@dataclass
class FastpathRxResult:
    """One decoded stream: frames with verdicts plus RX-side counters.

    The counters carry the same meaning as the cycle model's OAM
    registers (:mod:`repro.core.oam`): ``frames_ok`` / ``fcs_errors`` /
    ``runt_frames`` mirror ``CrcCheck``, ``aborts`` / ``oversize_drops``
    / ``empty_bodies`` / ``octets_discarded_hunting`` mirror
    ``WordDelineator``, and ``octets_deleted`` mirrors the Escape
    Detect unit.
    """

    frames: List[Tuple[bytes, bool]] = field(default_factory=list)
    frames_ok: int = 0
    fcs_errors: int = 0
    runt_frames: int = 0
    aborts: int = 0
    oversize_drops: int = 0
    empty_bodies: int = 0
    octets_discarded_hunting: int = 0
    octets_deleted: int = 0
    #: Octets after the final flag — an open frame the cycle model
    #: would still be holding in its delineation carry.
    open_tail_octets: int = 0

    def good_frames(self) -> List[bytes]:
        """Contents of frames that passed the FCS check."""
        return [content for content, good in self.frames if good]

    @classmethod
    def from_stats(
        cls,
        frames: List[Tuple[bytes, bool]],
        stats: DelineatorStats,
        open_tail_octets: int = 0,
    ) -> "FastpathRxResult":
        """The receive codec's counters under the cycle model's names."""
        return cls(
            frames=frames,
            frames_ok=stats.frames_ok,
            fcs_errors=stats.fcs_errors,
            runt_frames=stats.runts,
            aborts=stats.aborts,
            oversize_drops=stats.oversize,
            empty_bodies=stats.empty_bodies,
            octets_discarded_hunting=stats.octets_discarded_hunting,
            octets_deleted=stats.octets_deleted,
            open_tail_octets=open_tail_octets,
        )


class FastpathEngine:
    """Frame-level TX/RX datapath sharing the cycle model's config.

    One engine instance is stateless between calls (unlike the cycle
    pipelines there are no carries to drain), so a single engine can
    serve any number of independent encode/decode batches.
    """

    def __init__(self, config: Optional[P5Config] = None) -> None:
        self.config = config or P5Config()
        config = self.config
        self.fcs_octets = config.fcs.width // 8
        #: The cycle receiver's choices: 7D 7D decodes by run parity
        #: and the FCS decides; oversize bodies are cut, not dropped.
        self.receive_policy = ReceivePolicy(
            fcs=config.fcs,
            reject_escape_pairs=False,
            max_frame_octets=config.max_frame_octets,
            max_content=0,
            flag_octet=config.flag_octet,
            esc_octet=config.esc_octet,
        )
        self.encoder = Encoder(
            TransmitPolicy(
                fcs=config.fcs,
                accm=config.accm_mask,
                flag_octet=config.flag_octet,
                esc_octet=config.esc_octet,
            )
        )

    # ------------------------------------------------------------------- CRC
    def fcs_of(self, content: bytes) -> int:
        """The published FCS of one frame's content."""
        return self.encoder.fcs_of(content)

    # -------------------------------------------------------------------- TX
    def encode_frame(self, content: bytes) -> bytes:
        """One frame's wire bytes: ``7E <stuffed content+FCS> 7E``."""
        return self.encoder.encode_frames([content])

    def encode_frames(self, contents: Sequence[bytes]) -> FastpathTxResult:
        """Encode a whole batch of frames into one wire byte stream.

        The line is what the cycle-accurate transmitter puts on the PHY
        for the same submissions (see
        :meth:`~repro.hdlc.encoder.Encoder.encode_frames`); the escape
        count is the growth the stuffing caused.
        """
        line = self.encoder.encode_frames(contents)
        frames = len(contents)
        content_octets = sum(map(len, contents))
        return FastpathTxResult(
            line=line,
            frames=frames,
            content_octets=content_octets,
            octets_escaped=len(line) - frames * (2 + self.fcs_octets) - content_octets,
        )

    # -------------------------------------------------------------------- RX
    def decode_stream(self, line: bytes) -> FastpathRxResult:
        """Delineate, destuff and FCS-check a wire byte stream.

        Mirrors the cycle receiver's error handling: octets before the
        first flag are hunt discards, a body ending in the escape octet
        is the RFC 1662 abort sequence, a body longer than
        ``max_frame_octets`` is cut at the same octet the cycle
        delineator cuts it — and, exactly like the cycle model, the cut
        prefix is force-closed as a frame of its own (destuffed and
        FCS-checked; the remainder counts as hunt discards) — and a
        destuffed frame no larger than the FCS is a silently swallowed
        runt.  Each call starts a fresh receiver.  Octets after the
        final flag that are still within the cut limit are reported as
        the open tail, not decoded; a longer tail is cut like any
        other body.
        """
        rx = Delineator(self.receive_policy)
        frames = rx.push_bytes(line)
        # The open frame without its opening flag (empty once a cut
        # has left the receiver hunting).
        return FastpathRxResult.from_stats(frames, rx.stats, len(rx.open_frame()[1:]))

    # -------------------------------------------------------------- loopback
    def loopback(
        self, contents: Sequence[bytes]
    ) -> Tuple[FastpathTxResult, FastpathRxResult]:
        """Encode a batch and decode it straight back (clean wire)."""
        tx = self.encode_frames(contents)
        return tx, self.decode_stream(tx.line)
