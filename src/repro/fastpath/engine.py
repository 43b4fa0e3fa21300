"""The frame-level fast datapath engine.

Everything the cycle-accurate P5 does to a frame — FCS generation,
octet stuffing, flag wrapping, delineation, destuffing, FCS checking —
expressed as C-level ``bytes`` operations, a handful per frame rather
than any per-octet Python:

* **TX** — each frame's body (content plus an FCS from
  :class:`~repro.crc.table.TableCrc`, which runs FCS-32 on
  :func:`zlib.crc32`) is stuffed by a chain of
  ``bytes.replace`` calls, escape octet first, and the whole batch is
  joined with its flags in one ``b"".join``.
* **RX** — the wire stream goes through the streaming receive codec
  :class:`~repro.hdlc.delineation.Delineator` under a
  :class:`~repro.hdlc.delineation.ReceivePolicy` set from the config
  to mirror the cycle receiver: run-parity decoding of ``7D 7D``
  (the FCS decides) and the ``max_frame_octets`` cut.  The codec
  splits on the flag, destuffs each body with the inverse ``replace``
  chain (an escape-count check sends anything else to the run-parity
  fallback, which reproduces the cycle model's
  :func:`~repro.core.escape_det.contract_word`) and residue-checks it
  with the same CRC kernel.

The engine mirrors the cycle model's observable behaviour: identical
line bytes on TX, and on RX identical frame verdicts plus the OAM
counter set (aborts, oversize cuts, runts, hunt discards, escapes
deleted, empty bodies).  The
:class:`~repro.fastpath.differential.DifferentialHarness` asserts this
equivalence run by run.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.config import P5Config
from repro.crc.table import TableCrc
from repro.hdlc.constants import ESCAPE_XOR
from repro.hdlc.delineation import Delineator, DelineatorStats, ReceivePolicy
from repro.rtl.module import ChannelTiming, TimingContract

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

    #: Same declaration shape as the behavioural framers: stuffing can
    #: at worst double the stream, and each frame adds two flags on
    #: top of its FCS trailer.  Consumed by :mod:`repro.sta` through
    #: the adapter modules in :mod:`repro.fastpath.modules`.
    TIMING_CONTRACT = TimingContract(
        latency_cycles=1,
        latency_is_bound=False,
        outputs=(ChannelTiming(max_expansion=2.0, per_frame_octets=2 + 4),),
    )

    def __init__(self, config: Optional[P5Config] = None) -> None:
        self.config = config or P5Config()
        spec = self.config.fcs
        self.fcs_octets = spec.width // 8
        # The CRC engine's one-shot kernel, bound once: zlib.crc32
        # itself for FCS-32.
        self._fcs = TableCrc(spec).crc_of
        #: The cycle receiver's choices: 7D 7D decodes by run parity
        #: and the FCS decides; oversize bodies are cut, not dropped.
        self.receive_policy = ReceivePolicy(
            fcs=spec,
            reject_escape_pairs=False,
            max_frame_octets=self.config.max_frame_octets,
            max_content=0,
            flag_octet=self.config.flag_octet,
            esc_octet=self.config.esc_octet,
        )
        self._flag = bytes([self.config.flag_octet])
        self._esc = bytes([self.config.esc_octet])
        # Stuffing pairs (octet, escaped form), the escape octet first
        # so no later pass re-escapes an escape it inserted.
        escapes = self.config.escape_octets
        others = sorted(escapes - {self.config.esc_octet})
        pairs = [
            (bytes([v]), self._esc + bytes([v ^ ESCAPE_XOR]))
            for v in [self.config.esc_octet] + others
        ]
        # A replace chain is exact only when no escaped form's second
        # octet is itself an escape octet: then no pass can match what
        # an earlier pass wrote.  True for the default set and for any
        # ACCM over the default flag and escape; any other set stuffs
        # through one regex pass.
        chain_ok = all(v ^ ESCAPE_XOR not in escapes for v in escapes)
        self._stuff_pairs = pairs if chain_ok else None
        self._escaped = dict(pairs)
        self._escape_re = re.compile(
            b"[" + b"".join(re.escape(octet) for octet, _ in pairs) + b"]"
        )

    # ------------------------------------------------------------------- CRC
    def fcs_of(self, content: bytes) -> int:
        """The published FCS of one frame's content."""
        return self._fcs(content)

    # -------------------------------------------------------------------- TX
    def encode_frame(self, content: bytes) -> bytes:
        """One frame's wire bytes: ``7E <stuffed content+FCS> 7E``."""
        return self.encode_frames([content]).line

    def encode_frames(self, contents: Sequence[bytes]) -> FastpathTxResult:
        """Encode a whole batch of frames into one wire byte stream.

        The output is bit-identical to what the cycle-accurate
        transmitter puts on the PHY for the same submissions: each
        frame individually wrapped in flags, frames back to back.
        Each body (content + FCS trailer) is stuffed on its own; the
        escape count is the growth the stuffing caused.
        """
        if not contents:
            return FastpathTxResult(
                line=b"", frames=0, content_octets=0, octets_escaped=0
            )
        fcs_octets = self.fcs_octets
        flag = self._flag
        between = flag + flag
        wire: List[bytes] = [flag]
        content_octets = 0
        for content in contents:
            if not content:
                raise ValueError("cannot transmit an empty frame")
            content_octets += len(content)
            body = content + self.fcs_of(content).to_bytes(fcs_octets, "little")
            wire.append(self._stuff(body))
            wire.append(between)
        wire[-1] = flag
        line = b"".join(wire)
        fcs_total = fcs_octets * len(contents)
        return FastpathTxResult(
            line=line,
            frames=len(contents),
            content_octets=content_octets,
            octets_escaped=len(line) - 2 * len(contents) - content_octets - fcs_total,
        )

    def _stuff(self, body: bytes) -> bytes:
        """RFC 1662 octet stuffing of one body."""
        if self._stuff_pairs is None:
            return self._escape_re.sub(lambda m: self._escaped[m.group()], body)
        for octet, escaped in self._stuff_pairs:
            body = body.replace(octet, escaped)
        return body

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
        runt.  Each call starts a fresh receiver; octets after the
        final flag are reported as the open tail, not decoded.
        """
        line = bytes(line)
        last = line.rfind(self._flag)
        rx = Delineator(self.receive_policy)
        frames = rx.push_bytes(line[: last + 1] if last >= 0 else line)
        open_tail = len(line) - last - 1 if last >= 0 else 0
        return FastpathRxResult.from_stats(frames, rx.stats, open_tail)

    # -------------------------------------------------------------- loopback
    def loopback(
        self, contents: Sequence[bytes]
    ) -> Tuple[FastpathTxResult, FastpathRxResult]:
        """Encode a batch and decode it straight back (clean wire)."""
        tx = self.encode_frames(contents)
        return tx, self.decode_stream(tx.line)
