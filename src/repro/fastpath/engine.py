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
* **RX** — the wire stream is delineated with ``find``/``rfind``/
  ``split`` on the flag; each body is destuffed by the inverse
  ``replace`` chain, accepted only when it deleted exactly one octet
  per escape, and residue-checked with the same CRC kernel.  Input the
  chain cannot decode exactly (non-conforming ``7D 7D`` chains, an
  escape before an octet that never needed one) falls back to the
  run-parity kernel :meth:`FastpathEngine._destuff`, which reproduces
  the cycle model's :func:`~repro.core.escape_det.contract_word`
  semantics and is the one exact reference.

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

import numpy as np

from repro.core.config import P5Config
from repro.crc.table import TableCrc
from repro.hdlc.constants import ESCAPE_XOR
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
        # itself for FCS-32.  A good frame's CRC over content + FCS is
        # the magic residue with xorout applied.
        self._fcs = TableCrc(spec).crc_of
        self._good_crc = spec.residue ^ spec.xorout
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
        # through one regex pass and destuffs through ``_destuff``.
        chain_ok = all(v ^ ESCAPE_XOR not in escapes for v in escapes)
        self._stuff_pairs = pairs if chain_ok else None
        self._unstuff_pairs = (
            [(escaped, octet) for octet, escaped in reversed(pairs)]
            if chain_ok
            else None
        )
        self._escaped = dict(pairs)
        self._escape_re = re.compile(
            b"[" + b"".join(re.escape(octet) for octet, _ in pairs) + b"]"
        )

    # ------------------------------------------------------------------- CRC
    def fcs_of(self, content: bytes) -> int:
        """The published FCS of one frame's content."""
        return self._fcs(content)

    def _residue_ok(self, clear: bytes) -> bool:
        """Magic-residue test over content + transmitted FCS."""
        return self._fcs(clear) == self._good_crc

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
        runt.
        """
        result = FastpathRxResult()
        line = bytes(line)
        flag = self._flag
        first = line.find(flag)
        if first < 0:
            result.octets_discarded_hunting = len(line)
            return result
        last = line.rfind(flag)
        result.octets_discarded_hunting = first
        result.open_tail_octets = len(line) - last - 1
        if first == last:
            return result
        # Bodies are the (possibly empty) spans between adjacent flags.
        bodies = line[first + 1 : last].split(flag)
        result.empty_bodies = bodies.count(b"")
        max_body = self.config.max_frame_octets
        fcs_octets = self.fcs_octets
        esc_octet = self.config.esc_octet
        for body in filter(None, bodies):
            if max_body and len(body) > max_body:
                # The cycle delineator cuts on the (max+1)-th body
                # octet, force-closes the already-shipped prefix as a
                # frame (the cut always lies past the held-back window
                # because max_frame_octets >= 4 words), and re-hunts;
                # the rest of the body is noise.  No abort check: the
                # cut is forced by count, not by ESC-then-FLAG.
                result.oversize_drops += 1
                result.octets_discarded_hunting += len(body) - (max_body + 1)
                body = body[: max_body + 1]
            elif body[-1] == esc_octet:
                result.aborts += 1
                continue
            clear = self._unstuff(body)
            result.octets_deleted += len(body) - len(clear)
            if len(clear) <= fcs_octets:
                result.runt_frames += 1
                continue
            good = self._residue_ok(clear)
            if good:
                result.frames_ok += 1
            else:
                result.fcs_errors += 1
            result.frames.append((clear[:-fcs_octets], good))
        return result

    def _unstuff(self, body: bytes) -> bytes:
        """Escape removal: the replace chain when provably exact.

        Each pass turns ``ESC x`` into ``x ^ 0x20``, the escape pair
        last so the escapes it restores meet no later pass.  On
        conforming input every escape is deleted exactly once; any
        other count means non-conforming input, which takes the
        run-parity reference.
        """
        escapes = body.count(self._esc)
        if not escapes:
            return body
        if self._unstuff_pairs is not None:
            clear = body
            for escaped, octet in self._unstuff_pairs:
                clear = clear.replace(escaped, octet)
            if len(body) - len(clear) == escapes:
                return clear
        return self._destuff(np.frombuffer(body, dtype=np.uint8))[0]

    def _destuff(self, body: np.ndarray) -> Tuple[bytes, int]:
        """Escape removal with cycle-exact run semantics (the reference).

        :func:`~repro.core.escape_det.contract_word` deletes an escape
        and XORs whatever octet follows — so within a maximal run of
        consecutive escape octets, the even-offset ones delete and the
        odd-offset ones are themselves the restored data (the
        non-conforming ``7D 7D`` pair decodes to ``5D``, exactly as the
        cycle pipeline does).
        """
        esc = body == self.config.esc_octet
        if not esc.any():
            return body.tobytes(), 0
        indices = np.arange(body.size)
        prev_esc = np.empty_like(esc)
        prev_esc[0] = False
        prev_esc[1:] = esc[:-1]
        run_start = np.where(esc & ~prev_esc, indices, -1)
        offset_in_run = indices - np.maximum.accumulate(run_start)
        delete = esc & (offset_in_run % 2 == 0)
        xor_next = np.empty_like(delete)
        xor_next[0] = False
        xor_next[1:] = delete[:-1]
        out = body.copy()
        out[xor_next] ^= ESCAPE_XOR
        return out[~delete].tobytes(), int(delete.sum())

    # -------------------------------------------------------------- loopback
    def loopback(
        self, contents: Sequence[bytes]
    ) -> Tuple[FastpathTxResult, FastpathRxResult]:
        """Encode a batch and decode it straight back (clean wire)."""
        tx = self.encode_frames(contents)
        return tx, self.decode_stream(tx.line)
