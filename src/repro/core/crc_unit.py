"""The CRC unit — word-parallel FCS generation and checking.

"A highly efficient and optimised parallel CRC core has been
developed.  The CRC unit co-ordinates and synchronises data being fed
into the CRC core.  The CRC core computes a 32-bit Frame Check
Sequence FCS via an 8 x 32-bit parallel matrix (for the 8-bit P5) or
via a 32 x 32-bit parallel matrix (for the 32-bit P5)."

Two pipeline modules absorb one word per cycle into a CRC register.
The simulation needs only that register's value, so each unit keeps
it in a :class:`~repro.crc.table.TableCrc` (``zlib.crc32`` for
FCS-32).  The hardware's 8 x 32 / 32 x 32 XOR matrices are
:class:`~repro.crc.parallel.ParallelCrc` /
:class:`~repro.crc.matrix.CrcMatrices`, the netlist source of
:mod:`repro.synth.area`; a differential test holds the two engines
equal for every registered spec and datapath width.

* :class:`CrcGenerate` — transmit side: passes frame content through,
  accumulating the FCS one word per cycle, and appends the FCS
  trailer (least-significant octet first, per RFC 1662) at
  end-of-frame.
* :class:`CrcCheck` — receive side: verifies the FCS over the whole
  frame via the magic-residue method and strips the trailer,
  re-marking end-of-frame on the last content word.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List

from repro.crc import CrcSpec
from repro.crc.table import TableCrc
from repro.errors import FcsError, FramingError, RuntFrameError
from repro.rtl.module import Channel, ChannelTiming, Module, TimingContract
from repro.rtl.pipeline import EOF_ABORT

__all__ = ["CrcGenerate", "CrcCheck"]


class CrcGenerate(Module):
    """Append the FCS to each frame, word-at-a-time.

    Latency: one cycle (a single output register) for pass-through
    words; the trailer words follow the content seamlessly because the
    internal repacker keeps the byte stream dense across the
    content/FCS boundary.
    """

    def __init__(
        self,
        name: str,
        inp: Channel,
        out: Channel,
        *,
        width_bytes: int,
        spec: CrcSpec,
    ) -> None:
        super().__init__(name)
        self.inp = self.reads(inp)
        self.out = self.writes(out)
        self.width_bytes = width_bytes
        self.spec = spec
        self.core = TableCrc(spec)
        self._carry = b""
        self._sof_pending = True
        self.frames_processed = 0

    @property
    def quiescent(self) -> bool:
        # Input-driven: the carry only moves when a word arrives.
        return not self.inp

    @property
    def fcs_octets(self) -> int:
        return self.spec.width // 8

    def capacity_needs(self):
        # The eof flush emits carry (<= W-1) + W content + FCS octets
        # in one burst; the room check in clock() demands this much.
        w = self.width_bytes
        words = (2 * w - 1 + self.fcs_octets) // w + 1
        return [(self.out, words, "end-of-frame content+FCS flush burst")]

    def timing_contract(self) -> TimingContract:
        w = self.width_bytes
        return TimingContract(
            latency_cycles=1,
            outputs=(
                ChannelTiming(
                    self.out,
                    # Content streams through 1:1; the FCS trailer is
                    # per-frame overhead.
                    per_frame_octets=self.fcs_octets,
                    burst_words=(2 * w - 1 + self.fcs_octets) // w + 1,
                ),
            ),
        )

    def clock(self) -> None:
        if not self.inp:
            return
        octets, _sof, eof = self.inp.peek()
        w = self.width_bytes
        carry = self._carry + octets
        # Worst case one input word yields 2 output words (tail + FCS);
        # require room for both before consuming, else stall.
        room = (len(carry) + self.fcs_octets) // w + 1 if eof else 1
        if self.out.capacity - len(self.out) < room:
            self.note_stall()
            return
        self.inp.pop()
        self.core.update(octets)
        if eof:
            carry += self.core.value().to_bytes(self.fcs_octets, "little")
            self.core.reset()
            self.frames_processed += 1
            end = len(carry)
        else:
            end = len(carry) - len(carry) % w
        first = self._sof_pending
        for off in range(0, end, w):
            self.out.push((carry[off : off + w], first, eof and off + w >= end))
            first = False
        self._carry = carry[end:]
        self._sof_pending = eof or first


class CrcCheck(Module):
    """Verify and strip the FCS on receive.

    The unit holds back the most recent ``fcs_octets`` bytes of the
    frame (they might be the trailer); everything older streams out.
    At end-of-frame the residue test decides good/bad, recorded in
    :attr:`frame_good` / the error counters for the OAM.  A frame
    closed by :data:`~repro.rtl.pipeline.EOF_ABORT` is not judged: it
    is dropped whole and counts in no verdict counter.
    """

    def __init__(
        self,
        name: str,
        inp: Channel,
        out: Channel,
        *,
        width_bytes: int,
        spec: CrcSpec,
    ) -> None:
        super().__init__(name)
        self.inp = self.reads(inp)
        self.out = self.writes(out)
        self.width_bytes = width_bytes
        self.spec = spec
        self.core = TableCrc(spec)
        self._held = b""                  # content not yet released
        self._frame_octets = 0            # total absorbed this frame
        self._sof_pending = True
        self.frames_ok = 0
        self.fcs_errors = 0
        self.runt_frames = 0
        #: Frames closed so far, runts included.
        self.frames_checked = 0
        #: Verdicts of released frames (runts are swallowed) not yet
        #: taken by the sink, in release order; see :meth:`pop_verdict`.
        self.released_results: Deque[bool] = deque()
        #: Typed records of every rejected frame (runt/FCS), in
        #: arrival order — mirrors ``WordDelineator.faults``.
        self.faults: List[FramingError] = []

    @property
    def quiescent(self) -> bool:
        # Input-driven: the holdback only moves when a word arrives.
        return not self.inp

    def pop_verdict(self) -> bool:
        """The FCS verdict of the oldest released frame not yet taken.

        The sink calls this once per eof-marked frame it assembles;
        the verdict is appended in the same cycle as that frame's eof
        word, so it is always there for a well-formed stream.
        """
        released = self.released_results
        return released.popleft() if released else False

    @property
    def fcs_octets(self) -> int:
        return self.spec.width // 8

    def timing_contract(self) -> TimingContract:
        return TimingContract(
            # The holdback delays the first release until fcs_octets
            # of lookahead exist: fcs_octets + 1 cycles covers dense
            # input at any datapath width (tight at W=1).
            latency_cycles=self.fcs_octets + 1,
            outputs=(
                ChannelTiming(
                    self.out,
                    # The stripped FCS (and swallowed runts) contract
                    # the stream; nothing ever grows it.
                    min_expansion=0.0,
                    burst_words=2,
                ),
            ),
        )

    def clock(self) -> None:
        if not self.inp:
            return
        octets, _sof, eof = self.inp.peek()
        w = self.width_bytes
        content = len(self._held) + len(octets) - self.fcs_octets
        if eof:
            # Whole remaining content flushes this cycle; reserve at
            # least one word for the frame-closing eof word even when
            # every content octet already streamed out.
            max_words = max(1, (content + w - 1) // w)
        else:
            max_words = max(0, content) // w
        if self.out.capacity - len(self.out) < max_words:
            self.note_stall()
            return
        self.inp.pop()
        if eof == EOF_ABORT:
            self._drop_aborted_frame()
            return
        self.core.update(octets)
        self._held += octets
        self._frame_octets += len(octets)
        if eof:
            self._finish_frame()
        else:
            self._release(flush=False)

    def _release(self, *, flush: bool) -> None:
        # Keep fcs_octets bytes back unless flushing a finished frame.
        held = self._held
        w = self.width_bytes
        limit = len(held) if flush else len(held) - self.fcs_octets
        emitted = 0
        while limit - emitted >= w:
            eof = flush and emitted + w >= limit
            self.out.push((held[emitted : emitted + w], self._sof_pending, eof))
            emitted += w
            self._sof_pending = False
        if flush and limit - emitted > 0:
            self.out.push((held[emitted:limit], self._sof_pending, True))
            self._sof_pending = False
            emitted = limit
        elif flush and limit == 0:
            # Every content octet already streamed out eofless (the
            # held-back tail was exactly the FCS, e.g. an oversize cut):
            # close the frame on an empty word so it cannot merge into
            # the next one.
            self.out.push((b"", self._sof_pending, True))
            self._sof_pending = False
        self._held = held[emitted:]

    def _drop_aborted_frame(self) -> None:
        """Drop an aborted frame whole, unjudged (the delineator counted
        the abort): the held octets go, and if part of the frame was
        already released the abort mark follows it so the sink
        discards that part too."""
        if not self._sof_pending:
            self.out.push((b"", False, EOF_ABORT))
        self._held = b""
        self.core.reset()
        self._frame_octets = 0
        self._sof_pending = True

    def _finish_frame(self) -> None:
        good = False
        if self._frame_octets <= self.fcs_octets:
            # A true runt: the whole frame fits in the holdback, so
            # nothing has been released and it can vanish silently.
            self.runt_frames += 1
            self.faults.append(RuntFrameError(
                f"{self.name}: {self._frame_octets}-octet frame cannot hold "
                f"a {self.fcs_octets}-octet FCS"
            ))
            self._held = b""
        else:
            residue = self.core.residue_value()
            good = residue == self.spec.residue
            if good:
                self.frames_ok += 1
            else:
                self.fcs_errors += 1
                self.faults.append(FcsError(
                    self.spec.residue, residue,
                    f"{self.name}: FCS residue 0x{residue:X} != "
                    f"magic 0x{self.spec.residue:X}",
                ))
            self._held = self._held[: -self.fcs_octets]   # strip the trailer
            self._release(flush=True)
            self.released_results.append(good)
        self.frames_checked += 1
        self.core.reset()
        self._frame_octets = 0
        self._sof_pending = True

