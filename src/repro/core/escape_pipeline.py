"""Cycle-accurate pipelined Escape Generate / Escape Detect units.

This module is the paper's core claim, reproduced at clock-cycle
granularity: the word-parallel transparency problem "has been solved
by devising a data reordering mechanism and by further pipelining the
unit ... the process is divided up into 4 pipelined stages with
buffering and decisional mechanisms implemented.  The first data
transmitted is therefore delayed by 4 clock cycles, approximately
50ns.  Subsequent data flow is continuous and efficient."

Pipeline structure (32-bit unit, ``pipeline_stages=4``)::

    stage 1      stage 2      stage 3              stage 4
    detect   ->  expand   ->  sort (carry reg) ->  emit (resync buf)
    (lane        (byte        (barrel shift        (output register +
     compare)     insert/      realignment)         backpressure)
                  delete)

In this model stages 1 and 2 are *registers holding the expanded job*
(their combinational work — lane comparison and byte insertion — is
computed once at intake, since only its timing, not its value, is
cycle-dependent), stage 3 merges the job into the carry register, and
stage 4 drains completed words through the resynchronisation buffer.
A job therefore takes exactly ``pipeline_stages`` cycles from intake
to first possible emission.

Stage 1/2's per-word work is a pure function of the word:
:func:`expand_word` (generate: W valid octets become W..2W) and
:func:`contract_word` (detect: an escape is deleted and the next octet
XORed, with one bit of ``pending_xor`` state carried across words for
an escape in the last lane).

Pass-through: a word with no octet to escape (generate) or no escape,
flag or pending XOR (detect) is its own expansion, so the stage-1/2
work returns its valid octets without the per-lane
:func:`expand_word` / :func:`contract_word` loop.  The test reads the
live ``escapes`` / ``esc_octet`` / ``flag_octet`` attributes, which the
OAM may reprogram, and the job still moves through every stage
register on the same cycles.

Backpressure: when the resynchronisation buffer cannot absorb the
words a job would complete, stage 3 refuses to consume and the stall
ripples back to the input — the mechanism that keeps the buffer
"extremely low" under the worst-case all-flag payload (where stuffing
doubles the stream and the unit *must* halve its intake rate).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, FrozenSet, List, Optional, Tuple

from repro.errors import FramingError
from repro.hdlc.constants import ESCAPE_XOR, ESC_OCTET, FLAG_OCTET
from repro.rtl.module import BufferBound, Channel, ChannelTiming, Module, TimingContract
from repro.rtl.pipeline import EOF_ABORT, Word

__all__ = [
    "PipelinedEscapeGenerate",
    "PipelinedEscapeDetect",
    "expand_word",
    "contract_word",
]

_DEFAULT_ESCAPES = frozenset({FLAG_OCTET, ESC_OCTET})


def expand_word(
    word: Word,
    escapes: FrozenSet[int] = _DEFAULT_ESCAPES,
    esc_octet: int = ESC_OCTET,
) -> bytes:
    """Stuff one word's valid lanes: W bytes become W..2W bytes.

    The paper's "suddenly 5 bytes to transfer on a 32-bit channel"
    situation is exactly a 4-valid word expanding to 5+ bytes here.
    ``word`` is a word ``(octets, sof, eof)`` or a
    :class:`~repro.rtl.pipeline.WordBeat`.
    """
    octets, _sof, _eof = word
    out = bytearray()
    for byte in octets:
        if byte in escapes:
            out.append(esc_octet)
            out.append(byte ^ ESCAPE_XOR)
        else:
            out.append(byte)
    return bytes(out)


def contract_word(
    word: Word,
    pending_xor: bool,
    esc_octet: int = ESC_OCTET,
    flag_octet: int = FLAG_OCTET,
) -> Tuple[bytes, bool, int]:
    """Destuff one word's valid lanes.

    Returns ``(bytes, new_pending_xor, escapes_deleted)``.
    ``pending_xor`` is True when the previous word ended in an escape
    octet whose target byte is the first valid lane of this word.
    """
    octets, _sof, _eof = word
    out = bytearray()
    deleted = 0
    for byte in octets:
        if pending_xor:
            out.append(byte ^ ESCAPE_XOR)
            pending_xor = False
        elif byte == esc_octet:
            pending_xor = True          # delete: the bubble appears here
            deleted += 1
        elif byte == flag_octet:
            raise FramingError("flag octet reached Escape Detect (delineation bug)")
        else:
            out.append(byte)
    return bytes(out), pending_xor, deleted


#: One word's worth of work travelling down the pipeline:
#: ``(data, eof, sof)``, ``data`` being the expanded (gen) or
#: contracted (det) octets.
_Job = Tuple[bytes, bool, bool]


class _EscapePipelineBase(Module):
    """Shared skeleton of the generate and detect units."""

    def __init__(
        self,
        name: str,
        inp: Channel,
        out: Channel,
        *,
        width_bytes: int,
        pipeline_stages: int = 4,
        resync_depth_words: int = 3,
    ) -> None:
        super().__init__(name)
        if width_bytes < 1:
            raise ValueError("width_bytes must be >= 1")
        if pipeline_stages < 2:
            raise ValueError("the unit needs at least sort + emit stages (2)")
        # A single job can complete up to 3 words (carry W-1 + 2W new
        # bytes, plus an eof flush); the buffer must absorb one whole
        # job or the sort stage deadlocks against its own backpressure.
        if resync_depth_words < 3:
            raise ValueError(
                "resync buffer must hold at least 3 words (one worst-case job)"
            )
        self.inp = self.reads(inp)
        self.out = self.writes(out)
        self.width_bytes = width_bytes
        self.pipeline_stages = pipeline_stages
        self.resync_capacity = resync_depth_words
        # Stage registers between intake and the sort stage.
        self._regs: List[Optional[_Job]] = [None] * (pipeline_stages - 2)
        self._intake_job: Optional[_Job] = None   # two-stage units only
        self._carry = b""
        self._resync: Deque[Word] = deque()
        self._frame_open = False
        # Statistics the OAM exposes.
        self.resync_overflow_drops = 0
        self.max_resync_occupancy = 0
        self.max_carry_occupancy = 0
        self.words_in = 0
        self.words_out = 0
        self.bytes_in = 0
        self.bytes_out = 0

    # ------------------------------------------------------------- per unit
    def _transform(self, word: Word) -> bytes:
        """Stage-1/2 combinational work (subclass hook)."""
        raise NotImplementedError

    # ------------------------------------------------------------ the clock
    def clock(self) -> None:
        # Stage 4 (emit): move one completed word to the output register.
        resync = self._resync
        if resync:
            if self.out.can_push:
                word = resync.popleft()
                self.out.push(word)
                self.words_out += 1
                self.bytes_out += len(word[0])
            else:
                self.note_stall()
        # Stage 3 (sort): merge the oldest job into the carry register.
        regs = self._regs
        job = regs[-1] if regs else self._staged_input()
        if job is not None:
            self._sort(job)
        if not regs:
            return  # two-stage unit: intake handled by the sort stage
        # Advance jobs through the intermediate stage registers.
        for i in range(len(regs) - 1, 0, -1):
            if regs[i] is None and regs[i - 1] is not None:
                regs[i] = regs[i - 1]
                regs[i - 1] = None
        # Stage 1 (intake): accept one input word if the first register is free.
        if regs[0] is None and self.inp:
            regs[0] = self._make_job(self.inp.pop())

    def _sort(self, job: _Job) -> None:
        """Stage 3: merge ``job`` into the carry, or stall it in its register."""
        data, eof, sof = job
        carry = self._carry + data
        w = self.width_bytes
        total = len(carry)
        produced = total // w
        if eof and total % w:
            produced += 1
        resync = self._resync
        if len(resync) + produced > self.resync_capacity:
            self.note_stall()
            return  # backpressure: leave the job in its register
        if self._regs:
            self._regs[-1] = None
        else:
            self._intake_job = None
        if total > self.max_carry_occupancy:
            self.max_carry_occupancy = total
        off = 0
        while total - off >= w:
            self._push_resync(carry[off : off + w], sof=sof, eof=False)
            off += w
            sof = False
        carry = carry[off:]
        if not eof:
            self._carry = carry
            return
        self._carry = b""
        if carry:
            self._push_resync(carry, sof=sof, eof=eof)
        elif resync:
            octets, first, _ = resync[-1]
            resync[-1] = (octets, first, eof)
        else:
            # Every remaining octet of the frame was a deleted escape
            # (e.g. an oversize cut ending in a dangling escape), or an
            # abort closed the frame on an empty word: deliver the eof
            # on an empty word so this frame cannot merge into the
            # next one.
            resync.append((b"", sof, eof))

    def _push_resync(self, octets: bytes, *, sof: bool, eof) -> None:
        resync = self._resync
        if len(resync) >= self.resync_capacity:
            # The sort stage pre-checks capacity, so this is a defensive
            # bound for fault campaigns: a register upset shrinking the
            # buffer must degrade to a counted drop, never an assertion.
            self.resync_overflow_drops += 1
            return
        resync.append((octets, sof, eof))
        if len(resync) > self.max_resync_occupancy:
            self.max_resync_occupancy = len(resync)

    # For pipeline_stages == 2 there are no intermediate registers and
    # the sort stage reads the input channel directly.
    def _staged_input(self) -> Optional[_Job]:
        if self._intake_job is None and self.inp:
            self._intake_job = self._make_job(self.inp.pop())
        return self._intake_job

    def _make_job(self, word: Word) -> _Job:
        octets, _sof, eof = word
        self.words_in += 1
        self.bytes_in += len(octets)
        sof = not self._frame_open
        self._frame_open = not eof
        return (self._transform(word), eof, sof)

    def _resync_bound(self) -> BufferBound:
        """The paper's "extremely low" buffer, as a checkable bound."""
        return BufferBound(
            name="resync",
            capacity=self.resync_capacity,
            # One worst-case job completes 3 words (carry W-1 octets +
            # 2W expanded octets + an eof flush); the sort stage's
            # pre-check keeps occupancy within whatever the buffer
            # holds, but below 3 it deadlocks against itself.
            min_required=3,
            peak_attr="max_resync_occupancy",
            why="one maximally expanded job (carry + 2W octets + eof flush)",
        )

    # ---------------------------------------------------------------- status
    @property
    def idle(self) -> bool:
        """No data anywhere in the unit."""
        return (
            not self._resync
            and not self._carry
            and self._intake_job is None
            and all(r is None for r in self._regs)
        )

    @property
    def quiescent(self) -> bool:
        # All four stages are empty and no word is waiting at the
        # intake: every stage function falls straight through.
        return not self.inp and self.idle


class PipelinedEscapeGenerate(_EscapePipelineBase):
    """The transmit-side unit: insert escapes, word-parallel.

    The programmable escape set (flag + escape + ACCM picks) is the
    paper's programmability hook for this unit.
    """

    def __init__(
        self,
        name: str,
        inp: Channel,
        out: Channel,
        *,
        width_bytes: int,
        escapes: FrozenSet[int] = _DEFAULT_ESCAPES,
        esc_octet: int = ESC_OCTET,
        pipeline_stages: int = 4,
        resync_depth_words: int = 3,
    ) -> None:
        super().__init__(
            name,
            inp,
            out,
            width_bytes=width_bytes,
            pipeline_stages=pipeline_stages,
            resync_depth_words=resync_depth_words,
        )
        self.escapes = escapes
        self.esc_octet = esc_octet
        self.octets_escaped = 0

    def _transform(self, word: Word) -> bytes:
        octets, _sof, _eof = word
        if self.escapes.isdisjoint(octets):
            return octets  # pass-through: expand_word would copy it
        expanded = expand_word(word, self.escapes, self.esc_octet)
        self.octets_escaped += len(expanded) - len(octets)
        return expanded

    def timing_contract(self) -> TimingContract:
        return TimingContract(
            # "The first data transmitted is therefore delayed by 4
            # clock cycles, approximately 50ns": one cycle per stage
            # from intake to first emission.
            latency_cycles=self.pipeline_stages,
            outputs=(
                ChannelTiming(
                    self.out,
                    # Stuffing at worst doubles every octet (all-flag
                    # payload); it never deletes.
                    max_expansion=2.0,
                ),
            ),
            buffers=(self._resync_bound(),),
        )


class PipelinedEscapeDetect(_EscapePipelineBase):
    """The receive-side unit: delete escapes, fill the bubbles.

    Holds the cross-word ``pending_xor`` state in its detect stage —
    the case of an escape octet in the last lane of a word.
    """

    def __init__(
        self,
        name: str,
        inp: Channel,
        out: Channel,
        *,
        width_bytes: int,
        esc_octet: int = ESC_OCTET,
        flag_octet: int = FLAG_OCTET,
        pipeline_stages: int = 4,
        resync_depth_words: int = 3,
    ) -> None:
        super().__init__(
            name,
            inp,
            out,
            width_bytes=width_bytes,
            pipeline_stages=pipeline_stages,
            resync_depth_words=resync_depth_words,
        )
        self.esc_octet = esc_octet
        self.flag_octet = flag_octet
        self._pending_xor = False
        self.octets_deleted = 0
        self.dangling_escape_errors = 0
        # ``octets_deleted`` when the open frame started.
        self._deleted_at_sof = 0

    def _transform(self, word: Word) -> bytes:
        octets, _sof, eof = word
        if not (
            self._pending_xor
            or self.esc_octet in octets
            or self.flag_octet in octets
            or eof
        ):
            return octets  # pass-through: contract_word would copy it
        contracted, self._pending_xor, deleted = contract_word(
            word, self._pending_xor, self.esc_octet, self.flag_octet
        )
        self.octets_deleted += deleted
        if eof:
            if eof == EOF_ABORT:
                # An aborted frame is discarded unjudged (RFC 1662):
                # neither its escapes nor a dangling tail are counted,
                # however much of it had shipped when the abort came.
                self.octets_deleted = self._deleted_at_sof
            elif self._pending_xor:
                # Dangling escape at frame end: the control FSM is told
                # via the OAM; the truncated frame fails its FCS anyway.
                self.dangling_escape_errors += 1
            self._pending_xor = False
            self._deleted_at_sof = self.octets_deleted
        return contracted

    def timing_contract(self) -> TimingContract:
        return TimingContract(
            # One cycle per stage, plus one: contraction can leave the
            # first job short of a full word, deferring the first
            # emission until the second job tops up the carry.
            latency_cycles=self.pipeline_stages + 1,
            outputs=(
                ChannelTiming(
                    self.out,
                    # Destuffing only deletes; at worst every second
                    # octet is an escape and the stream halves.
                    max_expansion=1.0,
                    min_expansion=0.5,
                ),
            ),
            buffers=(self._resync_bound(),),
        )
