"""Words, beats, sources and sinks for word-oriented datapaths.

What travels down the P5 datapath each clock is a **word**: a plain
tuple ``(octets, sof, eof)``.  ``octets`` is the ``bytes`` of the
valid lanes, lane 0 first (at most ``width//8`` of them); ``sof`` /
``eof`` are the start-/end-of-frame marks.  Partially-valid words
occur at frame tails and — centrally to the paper — *inside* the
Escape Detect unit, where deleting escape octets opens "bubbles" in
the word (paper Figure 6).

A :class:`WordBeat` is the same word shown lane by lane: byte lanes
with per-lane valid bits.  It lives at the edges of the datapath —
stream sources and sinks, PHY corruption hooks, fault injectors,
tracers and tests — and unpacks as its word, so every stage that
takes a word takes a beat too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.rtl.module import Channel, ChannelTiming, Module, TimingContract

if TYPE_CHECKING:
    from repro.utils.rng import SeedLike

__all__ = [
    "EOF_ABORT",
    "Word",
    "WordBeat",
    "word_of",
    "words_from_bytes",
    "beats_from_bytes",
    "bytes_from_beats",
    "StallPattern",
    "StreamSource",
    "StreamSink",
]


#: The ``eof`` mark of a word that closes an *aborted* frame (the RFC 1662
#: abort sequence, escape then flag).  It is truthy, so a stage that only
#: asks "does this word close a frame?" treats it as any eof and passes
#: it on; the receiver's CRC check and frame sinks drop the frame whole.
EOF_ABORT = 2

#: One datapath word between stages: ``(octets, sof, eof)``.
Word = Tuple[bytes, bool, int]


@dataclass(frozen=True)
class WordBeat:
    """One datapath word in flight.

    Attributes
    ----------
    lanes:
        Byte values, lane 0 first on the wire.  Invalid lanes carry 0.
    valid:
        Per-lane valid bits; ``valid[i]`` qualifies ``lanes[i]``.
    sof / eof:
        Frame delimiting marks (the in-band equivalent of the flag
        octets once the framing layer has been processed); ``eof`` is
        :data:`EOF_ABORT` on the last word of an aborted frame.

    The valid octets are computed once per beat and cached outside the
    dataclass fields, so equality, hashing, ``repr`` and
    :func:`dataclasses.replace` see only the four fields above.
    """

    lanes: Tuple[int, ...]
    valid: Tuple[bool, ...]
    sof: bool = False
    eof: bool = False

    def __post_init__(self) -> None:
        if len(self.lanes) != len(self.valid):
            raise ValueError("lanes and valid must have equal length")
        for lane, ok in zip(self.lanes, self.valid):
            if ok and not 0 <= lane <= 0xFF:
                raise ValueError(f"lane value out of range: {lane}")
        payload = bytes(b for b, ok in zip(self.lanes, self.valid) if ok)
        object.__setattr__(self, "_payload", payload)

    @property
    def width_bytes(self) -> int:
        return len(self.lanes)

    @property
    def n_valid(self) -> int:
        return len(self._payload)

    def payload(self) -> bytes:
        """The valid octets of this beat, in lane order."""
        return self._payload

    @classmethod
    def from_bytes(
        cls,
        data: bytes,
        width_bytes: int,
        *,
        sof: bool = False,
        eof: bool = False,
    ) -> "WordBeat":
        """Left-aligned beat from 1..width_bytes octets.

        Built without ``__post_init__``: every octet of ``bytes`` is in
        range by construction, so the per-lane check has nothing to find.
        """
        n = len(data)
        if not 0 < n <= width_bytes:
            raise ValueError(f"beat must carry 1..{width_bytes} octets, got {n}")
        if type(data) is not bytes:
            data = bytes(data)
        pad = width_bytes - n
        beat = object.__new__(cls)
        beat.__dict__.update(
            lanes=tuple(data) + (0,) * pad,
            valid=(True,) * n + (False,) * pad,
            sof=sof,
            eof=eof,
            _payload=data,
        )
        return beat

    def __iter__(self) -> Iterator:
        """Unpack as the word ``(octets, sof, eof)``."""
        return iter((self._payload, self.sof, self.eof))

    @classmethod
    def from_word(cls, word: Word, width_bytes: Optional[int] = None) -> "WordBeat":
        """The beat of a word: its octets left-aligned in ``width_bytes``
        lanes (one lane per octet when the width is unknown)."""
        octets, sof, eof = word
        if octets:
            return cls.from_bytes(octets, width_bytes or len(octets), sof=sof, eof=eof)
        w = width_bytes or 1
        return cls((0,) * w, (False,) * w, sof=sof, eof=eof)

    def render(self) -> str:
        """Human-readable lane dump for timing diagrams, e.g. ``7E 12 -- 45``."""
        cells = [
            f"{b:02X}" if ok else "--" for b, ok in zip(self.lanes, self.valid)
        ]
        marks = ("S" if self.sof else "") + ("E" if self.eof else "")
        return " ".join(cells) + (f" [{marks}]" if marks else "")


def word_of(item: object) -> Optional[Word]:
    """The word a channel item carries: a word itself, a beat's word, or
    ``None`` for anything else (tests and tools push other items)."""
    if isinstance(item, WordBeat):
        return tuple(item)  # type: ignore[return-value]
    if type(item) is tuple and len(item) == 3 and isinstance(item[0], bytes):
        return item  # type: ignore[return-value]
    return None


def words_from_bytes(data: bytes, width_bytes: int, *, frame_marks: bool = True) -> List[Word]:
    """Chop a frame's octets into full-width words (ragged tail allowed)."""
    total = len(data)
    return [
        (
            data[off : off + width_bytes],
            frame_marks and off == 0,
            frame_marks and off + width_bytes >= total,
        )
        for off in range(0, total, width_bytes)
    ]


def beats_from_bytes(data: bytes, width_bytes: int, *, frame_marks: bool = True) -> List[WordBeat]:
    """Chop a frame's octets into full-width beats (ragged tail allowed)."""
    return [
        WordBeat.from_word(word, width_bytes)
        for word in words_from_bytes(bytes(data), width_bytes, frame_marks=frame_marks)
    ]


def bytes_from_beats(beats: Iterable[WordBeat]) -> bytes:
    """Concatenate the valid octets of a beat sequence."""
    out = bytearray()
    for beat in beats:
        out += beat.payload()
    return bytes(out)


class StallPattern:
    """A deterministic or random schedule of stall cycles.

    Used to model a slow producer (PHY underrun) or a slow consumer
    (memory-bus contention): ``active(cycle)`` is True on cycles the
    party refuses to move data.
    """

    def __init__(
        self,
        *,
        every: Optional[int] = None,
        probability: float = 0.0,
        seed: SeedLike = None,
        burst: int = 1,
    ) -> None:
        if every is not None and every < 1:
            raise ValueError("'every' must be >= 1")
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        # numpy's generator is built on first use: a pattern that never
        # draws (``never()``, or ``every`` alone) leaves numpy unloaded.
        self.every = every
        self.probability = probability
        self.burst = burst
        self._seed = seed
        self._rng = None
        self._burst_left = 0

    def _random(self) -> float:
        """One draw from the pattern's generator, built from its seed."""
        if self._rng is None:
            from repro.utils.rng import make_rng

            self._rng = make_rng(self._seed)
        return self._rng.random()

    @classmethod
    def never(cls) -> "StallPattern":
        """No stalls: full line-rate."""
        return cls()

    @property
    def is_never(self) -> bool:
        """True when :meth:`active` can never stall (and draws no RNG).

        Modules consult this before promising quiescence to the
        simulator: a probabilistic pattern consumes random numbers on
        every ``active()`` call, so skipping the call would change the
        stall schedule.
        """
        return self.every is None and self.probability == 0.0 and self._burst_left == 0

    def active(self, cycle: int) -> bool:
        """Whether to stall on this cycle."""
        if self._burst_left > 0:
            self._burst_left -= 1
            return True
        stall = False
        if self.every is not None and cycle % self.every == self.every - 1:
            stall = True
        if self.probability > 0.0 and self._random() < self.probability:
            stall = True
        if stall and self.burst > 1:
            self._burst_left = self.burst - 1
        return stall


class StreamSource(Module):
    """Feeds a list of beats into a channel, honouring backpressure."""

    def __init__(
        self,
        name: str,
        out: Channel,
        beats: Sequence[WordBeat],
        *,
        stall: Optional[StallPattern] = None,
    ) -> None:
        super().__init__(name)
        self.out = self.writes(out)
        self._beats: Iterator[WordBeat] = iter(list(beats))
        self._pending: Optional[WordBeat] = None
        self.stall = stall or StallPattern.never()
        self.sent = 0
        self.done = False

    def extend(self, beats: Sequence[WordBeat]) -> None:
        """Append more traffic (chains iterators; cheap)."""
        self._beats = itertools.chain(self._beats, list(beats))
        self.done = False

    @property
    def quiescent(self) -> bool:
        # Only once the iterator has been *observed* exhausted (done
        # set by clock) and the stall pattern draws no RNG.
        return self.done and self._pending is None and self.stall.is_never

    def clock(self) -> None:
        if self.stall.active(self.cycles):
            return
        if self._pending is None:
            self._pending = next(self._beats, None)
            if self._pending is None:
                self.done = True
                return
        if self.out.can_push:
            self.out.push(self._pending)
            self.sent += 1
            self._pending = None
        else:
            self.note_stall()

    def timing_contract(self) -> TimingContract:
        return TimingContract(
            latency_cycles=1,
            outputs=(ChannelTiming(self.out),),
        )


class StreamSink(Module):
    """Drains a channel into a list of beats, optionally stalling (slow
    consumer).  Words arrive as :class:`WordBeat` of the channel's
    ``width_bytes``."""

    def __init__(
        self,
        name: str,
        inp: Channel,
        *,
        stall: Optional[StallPattern] = None,
    ) -> None:
        super().__init__(name)
        self.inp = self.reads(inp)
        self.stall = stall or StallPattern.never()
        self.beats: List[WordBeat] = []
        self.first_arrival_cycle: Optional[int] = None

    @property
    def quiescent(self) -> bool:
        return self.stall.is_never and not self.inp.can_pop

    def clock(self) -> None:
        if self.stall.active(self.cycles):
            return
        if self.inp.can_pop:
            beat = self.inp.pop()
            if self.first_arrival_cycle is None:
                self.first_arrival_cycle = self.cycles
            if not isinstance(beat, WordBeat):
                beat = WordBeat.from_word(beat, self.inp.width_bytes)
            self.beats.append(beat)

    def data(self) -> bytes:
        """All valid octets received so far."""
        return bytes_from_beats(self.beats)

    def timing_contract(self) -> TimingContract:
        return TimingContract(latency_cycles=1)
