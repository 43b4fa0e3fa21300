"""Module-graph adapters wiring the fastpath engine into the registries.

The fast datapath deliberately has no per-cycle behaviour — but the
static tooling (:mod:`repro.lint`'s graph DRC and :mod:`repro.sta`'s
path/flow analyses) reasons about *structure*, and the engine should
not be an invisible island next to the cycle-accurate design.  These
adapters present the engine as a two-stage module pipeline moving one
whole frame per clock:

``FastpathFrameSource → FastpathTx → FastpathRx → FastpathFrameSink``

Each stage carries a :class:`~repro.rtl.module.TimingContract` (derived
from :attr:`FastpathEngine.TIMING_CONTRACT`), so ``repro sta`` sees a
fully declared datapath and ``repro lint`` a well-formed graph.  The
topology also *runs*: clocking it end to end is the frame-granular
simulation of the engine, which the tests use to cross-check the
adapters against direct engine calls.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Sequence, Tuple

from repro.core.config import P5Config
from repro.fastpath.engine import FastpathEngine, FastpathRxResult
from repro.hdlc.delineation import Delineator
from repro.rtl.module import Channel, ChannelTiming, Module, TimingContract

__all__ = [
    "FastpathFrameSource",
    "FastpathTx",
    "FastpathRx",
    "FastpathFrameSink",
    "build_fastpath_loopback",
]


class FastpathFrameSource(Module):
    """Host queue feeding whole frame contents, one per clock."""

    def __init__(self, name: str, out: Channel) -> None:
        super().__init__(name)
        self.out = self.writes(out)
        self.queue: Deque[bytes] = deque()

    def submit(self, content: bytes) -> None:
        if not content:
            raise ValueError("cannot transmit an empty frame")
        self.queue.append(content)

    @property
    def quiescent(self) -> bool:
        return not self.queue

    def timing_contract(self) -> TimingContract:
        return TimingContract(
            latency_cycles=1, outputs=(ChannelTiming(self.out),)
        )

    def clock(self) -> None:
        if self.queue and self.out.can_push:
            self.out.push(self.queue.popleft())
        elif self.queue:
            self.note_stall()


class FastpathTx(Module):
    """One whole frame in, its encoded wire bytes out, per clock."""

    def __init__(
        self, name: str, inp: Channel, out: Channel, *, engine: FastpathEngine
    ) -> None:
        super().__init__(name)
        self.inp = self.reads(inp)
        self.out = self.writes(out)
        self.engine = engine
        self.frames_encoded = 0
        self.octets_escaped = 0

    @property
    def quiescent(self) -> bool:
        return not self.inp.can_pop

    def timing_contract(self) -> TimingContract:
        base = self.engine.TIMING_CONTRACT
        return TimingContract(
            latency_cycles=1,
            outputs=(
                ChannelTiming(
                    self.out,
                    max_expansion=base.outputs[0].max_expansion,
                    per_frame_octets=base.outputs[0].per_frame_octets,
                ),
            ),
        )

    def clock(self) -> None:
        if not self.inp.can_pop:
            return
        if not self.out.can_push:
            self.note_stall()
            return
        tx = self.engine.encode_frames([self.inp.pop()])
        self.frames_encoded += tx.frames
        self.octets_escaped += tx.octets_escaped
        self.out.push(tx.line)


class FastpathRx(Module):
    """One frame's wire bytes in, its ``(content, good)`` verdict out."""

    def __init__(
        self, name: str, inp: Channel, out: Channel, *, engine: FastpathEngine
    ) -> None:
        super().__init__(name)
        self.inp = self.reads(inp)
        self.out = self.writes(out)
        # One streaming receiver across frames, as on a wire.
        self._rx = Delineator(engine.receive_policy)
        self._frames: List[Tuple[bytes, bool]] = []

    @property
    def result(self) -> FastpathRxResult:
        """Every frame received so far, with the receiver's counters."""
        return FastpathRxResult.from_stats(list(self._frames), self._rx.stats)

    @property
    def quiescent(self) -> bool:
        return not self.inp.can_pop

    def timing_contract(self) -> TimingContract:
        return TimingContract(
            latency_cycles=1,
            outputs=(
                ChannelTiming(
                    self.out,
                    # Flags, escapes and the FCS trailer are stripped.
                    min_expansion=0.0,
                ),
            ),
        )

    def clock(self) -> None:
        if not self.inp.can_pop:
            return
        if not self.out.can_push:
            self.note_stall()
            return
        for frame in self._rx.push_bytes(self.inp.pop()):
            self._frames.append(frame)
            self.out.push(frame)


class FastpathFrameSink(Module):
    """Receive memory: collects ``(content, good)`` verdicts."""

    def __init__(self, name: str, inp: Channel) -> None:
        super().__init__(name)
        self.inp = self.reads(inp)
        self.frames: List[Tuple[bytes, bool]] = []

    @property
    def quiescent(self) -> bool:
        return not self.inp.can_pop

    def timing_contract(self) -> TimingContract:
        return TimingContract(latency_cycles=1)

    def clock(self) -> None:
        if self.inp.can_pop:
            self.frames.append(self.inp.pop())

    def good_frames(self) -> List[bytes]:
        return [content for content, good in self.frames if good]


def build_fastpath_loopback(
    config: Optional[P5Config] = None,
) -> Tuple[Sequence[Module], Sequence[Channel]]:
    """The registered ``fastpath-loopback`` topology, source to sink.

    Returned in simulator clock order; :func:`repro.lint.targets.
    shipped_topologies` and :func:`repro.sta.targets.canonical_findings`
    both include it so the DRC and the timing analyses cover the fast
    engine's structure alongside the cycle-accurate design.
    """
    engine = FastpathEngine(config)
    ch_frames = Channel("fastpath.frames", capacity=2)
    ch_line = Channel("fastpath.line", capacity=2)
    ch_rx = Channel("fastpath.checked", capacity=2)
    source = FastpathFrameSource("fastpath.source", ch_frames)
    tx = FastpathTx("fastpath.tx", ch_frames, ch_line, engine=engine)
    rx = FastpathRx("fastpath.rx", ch_line, ch_rx, engine=engine)
    sink = FastpathFrameSink("fastpath.sink", ch_rx)
    return [source, tx, rx, sink], [ch_frames, ch_line, ch_rx]
