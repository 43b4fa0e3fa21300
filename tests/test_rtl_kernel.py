"""Unit tests for the RTL simulation kernel."""

import pytest

from repro.errors import BackpressureOverflow, SimulationError
from repro.rtl import (
    Channel,
    Module,
    Simulator,
    StallPattern,
    StreamSink,
    StreamSource,
    TraceRecorder,
    WordBeat,
    beats_from_bytes,
    bytes_from_beats,
)


class StoreStage(Module):
    """Moves words from ``inp`` to ``out`` through a ``depth``-word store.

    The store is the stage's own registered self-loop channel; one
    word can enter and one leave it per cycle.
    """

    def __init__(self, name, inp, out, depth):
        super().__init__(name)
        self.inp = self.reads(inp)
        self.out = self.writes(out)
        self.store = self.reads(self.writes(Channel(f"{name}.store", capacity=depth)))

    def clock(self):
        # Output side first so a full store can still stream through.
        if self.store and self.out.can_push:
            self.out.push(self.store.pop())
        if self.inp:
            if self.store.can_push:
                self.store.push(self.inp.pop())
            else:
                self.note_stall()


class TestChannel:
    def test_handshake_flags(self):
        ch = Channel("c", capacity=1)
        assert ch.can_push and not ch.can_pop
        ch.push("x")
        assert not ch.can_push and ch.can_pop

    def test_fifo_order(self):
        ch = Channel("c", capacity=3)
        for item in "abc":
            ch.push(item)
        assert [ch.pop() for _ in range(3)] == list("abc")

    def test_overflow_raises(self):
        ch = Channel("c", capacity=1)
        ch.push(1)
        with pytest.raises(BackpressureOverflow):
            ch.push(2)

    def test_underflow_raises(self):
        with pytest.raises(BackpressureOverflow):
            Channel("c").pop()

    def test_peek_nondestructive(self):
        ch = Channel("c")
        ch.push(42)
        assert ch.peek() == 42 and ch.can_pop

    def test_occupancy_stats(self):
        ch = Channel("c", capacity=4)
        ch.push(1); ch.push(2); ch.pop(); ch.push(3)
        assert ch.max_occupancy == 2
        assert ch.pushes == 3 and ch.pops == 1

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            Channel("c", capacity=0)


class TestWordBeat:
    def test_from_bytes_left_aligned(self):
        beat = WordBeat.from_bytes(b"\x01\x02", 4)
        assert beat.lanes == (1, 2, 0, 0)
        assert beat.valid == (True, True, False, False)
        assert beat.n_valid == 2

    def test_payload_skips_invalid(self):
        beat = WordBeat((1, 2, 0, 4), (True, False, False, True))
        assert beat.payload() == b"\x01\x04"

    def test_render(self):
        beat = WordBeat.from_bytes(b"\x7e\x12", 4, sof=True)
        assert beat.render() == "7E 12 -- -- [S]"

    def test_validation(self):
        with pytest.raises(ValueError):
            WordBeat((1, 2), (True,))
        with pytest.raises(ValueError):
            WordBeat((300,), (True,))
        with pytest.raises(ValueError):
            WordBeat.from_bytes(b"", 4)
        with pytest.raises(ValueError):
            WordBeat.from_bytes(b"12345", 4)

    def test_beats_round_trip(self, rng):
        data = rng.integers(0, 256, 123, dtype="uint8").tobytes()
        beats = beats_from_bytes(data, 4)
        assert bytes_from_beats(beats) == data
        assert beats[0].sof and beats[-1].eof
        assert not beats[1].sof and not beats[0].eof

    def test_empty_beats(self):
        assert beats_from_bytes(b"", 4) == []


class TestStallPattern:
    def test_never(self):
        stall = StallPattern.never()
        assert not any(stall.active(c) for c in range(100))

    def test_every(self):
        stall = StallPattern(every=3)
        hits = [c for c in range(9) if stall.active(c)]
        assert hits == [2, 5, 8]

    def test_probability_deterministic_with_seed(self):
        a = StallPattern(probability=0.5, seed=1)
        b = StallPattern(probability=0.5, seed=1)
        assert [a.active(c) for c in range(50)] == [b.active(c) for c in range(50)]

    def test_burst(self):
        stall = StallPattern(every=5, burst=3)
        states = [stall.active(c) for c in range(10)]
        assert states[4] and states[5] and states[6]

    def test_validation(self):
        with pytest.raises(ValueError):
            StallPattern(every=0)
        with pytest.raises(ValueError):
            StallPattern(probability=1.5)


class TestSimulator:
    def _pipeline(self, data, *, src_stall=None, sink_stall=None, depth=2):
        c1, c2 = Channel("c1"), Channel("c2")
        src = StreamSource("src", c1, beats_from_bytes(data, 2), stall=src_stall)
        fifo = StoreStage("fifo", c1, c2, depth=depth)
        sink = StreamSink("sink", c2, stall=sink_stall)
        sim = Simulator([src, fifo, sink], [c1, c2])
        return sim, src, fifo, sink

    def test_pipeline_moves_data(self, rng):
        data = rng.integers(0, 256, 64, dtype="uint8").tobytes()
        sim, src, fifo, sink = self._pipeline(data)
        sim.run_until(lambda: len(sink.data()) == len(data))
        assert sink.data() == data

    def test_unstalled_pipeline_is_full_rate(self):
        data = bytes(range(100))
        sim, src, fifo, sink = self._pipeline(data)
        sim.run_until(lambda: len(sink.data()) == len(data))
        # 50 beats through a 2-register pipeline: 50 + small fill time.
        assert sim.cycle <= 50 + 4

    def test_slow_sink_backpressures_source(self):
        data = bytes(range(100))
        sim, src, fifo, sink = self._pipeline(
            data, sink_stall=StallPattern(every=2)
        )
        sim.run_until(lambda: len(sink.data()) == len(data), timeout=500)
        assert src.stalled_cycles > 0
        assert sink.data() == data

    def test_random_stalls_preserve_data(self, rng):
        data = rng.integers(0, 256, 200, dtype="uint8").tobytes()
        sim, src, fifo, sink = self._pipeline(
            data,
            src_stall=StallPattern(probability=0.3, seed=7),
            sink_stall=StallPattern(probability=0.3, seed=8),
        )
        sim.run_until(lambda: len(sink.data()) == len(data), timeout=5000)
        assert sink.data() == data

    def test_run_until_timeout(self):
        sim, *_ = self._pipeline(b"ab")
        with pytest.raises(SimulationError):
            sim.run_until(lambda: False, timeout=10)

    def test_drain(self):
        data = bytes(range(20))
        sim, src, fifo, sink = self._pipeline(data)
        sim.drain()
        assert sink.data() == data

    def test_requires_modules(self):
        with pytest.raises(ValueError):
            Simulator([])

    def test_observer_called_every_cycle(self):
        sim, *_ = self._pipeline(b"abcd")
        seen = []
        sim.add_observer(seen.append)
        sim.step(5)
        assert seen == [1, 2, 3, 4, 5]


class TestSyncFifo:
    """A FIFO built from a store channel: the channel's high-water mark."""

    def test_occupancy_high_water(self):
        c1, c2 = Channel("c1"), Channel("c2")
        src = StreamSource("src", c1, beats_from_bytes(bytes(40), 2))
        fifo = StoreStage("fifo", c1, c2, depth=5)
        sink = StreamSink("sink", c2, stall=StallPattern(every=2))
        sim = Simulator([src, fifo, sink], [c1, c2])
        sim.run_until(lambda: len(sink.beats) == 20, timeout=500)
        assert 1 <= fifo.store.max_occupancy <= 5


class TestTraceRecorder:
    def test_renders_table(self):
        c1, c2 = Channel("stage1"), Channel("stage2")
        src = StreamSource("src", c1, beats_from_bytes(b"\x7e\x12\x34\x56", 4))
        fifo = StoreStage("fifo", c1, c2, depth=2)
        sink = StreamSink("sink", c2)
        sim = Simulator([src, fifo, sink], [c1, c2])
        recorder = TraceRecorder([c1, c2])
        sim.add_observer(recorder.sample)
        sim.step(6)
        text = recorder.render()
        assert "stage1" in text and "7E 12 34 56" in text

    def test_skip_idle_rows(self):
        ch = Channel("quiet")
        recorder = TraceRecorder([ch])
        for cycle in range(5):
            recorder.sample(cycle)
        assert recorder.render().count("\n") == 1  # header + rule only
