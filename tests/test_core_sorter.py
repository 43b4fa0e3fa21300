"""The byte sorter (the paper's core mechanism): the escape units' sort stage.

Stuffing expands the stream mid-word, so the sort stage of
:class:`PipelinedEscapeGenerate` holds a carry register of 0..W-1
octets and re-emits full-width words.  These tests feed one word at a
time and watch the words each one completes and what stays carried.
"""

import pytest

from repro.core.escape_pipeline import PipelinedEscapeGenerate
from repro.hdlc import stuff
from repro.rtl import Channel, Simulator, StreamSink, StreamSource, WordBeat
from repro.synth.area import _sorter_cases


class SortStage:
    """A 4-stage Escape Generate unit driven one input word at a time."""

    def __init__(self, width=4):
        self.width = width
        c_in, c_out = Channel("in", capacity=2), Channel("out", capacity=2)
        self.src = StreamSource("src", c_in, [])
        self.unit = PipelinedEscapeGenerate("gen", c_in, c_out, width_bytes=width)
        self.sink = StreamSink("sink", c_out)
        self.sim = Simulator([self.src, self.unit, self.sink], [c_in, c_out])

    def push(self, data, *, eof=False):
        """Feed one word; return the output words it completes."""
        if data:
            beat = WordBeat.from_bytes(data, self.width, eof=eof)
        else:
            beat = WordBeat((0,) * self.width, (False,) * self.width, eof=eof)
        before = len(self.sink.beats)
        self.src.extend([beat])
        # Enough cycles to cross all four stages and drain the buffer.
        self.sim.step(2 * self.unit.pipeline_stages + 4)
        return [b.payload() for b in self.sink.beats[before:]]

    @property
    def occupancy(self):
        """Octets waiting in the carry register."""
        return len(self.unit._carry)


class TestBasicRepacking:
    def test_exact_word_passes_through(self):
        sorter = SortStage()
        assert sorter.push(b"abcd") == [b"abcd"]
        assert sorter.occupancy == 0

    def test_ragged_input_carries(self):
        sorter = SortStage()
        assert sorter.push(b"abc") == []
        assert sorter.occupancy == 3
        assert sorter.push(b"de") == [b"abcd"]
        assert sorter.occupancy == 1

    def test_expansion_case_from_paper_figure5(self):
        """7E 12 34 56 stuffs to 5 bytes: one word out + one carried."""
        sorter = SortStage()
        words = sorter.push(bytes([0x7E, 0x12, 0x34, 0x56]))
        assert words == [bytes([0x7D, 0x5E, 0x12, 0x34])]
        assert sorter.occupancy == 1

    def test_double_word_burst(self):
        """One carried octet + an all-flag word (8 octets): two words out."""
        sorter = SortStage()
        assert sorter.push(b"\x00") == []
        words = sorter.push(bytes([0x7E] * 4))
        assert words == [bytes([0x00, 0x7D, 0x5E, 0x7D]), bytes([0x5E, 0x7D, 0x5E, 0x7D])]
        assert sorter.occupancy == 1

    def test_empty_push(self):
        sorter = SortStage()
        assert sorter.push(b"") == []
        assert sorter.occupancy == 0

    def test_flush_partial(self):
        sorter = SortStage()
        assert sorter.push(b"ab", eof=True) == [b"ab"]
        assert sorter.sink.beats[-1].eof
        assert sorter.occupancy == 0

    def test_order_preserved_across_many_pushes(self, rng):
        sorter = SortStage()
        chunks = [
            rng.integers(0, 256, int(rng.integers(0, 5)), dtype="uint8").tobytes()
            for _ in range(100)
        ]
        out = []
        for i, chunk in enumerate(chunks):
            out += sorter.push(chunk, eof=i == len(chunks) - 1)
        assert b"".join(out) == stuff(b"".join(chunks))


class TestInvariants:
    def test_width_validated(self):
        with pytest.raises(ValueError):
            PipelinedEscapeGenerate("gen", Channel("in"), Channel("out"), width_bytes=0)

    def test_carry_never_holds_full_word(self, rng):
        """The structural residue bound: occupancy < W after every word."""
        sorter = SortStage()
        for _ in range(200):
            n = int(rng.integers(0, 5))
            sorter.push(rng.integers(0, 256, n, dtype="uint8").tobytes())
            assert sorter.occupancy < 4


class TestStatistics:
    def test_high_water_mark(self):
        sorter = SortStage()
        sorter.push(b"abc")
        sorter.push(b"")
        assert sorter.unit.max_carry_occupancy == 3

    def test_counters(self):
        sorter = SortStage(2)
        sorter.push(b"ab")
        sorter.push(b"cd")
        assert sorter.unit.bytes_in == 4 and sorter.unit.words_out == 2

    def test_decision_cases_quadratic(self):
        """The W(2W+1) decision space behind the paper's area growth."""
        assert _sorter_cases(1) == 3
        assert _sorter_cases(4) == 36
        assert _sorter_cases(8) == 136
        # Superlinear: quadrupling W grows cases > 4x.
        assert _sorter_cases(4) > 4 * _sorter_cases(1)
