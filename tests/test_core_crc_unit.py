"""Cycle-accurate tests for the CRC generate/check pipeline units."""

import pytest

from repro.crc import CRC16_X25, CRC32, TableCrc
from repro.core.crc_unit import CrcCheck, CrcGenerate
from repro.rtl import (
    Channel,
    Simulator,
    StallPattern,
    StreamSink,
    StreamSource,
    beats_from_bytes,
)


def run_generate(frames, width=4, spec=CRC32, *, sink_stall=None):
    c_in = Channel("in", capacity=2)
    c_out = Channel("out", capacity=12)
    beats = [b for f in frames for b in beats_from_bytes(f, width)]
    src = StreamSource("src", c_in, beats)
    unit = CrcGenerate("gen", c_in, c_out, width_bytes=width, spec=spec)
    sink = StreamSink("sink", c_out, stall=sink_stall)
    sim = Simulator([src, unit, sink], [c_in, c_out])
    sim.run_until(
        lambda: src.done and not c_in.can_pop and not c_out.can_pop,
        timeout=100_000,
    )
    return unit, sink


def run_check(wire_frames, width=4, spec=CRC32):
    c_in = Channel("in", capacity=2)
    c_out = Channel("out", capacity=12)
    beats = [b for f in wire_frames for b in beats_from_bytes(f, width)]
    src = StreamSource("src", c_in, beats)
    unit = CrcCheck("chk", c_in, c_out, width_bytes=width, spec=spec)
    sink = StreamSink("sink", c_out)
    sim = Simulator([src, unit, sink], [c_in, c_out])
    sim.run_until(
        lambda: src.done and not c_in.can_pop and not c_out.can_pop,
        timeout=100_000,
    )
    return unit, sink


def with_fcs(content, spec=CRC32):
    fcs = TableCrc(spec).compute(content)
    return content + fcs.to_bytes(spec.width // 8, "little")


class TestGenerate:
    @pytest.mark.parametrize("width", [1, 2, 4, 8])
    @pytest.mark.parametrize("spec", [CRC16_X25, CRC32], ids=["fcs16", "fcs32"])
    def test_appends_correct_fcs(self, width, spec, rng):
        for n in (1, 3, width, width + 1, 57):
            content = rng.integers(0, 256, n, dtype="uint8").tobytes()
            unit, sink = run_generate([content], width, spec)
            assert sink.data() == with_fcs(content, spec)

    def test_multiple_frames_independent(self, rng):
        frames = [rng.integers(0, 256, 20 + i, dtype="uint8").tobytes()
                  for i in range(5)]
        unit, sink = run_generate(frames)
        assert sink.data() == b"".join(with_fcs(f) for f in frames)
        assert unit.frames_processed == 5

    def test_eof_marks_on_trailer(self, rng):
        content = rng.integers(0, 256, 10, dtype="uint8").tobytes()
        unit, sink = run_generate([content])
        assert sink.beats[0].sof
        assert sink.beats[-1].eof
        assert sum(b.eof for b in sink.beats) == 1

    def test_survives_slow_sink(self, rng):
        content = rng.integers(0, 256, 100, dtype="uint8").tobytes()
        unit, sink = run_generate(
            [content], sink_stall=StallPattern(probability=0.5, seed=1)
        )
        assert sink.data() == with_fcs(content)


class TestCheck:
    @pytest.mark.parametrize("width", [1, 2, 4, 8])
    def test_strips_and_verifies(self, width, rng):
        content = rng.integers(0, 256, 37, dtype="uint8").tobytes()
        unit, sink = run_check([with_fcs(content)], width)
        assert sink.data() == content
        assert unit.frames_ok == 1 and unit.fcs_errors == 0
        assert list(unit.released_results) == [True]

    def test_detects_corruption(self, rng):
        content = rng.integers(0, 256, 37, dtype="uint8").tobytes()
        wire = bytearray(with_fcs(content))
        wire[5] ^= 0x80
        unit, sink = run_check([bytes(wire)])
        assert unit.fcs_errors == 1
        assert list(unit.released_results) == [False]

    def test_runt_swallowed(self):
        unit, sink = run_check([b"\x01\x02\x03"])   # shorter than FCS-32
        assert unit.runt_frames == 1
        assert sink.data() == b""
        assert list(unit.released_results) == []
        assert unit.frames_checked == 1

    def test_mixed_good_and_bad(self, rng):
        good = with_fcs(b"good frame content")
        bad = bytearray(with_fcs(b"bad frame content!"))
        bad[2] ^= 1
        unit, sink = run_check([good, bytes(bad), good])
        assert unit.frames_ok == 2 and unit.fcs_errors == 1
        assert list(unit.released_results) == [True, False, True]

    def test_fcs16_mode(self, rng):
        content = rng.integers(0, 256, 25, dtype="uint8").tobytes()
        unit, sink = run_check([with_fcs(content, CRC16_X25)], spec=CRC16_X25)
        assert sink.data() == content and unit.frames_ok == 1


class TestGenerateCheckLoop:
    @pytest.mark.parametrize("width", [1, 4])
    def test_generate_feeds_check(self, width, rng):
        """TX CRC unit output is exactly what the RX CRC unit accepts."""
        frames = [rng.integers(0, 256, int(rng.integers(1, 80)),
                               dtype="uint8").tobytes() for _ in range(6)]
        gen, gen_sink = run_generate(frames, width)
        wire = gen_sink.data()
        chk, chk_sink = run_check(
            [wire[s:e] for s, e in _frame_spans(frames, width)], width
        )
        assert chk.frames_ok == len(frames)
        assert chk_sink.data() == b"".join(frames)


def _frame_spans(frames, width, fcs_octets=4):
    spans = []
    offset = 0
    for frame in frames:
        end = offset + len(frame) + fcs_octets
        spans.append((offset, end))
        offset = end
    return spans
