"""Escape generate/detect behaviour: the per-word functions and whole frames.

:func:`expand_word` / :func:`contract_word` are the pipelined units'
stage-1/2 work; the frame-level cases clock whole frames through
:class:`PipelinedEscapeGenerate` / :class:`PipelinedEscapeDetect` and
hold them to the RFC 1662 codec (:func:`repro.hdlc.stuff`).
"""

import pytest

from repro.core.escape_pipeline import (
    PipelinedEscapeDetect,
    PipelinedEscapeGenerate,
    contract_word,
    expand_word,
)
from repro.errors import FramingError
from repro.hdlc import stuff
from repro.rtl import Channel, Simulator, StreamSink, StreamSource, beats_from_bytes
from repro.rtl.pipeline import WordBeat


def run_unit(unit_cls, frames, width):
    """Clock ``frames`` back to back through one escape unit.

    Returns the unit and its output beats.
    """
    c_in, c_out = Channel("in", capacity=2), Channel("out", capacity=2)
    beats = [beat for frame in frames for beat in beats_from_bytes(frame, width)]
    src = StreamSource("src", c_in, beats)
    unit = unit_cls(
        "unit", c_in, c_out, width_bytes=width,
        pipeline_stages=4 if width > 1 else 2,
    )
    sink = StreamSink("sink", c_out)
    sim = Simulator([src, unit, sink], [c_in, c_out])
    sim.run_until(
        lambda: src.done and unit.idle and not c_in.can_pop and not c_out.can_pop,
        timeout=100_000,
    )
    return unit, sink.beats


def frames_of(beats):
    """Split an output beat stream at its eof marks."""
    frames, current = [], bytearray()
    for beat in beats:
        current += beat.payload()
        if beat.eof:
            frames.append(bytes(current))
            current.clear()
    assert not current, "output ends inside a frame"
    return frames


class TestExpandWord:
    def test_clean_word_unchanged(self):
        beat = WordBeat.from_bytes(b"\x12\x34\x56\x78", 4)
        assert expand_word(beat) == b"\x12\x34\x56\x78"

    def test_paper_figure5_case(self):
        """7E 12 34 56 -> 7D 5E 12 34 | 56: five bytes from four."""
        beat = WordBeat.from_bytes(bytes([0x7E, 0x12, 0x34, 0x56]), 4)
        assert expand_word(beat) == bytes([0x7D, 0x5E, 0x12, 0x34, 0x56])

    def test_all_flags_doubles(self):
        """The paper's 'however unlikely' worst case."""
        beat = WordBeat.from_bytes(bytes([0x7E] * 4), 4)
        assert expand_word(beat) == bytes([0x7D, 0x5E] * 4)

    def test_invalid_lanes_skipped(self):
        beat = WordBeat((0x7E, 0, 0, 0x41), (True, False, False, True))
        assert expand_word(beat) == bytes([0x7D, 0x5E, 0x41])

    def test_programmable_escape_set(self):
        beat = WordBeat.from_bytes(b"\x11\x41", 4)
        escapes = frozenset({0x7E, 0x7D, 0x11})
        assert expand_word(beat, escapes) == bytes([0x7D, 0x31, 0x41])


class TestContractWord:
    def test_clean_word(self):
        beat = WordBeat.from_bytes(b"\x12\x34", 4)
        assert contract_word(beat, False) == (b"\x12\x34", False, 0)

    def test_paper_figure6_case(self):
        """7D 5E 12 34 -> 7E 12 34 + bubble."""
        beat = WordBeat.from_bytes(bytes([0x7D, 0x5E, 0x12, 0x34]), 4)
        out, pending, deleted = contract_word(beat, False)
        assert out == bytes([0x7E, 0x12, 0x34])
        assert not pending and deleted == 1

    def test_escape_in_last_lane_sets_pending(self):
        beat = WordBeat.from_bytes(bytes([0x12, 0x34, 0x56, 0x7D]), 4)
        out, pending, deleted = contract_word(beat, False)
        assert out == bytes([0x12, 0x34, 0x56])
        assert pending and deleted == 1

    def test_pending_xor_applied_to_next_word(self):
        beat = WordBeat.from_bytes(bytes([0x5E, 0x99]), 4)
        out, pending, _ = contract_word(beat, True)
        assert out == bytes([0x7E, 0x99])
        assert not pending

    def test_bare_flag_is_an_error(self):
        beat = WordBeat.from_bytes(bytes([0x7E]), 4)
        with pytest.raises(FramingError):
            contract_word(beat, False)


def _random_frames(rng, count=20):
    return [
        rng.integers(0, 256, int(rng.integers(1, 300)), dtype="uint8").tobytes()
        for _ in range(count)
    ]


@pytest.mark.parametrize("width", [1, 2, 4, 8], ids=lambda w: f"W{w}")
class TestRoundTrips:
    def test_generator_matches_rfc_stuffing(self, width, rng):
        frames = _random_frames(rng)
        _, beats = run_unit(PipelinedEscapeGenerate, frames, width)
        assert frames_of(beats) == [stuff(data) for data in frames]

    def test_detector_inverts_generator(self, width, rng):
        frames = _random_frames(rng)
        _, stuffed = run_unit(PipelinedEscapeGenerate, frames, width)
        _, beats = run_unit(PipelinedEscapeDetect, frames_of(stuffed), width)
        assert frames_of(beats) == frames

    def test_frame_marks(self, width, rng):
        frames = _random_frames(rng, count=3)
        _, beats = run_unit(PipelinedEscapeGenerate, frames, width)
        assert beats[0].sof and beats[-1].eof
        assert sum(b.sof for b in beats) == len(frames)
        assert sum(b.eof for b in beats) == len(frames)
        # Every sof opens the beat after an eof (or the stream).
        opens = [i for i, b in enumerate(beats) if b.sof]
        assert opens == [0] + [i + 1 for i, b in enumerate(beats[:-1]) if b.eof]

    def test_escape_accounting_symmetric(self, width):
        data = bytes([0x7E, 0x41, 0x7D, 0x42] * 10)
        gen, stuffed = run_unit(PipelinedEscapeGenerate, [data], width)
        det, _ = run_unit(PipelinedEscapeDetect, frames_of(stuffed), width)
        assert gen.octets_escaped == det.octets_deleted == 20


class TestStreamingFrames:
    def test_back_to_back_frames_keep_alignment(self):
        _, beats = run_unit(PipelinedEscapeGenerate, [b"abcde", b"xyz"], 4)
        assert frames_of(beats) == [b"abcde", b"xyz"]

    def test_detector_recovers_after_error(self):
        det, beats = run_unit(PipelinedEscapeDetect, [bytes([0x41, 0x7D]), b"clean"], 4)
        assert det.dangling_escape_errors == 1
        # The pending XOR died with the frame: the next frame decodes clean.
        assert frames_of(beats) == [bytes([0x41]), b"clean"]
