"""Unit tests for the PHY models (BER line, word/octet conversion)."""

import pytest

from repro.phy import BitErrorLine, LineStats, make_beat_corruptor
from repro.rtl.pipeline import WordBeat, beats_from_bytes, bytes_from_beats


class TestBitErrorLine:
    def test_zero_ber_is_transparent(self, rng):
        line = BitErrorLine(0.0)
        data = rng.integers(0, 256, 1000, dtype="uint8").tobytes()
        assert line.transmit(data) == data
        assert line.bits_flipped == 0

    def test_observed_ber_tracks_nominal(self):
        line = BitErrorLine(1e-2, seed=1)
        data = bytes(100_000)
        line.transmit(data)
        assert line.observed_ber == pytest.approx(1e-2, rel=0.15)

    def test_ber_one_flips_everything(self):
        line = BitErrorLine(1.0, seed=1)
        assert line.transmit(bytes(10)) == b"\xff" * 10

    def test_deterministic_with_seed(self):
        data = bytes(range(256))
        out1 = BitErrorLine(0.01, seed=42).transmit(data)
        out2 = BitErrorLine(0.01, seed=42).transmit(data)
        assert out1 == out2

    def test_burst_error(self):
        line = BitErrorLine(0.0)
        out = line.burst(bytes(4), start_bit=8, length_bits=8)
        assert out == b"\x00\xff\x00\x00"
        assert line.bits_flipped == 8

    def test_burst_clamps_at_end(self):
        line = BitErrorLine(0.0)
        out = line.burst(bytes(2), start_bit=12, length_bits=100)
        assert out == b"\x00\x0f"

    def test_invalid_ber(self):
        with pytest.raises(ValueError):
            BitErrorLine(1.5)

    def test_empty_buffer(self):
        assert BitErrorLine(0.5, seed=1).transmit(b"") == b""


class TestBeatCorruptor:
    def test_only_valid_lanes_touched(self):
        corrupt = make_beat_corruptor(1.0, seed=1)
        beat = WordBeat((0x00, 0x00, 0x00, 0x00),
                        (True, False, True, False))
        out = corrupt(beat)
        assert out.lanes[0] == 0xFF and out.lanes[2] == 0xFF
        assert out.lanes[1] == 0x00 and out.lanes[3] == 0x00
        assert out.valid == beat.valid

    def test_marks_preserved(self):
        corrupt = make_beat_corruptor(0.5, seed=2)
        beat = WordBeat.from_bytes(b"\x01\x02", 4, sof=True, eof=True)
        out = corrupt(beat)
        assert out.sof and out.eof

    def test_stats_exposed(self):
        corrupt = make_beat_corruptor(1.0, seed=3)
        corrupt(WordBeat.from_bytes(b"\x00\x00\x00\x00", 4))
        assert corrupt.line.bits_flipped == 32


class TestLineStats:
    def test_burst_accounts_bits_sent_like_transmit(self):
        line = BitErrorLine(0.0)
        line.transmit(bytes(10))
        line.burst(bytes(10), start_bit=0, length_bits=4)
        assert line.stats.bits_sent == 160
        assert line.stats.transmits == 1
        assert line.stats.bursts == 1

    def test_observed_ber_meaningful_under_mixed_traffic(self):
        line = BitErrorLine(0.0)
        line.transmit(bytes(16))          # 128 clean bits
        line.burst(bytes(16), 8, 4)       # 128 more bits, 4 flipped
        assert line.observed_ber == pytest.approx(4 / 256)

    def test_merge_is_elementwise_sum(self):
        a = LineStats(bits_sent=100, bits_flipped=3, transmits=2, bursts=1)
        b = LineStats(bits_sent=60, bits_flipped=1, transmits=1, bursts=4)
        merged = a.merge(b)
        assert merged == LineStats(
            bits_sent=160, bits_flipped=4, transmits=3, bursts=5
        )
        # merge() returns a fresh value; the operands are untouched.
        assert a.bits_sent == 100 and b.bits_sent == 60

    def test_as_dict_round_trip(self):
        stats = LineStats(bits_sent=8, bits_flipped=1, transmits=1, bursts=0)
        assert stats.as_dict() == {
            "bits_sent": 8, "bits_flipped": 1, "transmits": 1, "bursts": 0,
        }
        assert LineStats(**stats.as_dict()) == stats

    def test_empty_stats_have_zero_ber(self):
        assert LineStats().observed_ber == 0.0


class TestSerdes:
    """The PHY boundary: octet line to unmarked datapath words and back."""

    def test_round_trip(self, rng):
        data = rng.integers(0, 256, 101, dtype="uint8").tobytes()
        beats = beats_from_bytes(data, 4, frame_marks=False)
        assert bytes_from_beats(beats) == data

    def test_deserialize_no_frame_marks(self, rng):
        beats = beats_from_bytes(bytes(16), 4, frame_marks=False)
        assert not any(b.sof or b.eof for b in beats)

    def test_ragged_tail(self):
        beats = beats_from_bytes(bytes(5), 4, frame_marks=False)
        assert beats[-1].n_valid == 1
