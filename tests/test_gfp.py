"""Unit tests for the GFP baseline framing (G.7041)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FcsError, FramingError
from repro.gfp import (
    GfpDelineator,
    GfpFrame,
    GfpState,
    GfpType,
    core_header,
    idle_frame,
)
from repro.gfp.frame import CORE_SCRAMBLE


class TestCoreHeader:
    def test_scrambled(self):
        # An all-zero PLI would otherwise produce an all-zero header.
        assert idle_frame() != bytes(4)
        raw = bytes(a ^ b for a, b in zip(idle_frame(), CORE_SCRAMBLE))
        assert raw[:2] == b"\x00\x00"

    def test_pli_range(self):
        with pytest.raises(ValueError):
            core_header(0x10000)

    def test_idle_is_4_bytes(self):
        assert len(idle_frame()) == 4


class TestFrameCodec:
    def test_constant_overhead(self):
        """GFP's defining property: overhead independent of content."""
        for payload in (b"x", bytes([0x7E]) * 100, bytes(1500)):
            frame = GfpFrame(payload)
            assert frame.wire_length == len(payload) + 12
            assert len(frame.encode()) == frame.wire_length

    def test_no_pfcs_variant(self):
        frame = GfpFrame(b"data", with_pfcs=False)
        assert frame.wire_length == 4 + 4 + 4

    def test_round_trip(self, rng):
        payload = rng.integers(0, 256, 200, dtype="uint8").tobytes()
        frame = GfpFrame(payload, upi=GfpType.PPP)
        area = frame.encode()[4:]
        decoded = GfpFrame.decode_payload_area(area)
        assert decoded.payload == payload and decoded.upi == GfpType.PPP

    def test_thec_protects_type(self):
        area = bytearray(GfpFrame(b"payload").encode()[4:])
        area[0] ^= 0x10
        with pytest.raises(FcsError):
            GfpFrame.decode_payload_area(bytes(area))

    def test_pfcs_protects_payload(self):
        area = bytearray(GfpFrame(b"payload").encode()[4:])
        area[6] ^= 0x01
        with pytest.raises(FcsError):
            GfpFrame.decode_payload_area(bytes(area))

    def test_truncated_area(self):
        with pytest.raises(FramingError):
            GfpFrame.decode_payload_area(b"\x00")


class TestDelineation:
    def _wire(self, payloads, idles=2):
        parts = [idle_frame()] * idles
        parts += [GfpFrame(p).encode() for p in payloads]
        return b"".join(parts)

    def test_sync_from_clean_start(self, rng):
        payloads = [rng.integers(0, 256, 50, dtype="uint8").tobytes()
                    for _ in range(5)]
        d = GfpDelineator()
        got = d.feed(self._wire(payloads))
        assert [g.payload for g in got] == payloads
        assert d.state is GfpState.SYNC

    def test_hunting_through_junk(self, rng):
        payloads = [b"hello gfp"] * 3
        junk = bytes([0x55, 0xAA, 0x01])
        d = GfpDelineator()
        got = d.feed(junk + self._wire(payloads))
        assert len(got) == 3
        assert d.stats.bytes_discarded_hunting >= len(junk)

    def test_chunked_feed_equivalent(self, rng):
        payloads = [rng.integers(0, 256, int(rng.integers(1, 200)),
                                 dtype="uint8").tobytes() for _ in range(8)]
        wire = self._wire(payloads)
        for chunk in (1, 3, 17, len(wire)):
            d = GfpDelineator()
            got = []
            for i in range(0, len(wire), chunk):
                got += d.feed(wire[i : i + chunk])
            assert [g.payload for g in got] == payloads, f"chunk={chunk}"

    def test_single_bit_header_error_corrected_in_sync(self, rng):
        payloads = [rng.integers(0, 256, 40, dtype="uint8").tobytes()
                    for _ in range(6)]
        wire = bytearray(self._wire(payloads, idles=4))
        # Flip one bit in the 4th data frame's core header.
        offset = 4 * 4 + sum(len(GfpFrame(p).encode()) for p in payloads[:3])
        wire[offset + 1] ^= 0x20
        d = GfpDelineator()
        got = d.feed(bytes(wire))
        assert len(got) == 6            # nothing lost
        assert d.stats.corrected_headers == 1
        assert d.stats.resyncs == 0

    def test_every_header_bit_position_corrected(self):
        payloads = [bytes(range(40))] * 5
        wire = self._wire(payloads, idles=4)
        offset = 4 * 4 + 2 * len(GfpFrame(payloads[0]).encode())
        for bit in range(32):
            damaged = bytearray(wire)
            damaged[offset + bit // 8] ^= 0x80 >> (bit % 8)
            d = GfpDelineator()
            assert [g.payload for g in d.feed(bytes(damaged))] == payloads, f"bit={bit}"
            assert d.stats.corrected_headers == 1

    def test_correction_disabled(self, rng):
        payloads = [b"abcdef"] * 6
        wire = bytearray(self._wire(payloads, idles=4))
        offset = 16 + len(GfpFrame(b"abcdef").encode()) * 2
        wire[offset] ^= 0x80
        d = GfpDelineator(correct_single_bit=False)
        got = d.feed(bytes(wire))
        assert d.stats.resyncs >= 1
        assert len(got) < 6             # the damaged frame (at least) lost

    def test_multibit_header_error_resyncs(self, rng):
        payloads = [rng.integers(0, 256, 30, dtype="uint8").tobytes()
                    for _ in range(6)]
        wire = bytearray(self._wire(payloads, idles=4))
        offset = 16 + len(GfpFrame(payloads[0]).encode())
        wire[offset] ^= 0xFF            # uncorrectable burst in header
        wire[offset + 1] ^= 0xFF
        d = GfpDelineator()
        got = d.feed(bytes(wire))
        assert d.stats.resyncs >= 1
        # It relocks and recovers the tail frames.
        assert got and got[-1].payload == payloads[-1]

    def test_client_error_counted_not_fatal(self, rng):
        payloads = [rng.integers(0, 256, 30, dtype="uint8").tobytes()
                    for _ in range(4)]
        wire = bytearray(self._wire(payloads, idles=2))
        # Corrupt a payload byte (not the header): pFCS catches it,
        # delineation keeps running.
        offset = 8 + 4 + 4 + 5
        wire[offset] ^= 0x01
        d = GfpDelineator()
        got = d.feed(bytes(wire))
        assert d.stats.client_errors == 1
        assert d.stats.resyncs == 0
        assert len(got) == 3

    def test_idle_fill_between_frames(self):
        d = GfpDelineator()
        wire = idle_frame() * 10 + GfpFrame(b"x").encode() + idle_frame() * 5
        got = d.feed(wire)
        assert len(got) == 1
        assert d.stats.idle_frames == 15


@settings(max_examples=40, deadline=None)
@given(
    payloads=st.lists(st.binary(min_size=1, max_size=150), min_size=1, max_size=6),
    junk=st.binary(max_size=10),
)
def test_gfp_property_round_trip(payloads, junk):
    wire = junk + b"".join(
        [idle_frame() * 2] + [GfpFrame(p).encode() for p in payloads]
    )
    d = GfpDelineator()
    got = d.feed(wire)
    # Junk may eat into hunting, but once locked everything decodes;
    # recovered payloads are a suffix of what was sent.
    sent = [p for p in payloads]
    assert [g.payload for g in got] == sent[len(sent) - len(got):]
    assert len(got) >= len(sent) - 1   # at most the first frame lost
