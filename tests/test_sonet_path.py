"""Integration tests: PPP over SONET (RFC 1619 / RFC 2615)."""

import pytest

from repro.hdlc import Delineator
from repro.sonet import PppOverSonet
from repro.workloads import ppp_frame_contents


@pytest.mark.parametrize("scrambling", [True, False], ids=["rfc2615", "rfc1619"])
class TestPathRoundTrip:
    def test_frames_recovered(self, scrambling):
        path = PppOverSonet(12, payload_scrambling=scrambling)
        frames = ppp_frame_contents(15, seed=1)
        for frame in frames:
            path.queue_frame(frame)
        got = []
        while path.tx_backlog_frames or len(got) < len(frames):
            got += path.receive_line(path.next_line_frame())
            if len(got) >= len(frames):
                break
        assert got == frames
        assert path.hdlc_stats.total_errors() == 0

    def test_idle_line_is_flag_fill(self, scrambling):
        """An empty queue still produces full frames (flag idle fill)."""
        path = PppOverSonet(3, payload_scrambling=scrambling)
        wire = path.next_line_frame()
        assert len(wire) == 9 * 270
        got = path.receive_line(wire)
        got += path.receive_line(path.next_line_frame())
        assert got == []
        assert path.hdlc_stats.total_errors() == 0


class TestRates:
    def test_oc48_carries_imix_burst(self):
        path = PppOverSonet(48)
        frames = ppp_frame_contents(40, seed=2)
        for frame in frames:
            path.queue_frame(frame)
        got = []
        for _ in range(4):   # 4 frames x 125us is plenty for 40 packets
            got += path.receive_line(path.next_line_frame())
        assert got == frames

    def test_backlog_drains_over_time(self):
        path = PppOverSonet(3)
        big = [b"\xff\x03\x00\x21" + bytes(1000) for _ in range(6)]
        for frame in big:
            path.queue_frame(frame)
        assert path.tx_backlog_frames > 0
        got = []
        for _ in range(8):
            got += path.receive_line(path.next_line_frame())
        assert got == big


class TestMisalignment:
    def test_rx_joins_late(self):
        path = PppOverSonet(3)
        # First line frame reaches the receiver clipped (powered up
        # late); it carries only idle flags and is lost to hunting.
        got = path.receive_line(path.next_line_frame()[100:])
        frames = ppp_frame_contents(5, seed=3)
        for frame in frames:
            path.queue_frame(frame)
        for _ in range(4):
            got += path.receive_line(path.next_line_frame())
        # The x^43+1 descrambler needs 43 bits to self-synchronise, so
        # the opening of the very first PPP frame is garbled and that
        # frame is lost to HDLC hunting; everything after is intact.
        assert got == frames[1:]
        assert path.hdlc_stats.octets_discarded_hunting > 0


class TestBoundedReceiveState:
    def test_delineator_holds_no_per_frame_state(self):
        """2000 frames line frame by line frame: only the open body is carried."""
        path = PppOverSonet(3)
        frames = ppp_frame_contents(2000, seed=8)
        longest_wire = max(len(path.encoder.encode(frame)) for frame in frames)
        for frame in frames:
            path.queue_frame(frame)
        got = []
        for _ in range(1000):
            got += path.receive_line(path.next_line_frame())
            assert len(path.delineator._body) < longest_wire
            if len(got) >= len(frames):
                break
        assert got == frames
        assert path.hdlc_stats.total_errors() == 0
        assert not hasattr(path.delineator, "frames")

    def test_flagless_stream_while_hunting_carries_nothing(self):
        delineator = Delineator()
        junk = bytes(v for v in range(256) if v != 0x7E)
        for _ in range(100):
            assert delineator.push_bytes(junk) == []
        assert not delineator.in_sync
        assert delineator._body == b""
        assert delineator.stats.octets_discarded_hunting == 100 * len(junk)
