"""End-to-end tests for the duplex P5 system (paper Figure 2)."""

import pytest

from repro.core import P5Config, run_duplex_exchange
from repro.core.p5 import build_duplex
from repro.crc import CRC16_X25
from repro.hdlc.constants import FLAG_OCTET
from repro.phy import make_beat_corruptor
from repro.ppp.frame import PPPFrame
from repro.workloads import ppp_frame_contents


class TestDuplexExchange:
    @pytest.mark.parametrize("width", [8, 16, 32, 64])
    def test_all_widths_deliver(self, width):
        frames_a = ppp_frame_contents(4, seed=1)
        frames_b = ppp_frame_contents(2, seed=2)
        result = run_duplex_exchange(
            frames_a, frames_b, P5Config(width_bits=width), timeout=400_000
        )
        assert [c for c, _ in result.b_received] == frames_a
        assert [c for c, _ in result.a_received] == frames_b
        assert result.all_good()

    def test_wider_is_faster(self):
        frames = ppp_frame_contents(3, seed=3)
        cycles = {}
        for width in (8, 32):
            cycles[width] = run_duplex_exchange(
                frames, [], P5Config(width_bits=width), timeout=400_000
            ).cycles
        # 4x the datapath should be roughly 4x fewer cycles (within 2x slop).
        assert cycles[8] > 2.0 * cycles[32]

    def test_escape_dense_traffic(self):
        content = PPPFrame(
            protocol=0x0021, information=bytes([0x7E, 0x7D]) * 100
        ).encode()
        result = run_duplex_exchange([content] * 3, [], timeout=400_000)
        assert [c for c, _ in result.b_received] == [content] * 3
        assert result.all_good()

    def test_one_byte_information(self):
        content = PPPFrame(protocol=0x0021, information=b"x").encode()
        result = run_duplex_exchange([content], [], timeout=50_000)
        assert result.b_received[0][0] == content

    def test_mtu_sized_frame(self):
        content = PPPFrame(protocol=0x0021, information=bytes(1500)).encode()
        result = run_duplex_exchange([content], [], timeout=100_000)
        assert result.b_received[0][0] == content

    def test_fcs16_configuration(self):
        config = P5Config(width_bits=32, fcs=CRC16_X25)
        frames = ppp_frame_contents(2, seed=4)
        result = run_duplex_exchange(frames, [], config, timeout=100_000)
        assert [c for c, _ in result.b_received] == frames

    def test_programmable_address(self):
        """MAPOS-style station addressing through the full datapath."""
        config = P5Config(address=0x0B)
        content = PPPFrame(
            protocol=0x0021, information=b"to station 5", address=0x0B
        ).encode()
        result = run_duplex_exchange([content], [], config, timeout=50_000)
        decoded = PPPFrame.decode(result.b_received[0][0], expected_address=0x0B)
        assert decoded.address == 0x0B


class TestErrorInjection:
    def test_corrupted_wire_detected_never_delivered_as_good(self):
        frames = ppp_frame_contents(20, seed=5)
        corrupt = make_beat_corruptor(ber=2e-4, seed=9)
        a, b, sim = build_duplex(P5Config.thirty_two_bit(), corrupt_ab=corrupt)
        for frame in frames:
            a.submit(frame)
        sim.run_until(
            lambda: not a.tx.busy and a.idle() and b.idle(), timeout=500_000
        )
        ok = [c for c, good in b.received() if good]
        bad = [c for c, good in b.received() if not good]
        assert corrupt.line.bits_flipped > 0
        assert len(bad) > 0, "with this BER some frames must break"
        # Every frame delivered as good must be byte-identical to a sent one.
        assert all(c in frames for c in ok)
        fcs_counted = b.rx.crc.fcs_errors + b.rx.crc.runt_frames
        assert fcs_counted >= 1
        # The sink took every released verdict: the CRC stage keeps none.
        assert not b.rx.crc.released_results
        assert b.rx.crc.frames_checked == len(b.received()) + b.rx.crc.runt_frames

    def test_clean_wire_all_good(self):
        frames = ppp_frame_contents(10, seed=6)
        result = run_duplex_exchange(frames, [], timeout=400_000)
        assert result.all_good()
        assert result.b.rx.crc.fcs_errors == 0


class TestIdleAndFlags:
    def test_flags_delimit_every_frame(self):
        result = run_duplex_exchange([b"one", b"two"], [], timeout=50_000)
        assert result.a.tx.flags.flags_inserted == 4  # open+close per frame

    def test_system_idle_after_exchange(self):
        result = run_duplex_exchange([b"payload"], [], timeout=50_000)
        assert result.a.idle() and result.b.idle()

    def test_received_accessor(self):
        result = run_duplex_exchange([b"payload"], [], timeout=50_000)
        assert result.b.received() == result.b_received
