"""1+1 automatic protection switching at the SONET line layer.

A bridged head end feeds a working and a protection fibre; each
fibre's receive framer reports its condition to the one APS selector,
:class:`repro.resilience.ApsController`, as in
``examples/protected_ring.py``: a line that lost frame alignment or
counted a new OOF event this frame is failed.
"""

from repro.resilience import PROTECT, WORKING, ApsController, ApsRequest, LaneState
from repro.sonet import FramerState, SonetFramer, SonetRxFramer


class ApsHarness:
    """A bridged head end feeding both fibres of a 1+1 tail end."""

    def __init__(self, n=3, **aps_kwargs):
        self.tx = SonetFramer(n)
        self.lines = {
            WORKING: SonetRxFramer(n, oof_threshold=1),
            PROTECT: SonetRxFramer(n, oof_threshold=1),
        }
        # 1+1 defaults to non-revertive; hold_off=1 switches in the failing frame.
        self.selector = ApsController(**{"hold_off": 1, "revertive": False, **aps_kwargs})
        self.payload = bytes([0x7E]) * self.tx.payload_bytes_per_frame
        self.frame_no = 0

    def line_state(self, lane, line_bytes):
        framer = self.lines[lane]
        oof_before = framer.counters.oof_events
        payload = framer.feed(line_bytes)
        in_frame = framer.state in (FramerState.SYNC, FramerState.PRESYNC)
        failed = not in_frame or framer.counters.oof_events > oof_before
        return payload, LaneState.FAILED if failed else LaneState.OK

    def receive(self, working, protection):
        """Feed one frame period from both fibres; return the selected payload."""
        self.frame_no += 1
        w_payload, w_state = self.line_state(WORKING, working)
        p_payload, p_state = self.line_state(PROTECT, protection)
        self.selector.evaluate(self.frame_no, w_state, p_state)
        return w_payload if self.selector.active == WORKING else p_payload

    def frame(self, *, cut_working=False) -> bytes:
        wire = self.tx.build(self.payload)
        working = bytes(len(wire)) if cut_working else wire   # LOS: all-zero line
        return self.receive(working, wire)


def cut_after_four(harness, cut_frames=3):
    for _ in range(4):
        harness.frame()
    return [harness.frame(cut_working=True) for _ in range(cut_frames)]


class TestSelection:
    def test_starts_on_working(self):
        harness = ApsHarness()
        assert harness.selector.active == WORKING

    def test_healthy_lines_no_switch(self):
        harness = ApsHarness()
        for _ in range(6):
            harness.frame()
        assert harness.selector.active == WORKING
        assert harness.selector.switches == []
        assert harness.selector.request is ApsRequest.NO_REQUEST

    def test_fibre_cut_switches_to_protection(self):
        harness = ApsHarness()
        cut_after_four(harness)
        assert harness.selector.active == PROTECT
        assert harness.selector.switches[0].request is ApsRequest.SIGNAL_FAIL
        # hold_off=1: the switch lands in the frame the cut is seen.
        assert harness.selector.switches[0].interval == 5

    def test_payload_continues_after_switch(self):
        harness = ApsHarness()
        payloads = cut_after_four(harness, cut_frames=4)
        # After the switch the protection line still delivers payload.
        assert all(p == harness.payload for p in payloads)

    def test_non_revertive_by_default(self):
        harness = ApsHarness()
        cut_after_four(harness)
        for _ in range(6):
            harness.frame()   # working healthy again
        assert harness.selector.active == PROTECT
        assert len(harness.selector.switches) == 1

    def test_revertive_mode_switches_back(self):
        harness = ApsHarness(revertive=True, wait_to_restore=3)
        cut_after_four(harness)
        assert harness.selector.active == PROTECT
        for _ in range(8):
            harness.frame()
        assert harness.selector.active == WORKING
        requests = [s.request for s in harness.selector.switches]
        assert requests == [ApsRequest.SIGNAL_FAIL, ApsRequest.WAIT_TO_RESTORE]

    def test_no_switch_when_standby_also_down(self):
        harness = ApsHarness()
        for _ in range(4):
            harness.frame()
        # Both lines destroyed: the selector must not flap onto a dead line.
        dark = bytes(len(harness.tx.build(harness.payload)))
        harness.receive(dark, dark)
        harness.receive(dark, dark)
        assert harness.selector.active == WORKING
        assert harness.selector.switches == []

    def test_forced_switch(self):
        harness = ApsHarness()
        for _ in range(3):
            harness.frame()
        harness.selector.force_switch(harness.frame_no)
        assert harness.selector.active == PROTECT
        assert harness.selector.request is ApsRequest.FORCED_SWITCH


class TestSignalling:
    def test_k1_channel_number(self):
        harness = ApsHarness()
        for _ in range(3):
            harness.frame()
        assert harness.selector.k1_byte() & 0x0F == 0
        harness.selector.force_switch(harness.frame_no)
        assert harness.selector.k1_byte() & 0x0F == 1

    def test_k1_request_code(self):
        harness = ApsHarness()
        for _ in range(4):
            harness.frame()
        harness.frame(cut_working=True)
        # The switching frame signals SIGNAL_FAIL on the protection channel.
        assert harness.selector.k1_byte() == (ApsRequest.SIGNAL_FAIL << 4) | 1
        harness.frame(cut_working=True)
        # Once settled on a healthy line the request drops back.
        assert harness.selector.k1_byte() == (ApsRequest.NO_REQUEST << 4) | 1

    def test_switch_event_log(self):
        harness = ApsHarness()
        cut_after_four(harness)
        record = harness.selector.switches[0]
        assert record.to_lane == PROTECT and record.interval > 4
        [event] = harness.selector.log.select(category="aps", kind="switch")
        assert event.interval == record.interval
        assert event.detail["k1"] == (ApsRequest.SIGNAL_FAIL << 4) | 1
