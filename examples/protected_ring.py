#!/usr/bin/env python
"""1+1 protection switching: IP traffic surviving a fibre cut.

Real OC-48 links (the paper's deployment target) run protected: the
head end bridges every frame onto a working and a protection fibre;
the tail end selects whichever is healthy via the K1/K2 overhead
bytes.  This example streams PPP/IP traffic over a protected span,
cuts the working fibre mid-stream, and shows the selector switching to
protection within one frame — with zero frames lost, because both
fibres carry the same bridged signal.

The selector is the resilience layer's 1+1 ``ApsController``; here
each fibre's receive framer is its monitor: a line that has lost frame
alignment or counted a new OOF event this frame is failed.  With
``hold_off=1`` the selector switches in the frame the working line
fails.

Run:  python examples/protected_ring.py
"""

from repro.hdlc import Delineator, HdlcFramer
from repro.resilience import PROTECT, WORKING, ApsController, ApsRequest, LaneState
from repro.sonet import FramerState, SonetFramer, SonetRxFramer
from repro.workloads import ppp_frame_contents


def line_state(framer: SonetRxFramer, oof_before: int) -> LaneState:
    """One fibre's condition after a frame, as the selector reads it."""
    in_frame = framer.state in (FramerState.SYNC, FramerState.PRESYNC)
    if not in_frame or framer.counters.oof_events > oof_before:
        return LaneState.FAILED
    return LaneState.OK


def main() -> None:
    n = 12
    tx = SonetFramer(n)
    lines = {
        WORKING: SonetRxFramer(n, oof_threshold=1),
        PROTECT: SonetRxFramer(n, oof_threshold=1),
    }
    selector = ApsController(hold_off=1, revertive=False)
    delineator = Delineator()

    frames = ppp_frame_contents(400, seed=3)
    hdlc = HdlcFramer()
    stream = bytearray()
    for content in frames:
        stream += hdlc.encode(content)

    payload_per_frame = tx.payload_bytes_per_frame
    recovered = []
    cut_at = 8
    print(f"streaming {len(frames)} PPP frames over protected {tx.rate.oc_name}; "
          f"working fibre cut at frame {cut_at}\n")
    frame_no = 0
    while stream or frame_no < cut_at + 6:
        frame_no += 1
        chunk = bytes(stream[:payload_per_frame])
        del stream[:payload_per_frame]
        if len(chunk) < payload_per_frame:
            chunk += b"\x7e" * (payload_per_frame - len(chunk))
        wire = tx.build(chunk)
        working = wire if frame_no < cut_at else bytes(len(wire))  # the cut
        payloads, states = {}, {}
        for lane, line_bytes in ((WORKING, working), (PROTECT, wire)):
            framer = lines[lane]
            oof_before = framer.counters.oof_events
            payloads[lane] = framer.feed(line_bytes)
            states[lane] = line_state(framer, oof_before)
        switch = selector.evaluate(frame_no, states[WORKING], states[PROTECT])
        payload = payloads[selector.active]
        recovered += [c for c, good in delineator.push_bytes(payload) if good]
        marker = ""
        if switch is not None:
            marker = f"  <-- APS switch to {switch.to_lane} ({switch.request.name})"
        if frame_no <= cut_at + 3 or marker:
            print(f"  frame {frame_no:2d}: active={selector.active:<10} "
                  f"K1=0x{selector.k1_byte():02X} "
                  f"recovered={len(recovered):3d}{marker}")
        if not stream and frame_no >= cut_at + 6 and len(recovered) == len(frames):
            break

    print(f"\nrecovered {len(recovered)}/{len(frames)} PPP frames, "
          f"FCS errors: {delineator.stats.fcs_errors}")
    assert recovered == frames, "the bridged protection path loses nothing"
    assert selector.active == PROTECT
    assert [s.request for s in selector.switches] == [ApsRequest.SIGNAL_FAIL]
    print("protected_ring OK: fibre cut absorbed with zero frame loss.")


if __name__ == "__main__":
    main()
