"""Bounded state and linear work on hostile input through the GFP delineator.

Between calls the receiver holds at most one core header plus the
largest payload area its 16-bit PLI can announce (4 + 65 535 octets),
however much input arrives.  Work is counted as core-header checks,
not wall time: each check discards an octet, consumes a header, or
waits for the rest of a frame once per fed chunk.
"""

import pytest

from repro.gfp.delineator import GfpDelineator
from repro.gfp.frame import core_header
from repro.utils.rng import make_rng

MAX_BUFFER = 4 + 0xFFFF
CHUNK = 4096
OCTETS = 1_000_000


def _random(octets):
    return make_rng(1).integers(0, 256, octets, dtype="uint8").tobytes()


def _endless_frame(octets):
    """A valid core header announcing PLI 65 535, then data that never ends."""
    return core_header(0xFFFF) + b"\x41" * (octets - 4)


def _run(line):
    rx = GfpDelineator()
    checks = 0
    check = rx._header_pli

    def counting(window, *, correct):
        nonlocal checks
        checks += 1
        return check(window, correct=correct)

    rx._header_pli = counting
    peak = feeds = 0
    for offset in range(0, len(line), CHUNK):
        rx.feed(line[offset : offset + CHUNK])
        feeds += 1
        peak = max(peak, len(rx._buffer))
    return checks, feeds, peak, rx


@pytest.mark.parametrize("line", [_random, _endless_frame], ids=["random", "endless-frame"])
def test_hostile_megabyte_holds_bounded_state_in_linear_work(line):
    checks, feeds, peak, rx = _run(line(OCTETS))
    assert peak <= MAX_BUFFER
    assert checks <= OCTETS + feeds
    assert rx.stats.frames_ok == 0
    if line is _endless_frame:
        # The frame is held until its last octet arrives (16 chunks in),
        # then fails its payload checks; every octet after it is hunted.
        assert peak == 16 * CHUNK
        assert rx.stats.client_errors == 1
        assert rx.stats.bytes_discarded_hunting == OCTETS - MAX_BUFFER - len(rx._buffer)
