"""Bounded state and linear time on hostile input through the cycle RX.

A megabyte with no flag at all, and a megabyte-long frame that never
closes, must neither grow the receiver's state nor slow it down: the
delineator carries at most one word of holdback plus the frame-size
limit, every buffer in the receiver holds as much after 1 MB as after
100 kB, and the 1 MB run takes ten times the 100 kB run's cycles.
"""

from collections import deque

import pytest

from repro.core.config import P5Config
from repro.core.rx import P5Receiver
from repro.rtl.module import Module
from repro.rtl.simulator import Simulator

LIMIT = 1600
CONFIG = P5Config(max_frame_octets=LIMIT)


class _LineFeeder(Module):
    """Feeds a line one word per cycle, slicing it as it goes."""

    def __init__(self, name, out, line, width_bytes):
        super().__init__(name)
        self.out = self.writes(out)
        self.line = line
        self.width_bytes = width_bytes
        self.offset = 0

    @property
    def done(self):
        return self.offset >= len(self.line)

    def clock(self):
        if not self.done and self.out.can_push:
            end = self.offset + self.width_bytes
            self.out.push((self.line[self.offset : end], False, False))
            self.offset = end


def _retained(rx):
    """Items held by every growable container in the receiver's modules."""
    sizes = {}
    for module in rx.modules:
        for name, value in vars(module).items():
            if isinstance(value, (bytes, bytearray, list, deque, dict)):
                sizes[f"{module.name}.{name}"] = len(value)
    return sizes


def _run(line):
    rx = P5Receiver(CONFIG)
    feeder = _LineFeeder("line", rx.phy_in, line, CONFIG.width_bytes)
    sim = Simulator([feeder] + rx.modules, rx.channels)
    peak = {"carry": 0, "retained": 0}

    def watch(cycle):
        peak["carry"] = max(peak["carry"], len(rx.delineator._carry))
        if cycle % 997 == 0:
            peak["retained"] = max(peak["retained"], sum(_retained(rx).values()))

    sim.add_observer(watch)
    sim.run_until(
        lambda: feeder.done and not any(rx.channels) and rx.escape.idle,
        timeout=2_000_000,
    )
    return sim.cycle, peak, rx


def _flagless(octets):
    return b"\x55" * octets


def _endless_frame(octets):
    return b"\x7e" + b"\x41" * (octets - 1)


@pytest.mark.parametrize("line", [_flagless, _endless_frame], ids=["flagless", "endless-frame"])
def test_hostile_megabyte_holds_bounded_state_in_linear_time(line):
    small_cycles, small_peak, small = _run(line(100_000))
    cycles, peak, rx = _run(line(1_000_000))

    w = CONFIG.width_bytes
    assert peak["carry"] <= w + LIMIT
    assert _retained(rx) == _retained(small)
    assert peak["retained"] <= small_peak["retained"] + w + LIMIT
    assert cycles <= 1.1 * 10 * small_cycles
    # Every octet is accounted for: hunt discard, or the opening flag
    # and the cut prefix, which is force-closed once as a bad frame.
    delin = rx.delineator
    endless = line is _endless_frame
    framed = 1 + LIMIT + 1 if endless else 0
    assert delin.octets_discarded_hunting + framed == 1_000_000
    assert delin.oversize_drops == len(rx.frames) == int(endless)
    assert not any(good for _, good in rx.frames)
