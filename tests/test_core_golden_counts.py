"""Pinned simulated counts of the cycle engine, and the escape pass-through.

The cycle engine is the golden model every fast path is held to, so a
change to how it is computed must not change what it computes on any
cycle.  The counts below were recorded from the straightforward
per-lane implementation (``expand_word``/``contract_word`` on every
word, ``ParallelCrc`` stage values, per-octet delineation); any
speed-up of the kernel or the stages must reproduce them exactly.
"""

from typing import Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import P5Config, P5System
from repro.core.escape_pipeline import (
    PipelinedEscapeDetect,
    PipelinedEscapeGenerate,
    contract_word,
    expand_word,
)
from repro.core.oam import (
    ADDR_DANGLING_ESCAPES,
    ADDR_ESC_DELETED,
    ADDR_ESC_INSERTED,
    ADDR_RESYNC_DROPS_RX,
    ADDR_RESYNC_HIGHWATER_RX,
    ADDR_RESYNC_HIGHWATER_TX,
    ADDR_RX_ABORTS,
    ADDR_RX_FCS_ERRORS,
    ADDR_RX_FRAMES_OK,
    ADDR_RX_HUNT_DISCARDS,
    ADDR_RX_OVERSIZE,
    ADDR_RX_RUNTS,
    ADDR_TX_FRAMES,
)
from repro.core.p5 import PhyWire
from repro.errors import FramingError
from repro.faults.injectors import BeatFaultInjector
from repro.hdlc.constants import ESC_OCTET, FLAG_OCTET
from repro.ppp.frame import PPPFrame
from repro.rtl.module import Channel
from repro.rtl.pipeline import StallPattern, WordBeat
from repro.rtl.simulator import Simulator
from repro.workloads import ppp_frame_contents

_OAM_COUNTERS = (
    ADDR_TX_FRAMES,
    ADDR_RX_FRAMES_OK,
    ADDR_RX_FCS_ERRORS,
    ADDR_RX_RUNTS,
    ADDR_RX_HUNT_DISCARDS,
    ADDR_ESC_INSERTED,
    ADDR_ESC_DELETED,
    ADDR_RESYNC_HIGHWATER_TX,
    ADDR_RESYNC_HIGHWATER_RX,
    ADDR_DANGLING_ESCAPES,
    ADDR_RX_ABORTS,
    ADDR_RX_OVERSIZE,
    ADDR_RESYNC_DROPS_RX,
)


def _traffic(frames: int) -> list:
    """A seeded IMIX batch plus one escape-dense frame."""
    dense = PPPFrame(protocol=0x0021, information=bytes([FLAG_OCTET, ESC_OCTET, 0x11]) * 24)
    return ppp_frame_contents(frames, seed=13) + [dense.encode()]


def run_scenario(
    width_bits: int,
    frames: int,
    *,
    max_frame_octets: int = 0,
    sink_stall_seed: Optional[int] = None,
    lane_fault_after: Optional[int] = None,
) -> Tuple:
    """Run one batch to idle; return every simulated count as a tuple.

    ``(cycles, pushes per channel, stalled cycles per module, OAM
    counters, carry high-water marks, (frames received, frames good))``.
    """
    config = P5Config(width_bits=width_bits, max_frame_octets=max_frame_octets)
    system = P5System(config, name="golden")
    if lane_fault_after is None:
        wire = PhyWire("golden.wire", system.tx.phy_out, system.rx.phy_in)
    else:
        wire = BeatFaultInjector("golden.wire", system.tx.phy_out, system.rx.phy_in, seed=5)
        wire.arm("lane", after_beats=lane_fault_after)
    if sink_stall_seed is not None:
        # Memory-bus contention on the receive write port.
        system.rx.sink.stall = StallPattern(probability=0.3, seed=sink_stall_seed, burst=2)
    sim = Simulator(system.tx.modules + [wire] + system.rx.modules, system.channels)
    for content in _traffic(frames):
        system.submit(content)
    sim.run_until(system.idle, timeout=400_000)
    received = system.received()
    return (
        sim.cycle,
        tuple(ch.pushes for ch in system.channels),
        tuple(m.stalled_cycles for m in sim.modules),
        tuple(system.oam.read(addr) for addr in _OAM_COUNTERS),
        (system.tx.escape.max_carry_occupancy, system.rx.escape.max_carry_occupancy),
        (len(received), sum(ok for _, ok in received)),
    )


GOLDEN = {
    "w32": (
        2678,
        (2584, 2609, 2643, 2664, 2664, 2643, 2609, 2584),
        (61, 67, 62, 18, 0, 0, 0, 0, 0),
        (25, 25, 0, 0, 0, 124, 124, 3, 1, 0, 0, 0, 0),
        (10, 7),
        (25, 25),
    ),
    "w8": (
        4171,
        (4032, 4068, 4143, 4161, 4161, 4143, 4068, 4032),
        (103, 113, 95, 15, 0, 0, 0, 0, 0),
        (9, 9, 0, 0, 0, 75, 75, 3, 1, 0, 0, 0, 0),
        (2, 1),
        (9, 9),
    ),
    "w32-sink-stall": (
        4898,
        (2584, 2609, 2643, 2664, 2664, 2643, 2609, 2584),
        (2231, 2237, 4412, 2199, 0, 2184, 4464, 2263, 2308),
        (25, 25, 0, 0, 0, 124, 124, 3, 3, 0, 0, 0, 0),
        (10, 7),
        (25, 25),
    ),
    "w32-lane-fault": (
        2678,
        (2584, 2609, 2643, 2664, 2664, 2643, 2609, 2584),
        (61, 67, 62, 18, 0, 0, 0, 0, 0),
        (25, 24, 1, 0, 0, 124, 124, 3, 1, 0, 0, 0, 0),
        (10, 7),
        (25, 24),
    ),
    "w8-lane-fault": (
        4171,
        (4032, 4068, 4143, 4161, 4161, 4142, 4067, 4031),
        (103, 113, 95, 15, 0, 0, 0, 0, 0),
        (9, 8, 1, 0, 0, 75, 75, 3, 1, 0, 0, 0, 0),
        (2, 1),
        (9, 8),
    ),
    "w32-oversize": (
        2678,
        (2584, 2609, 2643, 2664, 2664, 958, 942, 917),
        (61, 67, 62, 18, 0, 0, 0, 0, 0),
        (25, 13, 12, 0, 6746, 124, 68, 3, 2, 0, 0, 12, 0),
        (10, 7),
        (25, 13),
    ),
}

SCENARIOS = {
    "w32": dict(width_bits=32, frames=24),
    "w8": dict(width_bits=8, frames=8),
    "w32-sink-stall": dict(width_bits=32, frames=24, sink_stall_seed=11),
    "w32-lane-fault": dict(width_bits=32, frames=24, lane_fault_after=40),
    "w8-lane-fault": dict(width_bits=8, frames=8, lane_fault_after=150),
    # Long IMIX frames are cut by the delineator's oversize bound.
    "w32-oversize": dict(width_bits=32, frames=24, max_frame_octets=258),
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_simulated_counts_are_pinned(scenario):
    assert run_scenario(**SCENARIOS[scenario]) == GOLDEN[scenario]


# ---------------------------------------------------------------------------
# Escape pass-through: the shortcut equals the per-lane golden functions

_octets = st.integers(min_value=0, max_value=0xFF)


@st.composite
def _beats(draw, width: int):
    lanes = draw(st.lists(_octets, min_size=width, max_size=width))
    valid = draw(st.lists(st.booleans(), min_size=width, max_size=width))
    # Bias towards the framing octets so both branches are exercised.
    for i in draw(st.lists(st.integers(0, width - 1), max_size=2)):
        lanes[i] = draw(st.sampled_from([FLAG_OCTET, ESC_OCTET, 0x11]))
    return WordBeat(tuple(lanes), tuple(valid), eof=draw(st.booleans()))


def _unit(cls, width: int, **kw):
    return cls("u", Channel("i"), Channel("o"), width_bytes=width, **kw)


@st.composite
def _framing(draw):
    """A (flag, escape, escape set) triple, as OAM reprogramming writes."""
    flag = draw(_octets)
    esc = draw(_octets.filter(lambda o: o != flag))
    extra = draw(st.frozensets(_octets, max_size=4))
    return flag, esc, extra | {flag, esc}


@given(data=st.data(), width=st.sampled_from([1, 2, 4, 8]))
@settings(max_examples=150, deadline=None)
def test_generate_pass_through_equals_expand_word(data, width):
    unit = _unit(PipelinedEscapeGenerate, width)
    escaped = 0
    for _ in range(data.draw(st.integers(1, 6))):
        if data.draw(st.booleans()):
            # Live reprogramming: the shortcut must follow the attributes.
            _flag, unit.esc_octet, unit.escapes = data.draw(_framing())
        beat = data.draw(_beats(width))
        expected = expand_word(beat, unit.escapes, unit.esc_octet)
        escaped += len(expected) - beat.n_valid
        assert unit._transform(beat) == expected
        assert unit.octets_escaped == escaped


@given(data=st.data(), width=st.sampled_from([1, 2, 4, 8]))
@settings(max_examples=150, deadline=None)
def test_detect_pass_through_equals_contract_word(data, width):
    unit = _unit(PipelinedEscapeDetect, width)
    pending, deleted, dangling = False, 0, 0
    for _ in range(data.draw(st.integers(1, 6))):
        if data.draw(st.booleans()):
            unit.flag_octet, unit.esc_octet, _escapes = data.draw(_framing())
        beat = data.draw(_beats(width))
        try:
            expected, pending, n = contract_word(beat, pending, unit.esc_octet, unit.flag_octet)
        except FramingError:
            with pytest.raises(FramingError):
                unit._transform(beat)
            return
        deleted += n
        if beat.eof and pending:
            dangling += 1
            pending = False
        assert unit._transform(beat) == expected
        assert (unit._pending_xor, unit.octets_deleted, unit.dangling_escape_errors) == (
            pending, deleted, dangling
        )
