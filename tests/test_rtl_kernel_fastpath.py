"""Kernel speedups must not change observable behaviour.

Covers the simulator-side optimisations that ride with the fastpath
engine: batched ``step(cycles=N)``, the cached clock order / watched
channel list with explicit invalidation, quiescence skipping, the
``Channel`` instrumentation taps that replaced method monkeypatching,
and the vectorised ``stuffed_length``.
"""

import pytest

from repro.core.config import P5Config
from repro.core.p5 import P5System, PhyWire
from repro.hdlc import Accm
from repro.hdlc.byte_stuffing import stuffed_length
from repro.rtl.module import Channel, Module
from repro.rtl.pipeline import StallPattern, StreamSink, StreamSource
from repro.rtl.simulator import Simulator
from repro.utils.rng import make_rng
from repro.workloads.packets import ppp_frame_contents


def _loopback(config=None):
    system = P5System(config or P5Config(), name="k")
    wire = PhyWire("k.wire", system.tx.phy_out, system.rx.phy_in)
    sim = Simulator(
        system.tx.modules + [wire] + system.rx.modules, system.channels
    )
    return system, sim


def test_batched_step_equals_repeated_single_steps():
    contents = ppp_frame_contents(5, seed=9)
    system_a, sim_a = _loopback()
    system_b, sim_b = _loopback()
    for content in contents:
        system_a.submit(content)
        system_b.submit(content)
    for _ in range(400):
        sim_a.step()
    sim_b.step(cycles=400)
    assert sim_a.cycle == sim_b.cycle == 400
    assert system_a.received() == system_b.received()
    assert system_a.oam.regs.dump() == system_b.oam.regs.dump()


def test_zero_cycle_step_is_a_no_op():
    _system, sim = _loopback()
    sim.step(cycles=0)
    assert sim.cycle == 0


def test_observers_fire_once_per_cycle_in_batched_steps():
    _system, sim = _loopback()
    seen = []
    sim.add_observer(seen.append)
    sim.step(cycles=7)
    assert seen == list(range(1, 8))


def test_add_module_after_stepping_is_clocked():
    class Counter(Module):
        def __init__(self):
            super().__init__("late.counter")
            self.ticks = 0

        def clock(self):
            self.ticks += 1

    _system, sim = _loopback()
    sim.step(cycles=3)
    late = Counter()
    sim.add_module(late)
    sim.step(cycles=5)
    assert late.ticks == 5


def test_quiescent_modules_still_age():
    """Skipped clocks must keep ``module.cycles`` advancing so stall
    schedules derived from it stay aligned with the unskipped run."""
    _system, sim = _loopback()
    sim.step(cycles=50)  # nothing submitted: the whole system is idle
    assert all(m.cycles == 50 for m in sim.modules)


def test_quiescence_does_not_change_delivery_with_stalls():
    from repro.rtl.pipeline import beats_from_bytes

    payload = bytes(make_rng(4).integers(0, 256, size=96, dtype="uint8"))
    results = []
    for _ in range(2):
        c_in = Channel("q.in", capacity=2)
        source = StreamSource(
            "q.src",
            c_in,
            beats_from_bytes(payload, 4),
            stall=StallPattern(probability=0.3, seed=11),
        )
        sink = StreamSink(
            "q.snk", c_in, stall=StallPattern(every=3)
        )
        sim = Simulator([source, sink], [c_in])
        sim.run_until(lambda: source.done and not c_in.can_pop, timeout=5_000)
        sim.drain(idle_cycles=8, timeout=5_000)
        results.append((sim.cycle, sink.data()))
    assert results[0] == results[1]
    assert results[0][1] == payload


def test_stall_pattern_is_never():
    assert StallPattern.never().is_never
    assert not StallPattern(every=4).is_never
    assert not StallPattern(probability=0.1, seed=1).is_never
    burst = StallPattern(every=2, burst=3)
    assert not burst.is_never


def test_channel_taps_fire_on_push_and_pop():
    channel = Channel("tap.ch", capacity=2)
    events = []
    channel.on_push = lambda item: events.append(("push", item))
    channel.on_pop = lambda item: events.append(("pop", item))
    channel.push("a")
    channel.push("b")
    assert channel.pop() == "a"
    assert events == [("push", "a"), ("push", "b"), ("pop", "a")]


def test_channel_slots_forbid_monkeypatching():
    channel = Channel("slots.ch", capacity=1)
    with pytest.raises(AttributeError):
        channel.extra_attribute = 1


def test_stuffed_length_vector_matches_scalar():
    rng = make_rng(7)
    accm = Accm.from_octets([0x11, 0x13])
    for size in (0, 1, 63, 64, 4096):
        data = bytes(rng.integers(0, 256, size=size, dtype="uint8"))
        escapes = {0x7E, 0x7D, 0x11, 0x13}
        expected = len(data) + sum(1 for b in data if b in escapes)
        assert stuffed_length(data, accm) == expected
    allflags = b"\x7e" * 500
    assert stuffed_length(allflags) == 1000
