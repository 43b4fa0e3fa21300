"""Graph DRC rules: one good and one bad topology per rule code."""

import pytest

from repro.core.config import P5Config
from repro.core.p5 import build_duplex
from repro.core.rx import WordDelineator
from repro.lint import RULES, Severity, lint_topology
from repro.rtl.module import Channel, ChannelTiming, Module, TimingContract
from repro.rtl.pipeline import StreamSink, StreamSource
from repro.rtl.simulator import Simulator


class Mover(Module):
    """Minimal well-behaved stage: one input, one output."""

    def __init__(self, name, inp, out):
        super().__init__(name)
        self.inp = self.reads(inp)
        self.out = self.writes(out)

    def clock(self):
        if self.inp.can_pop and self.out.can_push:
            self.out.push(self.inp.pop())


class Store(Mover):
    """A stage that buffers through a registered self-loop channel."""

    def __init__(self, name, inp, out, depth):
        super().__init__(name, inp, out)
        self.store = self.reads(self.writes(Channel(f"{name}.store", capacity=depth)))

    def timing_contract(self):
        # One cycle into the store, one out of it.
        return TimingContract(
            latency_cycles=2,
            outputs=(ChannelTiming(self.out), ChannelTiming(self.store)),
        )

    def clock(self):
        if self.store and self.out.can_push:
            self.out.push(self.store.pop())
        if self.inp and self.store.can_push:
            self.store.push(self.inp.pop())


def codes(findings):
    return sorted({f.code for f in findings})


def chain(n=3):
    """source -> mover(s) -> sink over n+1 channels; returns (modules, channels)."""
    channels = [Channel(f"c{i}") for i in range(n)]
    modules = [StreamSource("src", channels[0], [])]
    for i in range(n - 1):
        modules.append(Mover(f"m{i}", channels[i], channels[i + 1]))
    modules.append(StreamSink("sink", channels[-1]))
    return modules, channels


# ------------------------------------------------------------------ clean
def test_clean_chain_has_no_findings():
    modules, channels = chain()
    assert lint_topology(modules, channels) == []


def test_shipped_duplex_is_clean_both_widths():
    for config in (P5Config.thirty_two_bit(), P5Config.eight_bit()):
        _a, _b, sim = build_duplex(config)
        assert lint_topology(sim.modules, sim.channels) == [], config.describe()


def test_fifo_self_loop_is_legal():
    c_in, c_out = Channel("in"), Channel("out")
    fifo = Store("fifo", c_in, c_out, depth=4)
    modules = [StreamSource("src", c_in, []), fifo, StreamSink("sink", c_out)]
    assert lint_topology(modules, [c_in, c_out, fifo.store]) == []


# ---------------------------------------------------------------- P5D001/2
def test_double_writer_channel_flagged():
    shared = Channel("shared")
    src_a = StreamSource("srcA", shared, [])
    src_b = StreamSource("srcB", shared, [])
    sink = StreamSink("sink", shared)
    findings = lint_topology([src_a, src_b, sink], [shared])
    assert "P5D001" in codes(findings)
    assert any("srcA" in f.message and "srcB" in f.message for f in findings)


def test_double_reader_channel_flagged():
    shared = Channel("shared")
    src = StreamSource("src", shared, [])
    sink_a = StreamSink("sinkA", shared)
    sink_b = StreamSink("sinkB", shared)
    findings = lint_topology([src, sink_a, sink_b], [shared])
    assert "P5D002" in codes(findings)


# ------------------------------------------------------------------ P5D003
def test_dangling_channel_flagged_both_ways():
    unread = Channel("unread")
    StreamSource("src", unread, [])
    unfed = Channel("unfed")
    sink = StreamSink("sink", unfed)
    findings = lint_topology([sink], [unread, unfed])
    dangling = [f for f in findings if f.code == "P5D003"]
    assert {f.subject for f in dangling} == {"unread", "unfed"}


# ------------------------------------------------------------------ P5D004
def test_unreachable_ring_flagged_as_warning():
    c_ab, c_ba = Channel("ab"), Channel("ba")
    a = Mover("a", c_ba, c_ab)
    b = Mover("b", c_ab, c_ba)
    findings = lint_topology([a, b], [c_ab, c_ba])
    unreachable = [f for f in findings if f.code == "P5D004"]
    assert {f.subject for f in unreachable} == {"a", "b"}
    assert all(f.severity is Severity.WARNING for f in unreachable)
    # A registered ring is NOT a combinational loop.
    assert "P5D007" not in codes(findings)


# ------------------------------------------------------------------ P5D005
def test_misordered_simulator_module_list_flagged():
    modules, channels = chain()
    findings = lint_topology(list(reversed(modules)), channels)
    assert "P5D005" in codes(findings)


def test_misordered_list_names_the_offending_pair():
    c = Channel("c")
    src = StreamSource("src", c, [])
    sink = StreamSink("sink", c)
    (finding,) = lint_topology([sink, src], [c])
    assert finding.code == "P5D005"
    assert "src" in finding.message and "sink" in finding.message


# ------------------------------------------------------------------ P5D006
def test_capacity_shortfall_flagged():
    inp = Channel("phy", capacity=4)
    out = Channel("body", capacity=2)      # delineator needs W+2 = 6
    delin = WordDelineator("delin", inp, out, width_bytes=4)
    findings = lint_topology(
        [StreamSource("src", inp, []), delin, StreamSink("sink", out)],
        [inp, out],
    )
    assert "P5D006" in codes(findings)
    (shortfall,) = [f for f in findings if f.code == "P5D006"]
    assert "6" in shortfall.message and "2" in shortfall.message


def test_adequate_capacity_not_flagged():
    inp = Channel("phy", capacity=4)
    out = Channel("body", capacity=12)
    delin = WordDelineator("delin", inp, out, width_bytes=4)
    findings = lint_topology(
        [StreamSource("src", inp, []), delin, StreamSink("sink", out)],
        [inp, out],
    )
    assert "P5D006" not in codes(findings)


# ------------------------------------------------------------------ P5D007
def test_combinational_loop_flagged():
    c_ab = Channel("ab", registered=False)
    c_ba = Channel("ba", registered=False)
    a = Mover("a", c_ba, c_ab)
    b = Mover("b", c_ab, c_ba)
    findings = lint_topology([a, b], [c_ab, c_ba])
    assert "P5D007" in codes(findings)


def test_loop_with_one_registered_channel_is_legal():
    c_ab = Channel("ab", registered=False)
    c_ba = Channel("ba", registered=True)
    a = Mover("a", c_ba, c_ab)
    b = Mover("b", c_ab, c_ba)
    findings = lint_topology([a, b], [c_ab, c_ba])
    assert "P5D007" not in codes(findings)


# ------------------------------------------------------------------ P5D008
def test_unclocked_endpoint_flagged():
    modules, channels = chain()
    missing = modules.pop(1)           # wired but never handed to the sim
    findings = lint_topology(modules, channels)
    assert "P5D008" in codes(findings)
    assert any(missing.name in f.message for f in findings)


# ------------------------------------------------------- simulator order
def test_lint_simulator_sees_the_module_order():
    modules, channels = chain()
    sim = Simulator(list(reversed(modules)), channels)
    assert "P5D005" in codes(lint_topology(sim.modules, sim.channels))


def test_every_graph_rule_is_registered():
    for code in ("P5D001", "P5D002", "P5D003", "P5D004",
                 "P5D005", "P5D006", "P5D007", "P5D008"):
        assert code in RULES
        assert RULES[code].rationale


def test_registration_is_observational():
    """Wiring bookkeeping must not change simulation behaviour."""
    modules, channels = chain()
    src = modules[0]
    src.extend([])
    sim = Simulator(modules, channels)
    sim.step(5)
    assert sim.cycle == 5
    assert channels[0].producers == [src]
    assert pytest.approx(channels[0].pushes) == 0
