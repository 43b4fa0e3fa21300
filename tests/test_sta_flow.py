"""The sta flow solver and deadlock-credit checker, plus their mutants."""

from repro.core.escape_pipeline import PipelinedEscapeGenerate
from repro.rtl.module import Channel, ChannelTiming, Module, TimingContract
from repro.rtl.pipeline import StreamSink, StreamSource
from repro.sta import (
    analyze_topology,
    canonical_findings,
    channel_demands,
    cycle_credits,
)


class Expander(Module):
    """Fixture stage with declarable expansion and burst figures."""

    def __init__(self, name, inp, out, expansion=1.0, burst=1):
        super().__init__(name)
        self.inp = self.reads(inp)
        self.out = self.writes(out)
        self._expansion = expansion
        self._burst = burst

    def clock(self):
        if self.inp.can_pop and self.out.can_push:
            self.out.push(self.inp.pop())

    def timing_contract(self):
        return TimingContract(
            latency_cycles=1,
            outputs=(
                ChannelTiming(
                    self.out, max_expansion=self._expansion,
                    burst_words=self._burst,
                ),
            ),
        )


def codes(findings):
    return sorted({f.code for f in findings})


class TestChannelDemands:
    def test_defaults_to_one_word(self):
        ch = Channel("c", capacity=1)
        src = StreamSource("src", ch, [])
        sink = StreamSink("sink", ch)
        demands = {d.channel.name: d for d in channel_demands([src, sink], [ch])}
        assert demands["c"].required == 1

    def test_burst_declaration_raises_the_demand(self):
        c_in, c_out = Channel("in"), Channel("out", capacity=4)
        stage = Expander("e", c_in, c_out, burst=3)
        modules = [StreamSource("src", c_in, []), stage, StreamSink("sink", c_out)]
        demands = {d.channel.name: d for d in channel_demands(modules)}
        assert demands["out"].required == 3
        assert demands["out"].producer == "e"


def ring(burst=1, capacity=1):
    """Two stages in a registered feedback ring, fed by a source."""
    c_in = Channel("in")
    c_ab = Channel("ab", capacity=capacity)
    c_ba = Channel("ba", capacity=capacity)
    src = StreamSource("src", c_in, [])
    a = Expander("a", c_in, c_ab, burst=burst)
    a.reads(c_ba)
    b = Expander("b", c_ab, c_ba)
    return [src, a, b], [c_in, c_ab, c_ba]


class TestCycleCredits:
    def test_registered_ring_with_enough_credit_is_deadlock_free(self):
        modules, channels = ring()
        (credit,) = cycle_credits(modules, channels)
        assert set(credit.modules) == {"a", "b"}
        assert credit.registered
        assert credit.credit == 2 and credit.demand == 2
        assert credit.deadlock_free

    def test_burst_demand_can_exceed_ring_credit(self):
        modules, channels = ring(burst=2)
        (credit,) = cycle_credits(modules, channels)
        assert credit.demand == 3 and credit.credit == 2
        assert not credit.deadlock_free

    def test_acyclic_chain_has_no_cycles(self):
        ch = Channel("c")
        modules = [StreamSource("src", ch, []), StreamSink("sink", ch)]
        assert cycle_credits(modules, [ch]) == []


class TestStaticMutants:
    """Each seeded defect must be caught without clocking a cycle."""

    def test_undersized_resync_buffer_is_a_p5t002(self):
        c_in, c_out = Channel("in", capacity=2), Channel("out", capacity=4)
        gen = PipelinedEscapeGenerate("gen", c_in, c_out, width_bytes=4)
        gen.resync_capacity = 2          # below the static worst case
        findings = analyze_topology(
            [StreamSource("src", c_in, []), gen, StreamSink("sink", c_out)]
        )
        resync = [f for f in findings if f.code == "P5T002"]
        assert resync, codes(findings)
        assert any("resync" in f.message for f in resync)

    def test_undersized_channel_against_burst_is_a_p5t002(self):
        c_in, c_out = Channel("in"), Channel("out", capacity=2)
        stage = Expander("e", c_in, c_out, burst=4)
        findings = analyze_topology(
            [StreamSource("src", c_in, []), stage, StreamSink("sink", c_out)]
        )
        (shortfall,) = [f for f in findings if f.code == "P5T002"]
        assert "4" in shortfall.message and "2" in shortfall.message

    def test_zero_credit_ring_is_a_p5t003(self):
        modules, channels = ring(burst=2)
        findings = analyze_topology(modules, channels)
        assert "P5T003" in codes(findings)
        (deadlock,) = [f for f in findings if f.code == "P5T003"]
        assert "credit" in deadlock.message

    def test_healthy_ring_is_quiet(self):
        modules, channels = ring()
        findings = analyze_topology(modules, channels)
        assert "P5T003" not in codes(findings)

    def test_correctly_sized_escape_unit_is_quiet(self):
        c_in, c_out = Channel("in", capacity=2), Channel("out", capacity=4)
        gen = PipelinedEscapeGenerate("gen", c_in, c_out, width_bytes=4)
        findings = analyze_topology(
            [StreamSource("src", c_in, []), gen, StreamSink("sink", c_out)]
        )
        assert "P5T002" not in codes(findings)


def test_canonical_topologies_are_clean():
    assert canonical_findings() == []
