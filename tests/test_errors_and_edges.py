"""Exception-hierarchy contracts and assorted edge branches."""

import pytest

from repro import ReproError
from repro.errors import (
    AbortError,
    BackpressureOverflow,
    ConfigError,
    DeviceCapacityError,
    FcsError,
    FramingError,
    LoopbackError,
    NegotiationError,
    OversizeFrameError,
    PointerError,
    ProtocolError,
    RuntFrameError,
    SimulationError,
    SonetError,
    SynthesisError,
)


class TestHierarchy:
    def test_everything_is_reproerror(self):
        for exc in (
            ConfigError, FramingError, FcsError, AbortError,
            OversizeFrameError, RuntFrameError, ProtocolError,
            NegotiationError, LoopbackError, SonetError, PointerError,
            SimulationError, BackpressureOverflow, SynthesisError,
            DeviceCapacityError,
        ):
            assert issubclass(exc, ReproError), exc

    def test_framing_family(self):
        for exc in (FcsError, AbortError, OversizeFrameError, RuntFrameError):
            assert issubclass(exc, FramingError)

    def test_config_is_also_valueerror(self):
        """Callers using plain ValueError handling still catch it."""
        assert issubclass(ConfigError, ValueError)

    def test_fcs_error_payload(self):
        error = FcsError(0xDEAD, 0xBEEF)
        assert error.expected == 0xDEAD and error.actual == 0xBEEF
        assert "DEAD" in str(error) and "BEEF" in str(error)

    def test_single_catch_point(self):
        """One except clause covers any library failure."""
        from repro.hdlc import unstuff

        with pytest.raises(ReproError):
            unstuff(b"ab\x7e")


class TestConfigEdges:
    def test_describe_mentions_key_facts(self):
        from repro.core import P5Config

        text = P5Config.thirty_two_bit().describe()
        assert "32-bit" in text and "78.125" in text and "FCS-32" in text

    def test_bad_width(self):
        from repro.core import P5Config
        with pytest.raises(ConfigError):
            P5Config(width_bits=24)

    def test_bad_fcs(self):
        from repro.core import P5Config
        from repro.crc import CRC8
        with pytest.raises(ConfigError):
            P5Config(fcs=CRC8)

    def test_bad_clock(self):
        from repro.core import P5Config
        with pytest.raises(ConfigError):
            P5Config(clock_hz=0)

    def test_line_rate(self):
        from repro.core import P5Config
        assert P5Config(width_bits=64).line_rate_bps == pytest.approx(5e9)


class TestRtlEdges:
    def test_module_requires_clock_override(self):
        from repro.rtl import Module

        with pytest.raises(NotImplementedError):
            Module("abstract").on_cycle()

    def test_channel_repr_and_module_repr(self):
        from repro.rtl import Channel, Module

        class Stage(Module):
            def clock(self):
                pass

        ch = Channel("x", capacity=2)
        ch.push(1)
        assert "x" in repr(ch) and "1/2" in repr(ch)
        assert repr(Stage("f")) == "Stage('f')"

    def test_stall_counters(self):
        from repro.rtl import Channel, StreamSource, beats_from_bytes, Simulator

        out = Channel("out", capacity=1)
        src = StreamSource("s", out, beats_from_bytes(bytes(12), 4))
        sim = Simulator([src], [out])
        sim.step(5)   # nobody drains: source stalls after the first push
        assert src.stalled_cycles >= 3


class TestWorkloadEdges:
    def test_custom_profile(self):
        from repro.workloads import ImixProfile

        profile = ImixProfile("jumbo", (9000,), (1,))
        assert profile.mean_size == 9000
        assert set(profile.sample(10, seed=1)) == {9000}

    def test_packet_stream_identification_increments(self):
        from repro.workloads import PacketStream

        datagrams = PacketStream(seed=1).datagrams(5)
        assert [d.header.identification for d in datagrams] == list(range(5))


class TestSynthEdges:
    def test_netlist_empty_depth(self):
        from repro.synth import Netlist

        assert Netlist("empty").depth == 0

    def test_timing_report_meets_pre_vs_post(self):
        from repro.core import P5Config
        from repro.synth import analyze_timing, get_device, system_area

        report = analyze_timing(
            system_area(P5Config.thirty_two_bit()), get_device("XCV600-4")
        )
        # Pre-layout optimism: passes pre, fails post.
        assert report.meets(78.125, post_layout=False)
        assert not report.meets(78.125, post_layout=True)

    def test_escape_detect_vs_generate_depth_equal(self):
        from repro.core import P5Config
        from repro.synth import escape_detect_area, escape_generate_area

        cfg = P5Config.thirty_two_bit()
        assert escape_detect_area(cfg).depth == escape_generate_area(cfg).depth
