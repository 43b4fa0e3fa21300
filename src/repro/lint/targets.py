"""The shipped topologies the ``repro lint`` CLI checks by default.

Building a topology wires modules and channels (registering the graph
observationally) without clocking a cycle — exactly the elaboration
step a hardware DRC runs against.  Each entry covers a distinct
wiring shape: the full cross-connected duplex system at both datapath
widths (4-stage and 2-stage escape pipelines), a standalone TX
pipeline drained by a sink, a standalone RX pipeline fed by a source,
the single-unit trace harness from the CLI, and the fault-injection
loopback harness (TX looped to RX through a BeatFaultInjector).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from repro.rtl.module import Channel, Module

__all__ = ["shipped_topologies"]


def shipped_topologies() -> List[Tuple[str, Sequence[Module], Iterable[Channel]]]:
    """Build ``(name, modules, channels)`` triples for the graph DRC."""
    from repro.core.config import P5Config
    from repro.core.escape_pipeline import PipelinedEscapeGenerate
    from repro.core.p5 import build_duplex
    from repro.core.rx import P5Receiver
    from repro.core.tx import P5Transmitter
    from repro.rtl.pipeline import StreamSink, StreamSource

    topologies: List[Tuple[str, Sequence[Module], Iterable[Channel]]] = []

    for config in (P5Config.thirty_two_bit(), P5Config.eight_bit()):
        _a, _b, sim = build_duplex(config)
        topologies.append(
            (f"duplex/{config.width_bits}-bit", sim.modules, sim.channels)
        )

    config = P5Config.thirty_two_bit()
    tx = P5Transmitter(config, name="tx")
    tx_sink = StreamSink("wire", tx.phy_out)
    topologies.append(("tx-standalone", tx.modules + [tx_sink], tx.channels))

    rx = P5Receiver(config, name="rx")
    rx_source = StreamSource("wire", rx.phy_in, [])
    topologies.append(("rx-standalone", [rx_source] + rx.modules, rx.channels))

    c_in = Channel("escgen.in", capacity=2)
    c_out = Channel("escgen.out", capacity=2)
    source = StreamSource("src", c_in, [])
    unit = PipelinedEscapeGenerate("gen", c_in, c_out, width_bytes=4)
    sink = StreamSink("sink", c_out)
    topologies.append(("escape-trace", [source, unit, sink], [c_in, c_out]))

    from repro.faults.campaign import build_fault_harness

    _system, _injector, fault_sim = build_fault_harness(
        P5Config.thirty_two_bit(max_frame_octets=512)
    )
    topologies.append(("fault-harness", fault_sim.modules, fault_sim.channels))

    from repro.resilience.targets import build_dual_lane_topology

    dl_modules, dl_channels = build_dual_lane_topology()
    topologies.append(("resilience-dual-lane", dl_modules, dl_channels))

    return topologies
