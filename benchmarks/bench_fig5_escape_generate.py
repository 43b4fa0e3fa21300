"""F5 — Paper Figure 5: the Escape Generate data-organisation problem.

"7E 12 34 56 -> 7D 5E 12 34 | 56(extra byte)": stuffing one flag turns
4 bytes into 5, so one byte spills into the next transfer.  This bench
replays exactly that word through the cycle-accurate 32-bit unit and
prints the lane-level timing diagram the figure drew by hand.
"""

from conftest import emit

from repro.core.escape_pipeline import PipelinedEscapeGenerate
from repro.hdlc.constants import ESC_OCTET, ESCAPE_XOR, FLAG_OCTET
from repro.rtl import (
    Channel,
    Simulator,
    StreamSink,
    StreamSource,
    TraceRecorder,
    beats_from_bytes,
)


def run_figure5():
    data = bytes([FLAG_OCTET, 0x12, 0x34, 0x56])
    c_in = Channel("escgen.in", capacity=2, width_bytes=4)
    c_out = Channel("escgen.out", capacity=2, width_bytes=4)
    src = StreamSource("src", c_in, beats_from_bytes(data, 4))
    unit = PipelinedEscapeGenerate("gen", c_in, c_out, width_bytes=4)
    sink = StreamSink("sink", c_out)
    sim = Simulator([src, unit, sink], [c_in, c_out])
    trace = TraceRecorder([c_in, c_out])
    sim.add_observer(trace.sample)
    sim.run_until(
        lambda: src.done and unit.idle and not c_in.can_pop and not c_out.can_pop,
        timeout=100,
    )
    return sink, trace


def test_fig5(benchmark):
    sink, trace = benchmark(run_figure5)
    body = (
        "input word :  7E 12 34 56\n"
        "output     :  7D 5E 12 34  +  56 -- -- --   (extra byte)\n\n"
        + trace.render()
    )
    emit("Figure 5 — Escape Generate data organisation", body)
    assert sink.data() == bytes(
        [ESC_OCTET, FLAG_OCTET ^ ESCAPE_XOR, 0x12, 0x34, 0x56]
    )
    # The spill: a full first word and a 1-valid second word.
    assert [b.n_valid for b in sink.beats] == [4, 1]
    assert sink.beats[0].render().startswith("7D 5E 12 34")
