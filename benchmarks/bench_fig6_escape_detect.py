"""F6 — Paper Figure 6: the Escape Detect data-organisation problem.

"7D 5E 12 34 -> 7E 12 34 (empty)": deleting the escape opens a bubble,
which must be filled by the first byte of the *next* incoming word.
This bench replays the figure through the cycle-accurate unit and
shows the bubble being filled.
"""

from conftest import emit

from repro.core.escape_pipeline import PipelinedEscapeDetect
from repro.hdlc.constants import ESC_OCTET, ESCAPE_XOR, FLAG_OCTET
from repro.rtl import (
    Channel,
    Simulator,
    StreamSink,
    StreamSource,
    TraceRecorder,
    beats_from_bytes,
)


def run_figure6():
    # The figure's word followed by a second word to fill the bubble.
    data = bytes([ESC_OCTET, FLAG_OCTET ^ ESCAPE_XOR,
                  0x12, 0x34, 0x56, 0x57, 0x58, 0x59])
    c_in = Channel("escdet.in", capacity=2, width_bytes=4)
    c_out = Channel("escdet.out", capacity=2, width_bytes=4)
    src = StreamSource("src", c_in, beats_from_bytes(data, 4))
    unit = PipelinedEscapeDetect("det", c_in, c_out, width_bytes=4)
    sink = StreamSink("sink", c_out)
    sim = Simulator([src, unit, sink], [c_in, c_out])
    trace = TraceRecorder([c_in, c_out])
    sim.add_observer(trace.sample)
    sim.run_until(
        lambda: src.done and unit.idle and not c_in.can_pop and not c_out.can_pop,
        timeout=100,
    )
    return unit, sink, trace


def test_fig6(benchmark):
    unit, sink, trace = benchmark(run_figure6)
    body = (
        "input words:  7D 5E 12 34 | 56 57 58 59\n"
        "after delete: 7E 12 34 __  (bubble)\n"
        "output     :  7E 12 34 56 | 57 58 59    (bubble filled)\n\n"
        + trace.render()
    )
    emit("Figure 6 — Escape Detect data organisation", body)
    assert sink.data() == bytes(
        [FLAG_OCTET, 0x12, 0x34, 0x56, 0x57, 0x58, 0x59]
    )
    # The first output word is FULL: the next word's byte filled the bubble.
    assert sink.beats[0].n_valid == 4
    assert sink.beats[0].render().startswith("7E 12 34 56")
    assert unit.octets_deleted == 1
