"""A small cycle-accurate RTL-style simulation kernel.

This is the substrate substituting for the paper's FPGA: it models
synchronous, register-to-register pipelines with ready/valid
handshaking and backpressure, at one-clock-cycle granularity.

Key ideas
---------
* :class:`~repro.rtl.module.Channel` — a registered link between two
  modules (capacity-1 by default, i.e. a pipeline register; deeper for
  FIFOs).  Pushing into a full channel is a simulation error: hardware
  cannot "wait", it must stall upstream — exactly the discipline the
  paper's backpressure scheme enforces.
* :class:`~repro.rtl.module.Module` — owns input/output channels and a
  per-cycle :meth:`~repro.rtl.module.Module.clock` method.
* :class:`~repro.rtl.simulator.Simulator` — steps modules **sink
  first** each cycle, the standard trick that lets every stage of a
  non-stalled pipeline advance simultaneously, as registers do.
* :class:`~repro.rtl.pipeline.WordBeat` — one datapath word: byte
  lanes with per-lane valid bits plus start/end-of-frame marks, the
  currency of the P5's 8-/32-bit datapaths.
"""

from repro.rtl.module import Channel, Module
from repro.rtl.simulator import Simulator
from repro.rtl.pipeline import (
    StallPattern,
    StreamSink,
    StreamSource,
    WordBeat,
    beats_from_bytes,
    bytes_from_beats,
)
from repro.rtl.trace import TraceRecorder

__all__ = [
    "Channel",
    "Module",
    "Simulator",
    "WordBeat",
    "StreamSource",
    "StreamSink",
    "StallPattern",
    "beats_from_bytes",
    "bytes_from_beats",
    "TraceRecorder",
]
