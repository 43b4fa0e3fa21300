"""The P5 — Programmable Point-to-Point-Protocol Packet Processor.

This package is the paper's primary contribution, modelled
cycle-accurately (:mod:`repro.core.escape_pipeline`,
:mod:`repro.core.tx`, :mod:`repro.core.rx`, :mod:`repro.core.p5`):
pipelined RTL-style models on the :mod:`repro.rtl` kernel reproducing
the latency, throughput and backpressure behaviour of the 8-bit and
32-bit hardware designs.  The escape units' per-word functions
(:func:`~repro.core.escape_pipeline.expand_word`,
:func:`~repro.core.escape_pipeline.contract_word`) live with the
pipeline that clocks them; the frame-level codec in :mod:`repro.hdlc`
is the reference they are tested against.

The :mod:`repro.core.oam` module implements the Protocol OAM block:
the control/status register map and interrupt scheme through which a
host microprocessor programs the system.
"""

from repro.core.config import P5Config
from repro.core.escape_pipeline import (
    PipelinedEscapeDetect,
    PipelinedEscapeGenerate,
)
from repro.core.tx import P5Transmitter
from repro.core.rx import P5Receiver
from repro.core.oam import ProtocolOam
from repro.core.regmap import RegisterMap
from repro.core.p5 import P5System, run_duplex_exchange
from repro.core.memory import (
    DescriptorRing,
    DmaRxFrameSink,
    DmaTxFrameSource,
    SharedMemory,
)

__all__ = [
    "P5Config",
    "PipelinedEscapeGenerate",
    "PipelinedEscapeDetect",
    "P5Transmitter",
    "P5Receiver",
    "ProtocolOam",
    "RegisterMap",
    "P5System",
    "run_duplex_exchange",
    "SharedMemory",
    "DescriptorRing",
    "DmaTxFrameSource",
    "DmaRxFrameSink",
]
