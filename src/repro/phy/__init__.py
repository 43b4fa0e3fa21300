"""Simplified physical-layer models.

The paper interfaces the P5 "to the most common optical transmission
systems" through a simplified PHY interface; likewise here,
:mod:`repro.phy.line` is a Bernoulli bit-error line (and burst errors)
for error-injection experiments.  The word-to-octet conversion at the
PHY boundary is :func:`repro.rtl.pipeline.bytes_from_beats` and
:func:`~repro.rtl.pipeline.beats_from_bytes`.
"""

from repro.phy.line import BitErrorLine, LineStats, make_beat_corruptor

__all__ = [
    "BitErrorLine",
    "LineStats",
    "make_beat_corruptor",
]
