"""repro.fastpath — the frame-level fast datapath.

The cycle-accurate P5 in :mod:`repro.core` is the golden model: every
register, stall and resynchronisation buffer of the paper, one clock
at a time.  This package is its throughput-serving twin: the same
stuff → CRC → frame → delineate → destuff → check transformation
applied to *whole frames and batches of frames* with C-level ``bytes``
operations and the C-speed :mod:`zlib` CRC — no per-cycle stepping.

The fastpath runs as plain calls, not as a module graph, so the
static analyses (:mod:`repro.lint`, :mod:`repro.sta`) cover the
cycle-accurate design only.  The two engines are kept honest against
each other by the
:class:`~repro.fastpath.differential.DifferentialHarness`, which runs
identical workloads through both and asserts byte-identical line
streams, identical frame verdicts and identical OAM-visible counters.
The benchmark of record (``perfbench/run.py``) measures both engines;
see ``docs/performance.md`` for when to use which engine.
"""

from repro.fastpath.differential import DifferentialHarness, DifferentialReport
from repro.fastpath.engine import (
    FastpathEngine,
    FastpathRxResult,
    FastpathTxResult,
)
from repro.fastpath.sonet import SonetFastpath

__all__ = [
    "FastpathEngine",
    "FastpathTxResult",
    "FastpathRxResult",
    "DifferentialHarness",
    "DifferentialReport",
    "SonetFastpath",
]
