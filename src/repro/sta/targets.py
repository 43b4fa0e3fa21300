"""The canonical topologies ``repro sta`` analyzes by default.

The duplex system at both datapath widths is the full wired design:
every contract-bearing module, every cross-connected channel, and the
paper's latency budgets (sorter fill, TX and RX end-to-end) applied to
the ``a`` side.  CI runs exactly this and fails on any error-severity
finding — so a restructure that slows a pipeline, shrinks a buffer
below its worst case, or starves a credit loop is caught before a
single cycle is simulated.
"""

from __future__ import annotations

from typing import List

from repro.lint.rules import Finding

__all__ = ["canonical_findings"]


def canonical_findings(*, clock_hz: float = 78.125e6) -> List[Finding]:
    """Analyze the canonical duplex topologies at both widths."""
    from repro.core.config import P5Config
    from repro.core.p5 import build_duplex
    from repro.sta.analyzer import analyze_topology
    from repro.sta.claims import paper_budgets

    findings: List[Finding] = []
    for config in (P5Config.thirty_two_bit(), P5Config.eight_bit()):
        a, _b, sim = build_duplex(config)
        findings.extend(
            analyze_topology(
                sim.modules,
                sim.channels,
                topology_name=f"duplex/{config.width_bits}-bit",
                budgets=paper_budgets(a.tx, a.rx),
                clock_hz=clock_hz,
            )
        )

    from repro.resilience.targets import build_dual_lane_topology

    dl_modules, dl_channels = build_dual_lane_topology()
    findings.extend(
        analyze_topology(
            dl_modules,
            dl_channels,
            topology_name="resilience-dual-lane",
            clock_hz=clock_hz,
        )
    )
    return findings
