"""``repro.sta`` — static timing, buffer-sizing and deadlock analysis.

The analog of static timing analysis for the P5 module graph: where
:mod:`repro.lint` checks *wiring* (who drives what), this package
checks *numbers* — first-word latency along every pipeline path,
minimum safe buffer depths under worst-case expansion, and
deadlock-freedom of feedback cycles — all from the constructed
topology and the modules' declared
:class:`~repro.rtl.module.TimingContract` hooks, without clocking a
single cycle.

Three engines plus a run-time cross-check:

* the **path engine** (:mod:`repro.sta.paths`) sums per-stage latency
  contracts along source-to-sink paths and converts cycles to
  nanoseconds at a configurable line clock;
* the **flow solver** (:mod:`repro.sta.flow`) derives the minimum
  capacity every channel needs from its producer's declared
  single-cycle burst (internal buffers are checked against their
  declared bounds by the analyzer);
* the **deadlock checker** (also :mod:`repro.sta.flow`) verifies each
  feedback cycle's registered-channel credit covers its in-flight
  demand;
* the **conformance monitor** (:mod:`repro.sta.conformance`) rides a
  live :class:`~repro.rtl.simulator.Simulator` run and fails it when a
  module's observed behaviour exceeds its declaration — so a wrong
  contract cannot silently invalidate the static results.

Findings are ordinary :class:`repro.lint.Finding` records under rules
``P5T001``–``P5T006`` (catalogued in ``docs/timing-analysis.md``) and
flow through the shared lint reporters, so the ``repro sta`` CLI and
CI handle them exactly like DRC output.
"""

from repro.sta.analyzer import LatencyBudget, analyze_topology
from repro.sta.claims import paper_budgets, sorter_fill_budget
from repro.sta.conformance import ContractMonitor
from repro.sta.flow import CycleCredit, channel_demands, cycle_credits
from repro.sta.paths import (
    PathLatency,
    cycles_to_ns,
    end_to_end_paths,
    latency_between,
    path_latency,
)
from repro.sta.targets import canonical_findings

__all__ = [
    "LatencyBudget",
    "analyze_topology",
    "paper_budgets",
    "sorter_fill_budget",
    "ContractMonitor",
    "CycleCredit",
    "channel_demands",
    "cycle_credits",
    "PathLatency",
    "cycles_to_ns",
    "end_to_end_paths",
    "latency_between",
    "path_latency",
    "canonical_findings",
]
