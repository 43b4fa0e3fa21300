"""Contract-conformance monitoring: static declarations vs. live runs.

A :class:`ContractMonitor` rides a :class:`~repro.rtl.simulator.
Simulator` (installed via ``sim.enable_conformance()``) and
cross-checks every module's declared
:class:`~repro.rtl.module.TimingContract` against what actually
happens:

* **latency** — for contracts with ``latency_is_bound``, the observed
  first-word latency (first push minus first pop, minus cycles the
  module was starved of input or held by backpressure — the contract
  assumes dense input and a free output) must not exceed
  ``latency_cycles``;
* **flow** — octets pushed into each declared output channel must
  stay within ``max_expansion`` times the octets consumed, plus the
  per-frame allowance;
* **burst** — no single cycle may push more words into a channel than
  the declared ``burst_words``;
* **buffers** — the observed peak of each declared internal buffer
  (read from ``peak_attr``) must not exceed its declared capacity.

Violations become ``P5T006`` findings; :meth:`ContractMonitor.
assert_ok` (called automatically at the end of ``run_until``/
``drain`` when the monitor is installed strict) raises
:class:`~repro.errors.ContractViolationError` — so a wrong
declaration is itself a test failure, keeping the static analyses
honest.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional

from repro.errors import ContractViolationError
from repro.lint.rules import Finding
from repro.rtl.module import Channel, Module, TimingContract
from repro.rtl.pipeline import word_of

__all__ = ["ContractMonitor"]


class _ModuleRecord:
    """Mutable per-module observation state."""

    def __init__(self, module: Module, contract: TimingContract) -> None:
        self.module = module
        self.contract = contract
        self.first_pop: Optional[int] = None
        self.first_push: Optional[int] = None
        self.popped_this_cycle = False
        self.starved_cycles = 0           # quiet cycles between pop and push
        self.in_octets = 0
        self.frames_in = 0
        self.out_octets: Dict[str, int] = {}
        self.pushes_this_cycle: Dict[str, int] = {}
        self.burst_peak: Dict[str, int] = {}


def _octets(item: Any) -> int:
    """Valid octets of a word (or beat); other payloads count zero."""
    word = word_of(item)
    return len(word[0]) if word is not None else 0


def _closes_frame(item: Any) -> bool:
    word = word_of(item)
    return word is not None and bool(word[2])


class ContractMonitor:
    """Observes a simulator and checks declared contracts against it."""

    def __init__(self, sim, *, strict: bool = True) -> None:
        self._sim = sim
        #: When True the simulator calls :meth:`assert_ok` at the end
        #: of every successful ``run_until``/``drain``.
        self.strict = strict
        self._records: Dict[int, _ModuleRecord] = {}
        self._wrapped: set = set()
        for module in sim.modules:
            contract = module.timing_contract()
            if contract is None:
                continue
            self._records[id(module)] = _ModuleRecord(module, contract)
            for channel in list(module.reads_from) + list(module.writes_to):
                self._wrap(channel)
        sim.add_observer(self._end_of_cycle)

    # ----------------------------------------------------------- plumbing
    def _wrap(self, channel: Channel) -> None:
        if id(channel) in self._wrapped:
            return
        self._wrapped.add(id(channel))
        # Channel exposes instrumentation taps precisely so monitors
        # do not have to monkeypatch methods on a slotted class.
        channel.on_push = lambda item, _ch=channel: self._on_push(_ch, item)
        channel.on_pop = lambda item, _ch=channel: self._on_pop(_ch, item)

    def _on_push(self, channel: Channel, item: Any) -> None:
        cycle = self._sim.cycle
        for producer in channel.producers:
            record = self._records.get(id(producer))
            if record is None:
                continue
            if record.first_push is None:
                record.first_push = cycle
            record.out_octets[channel.name] = (
                record.out_octets.get(channel.name, 0) + _octets(item)
            )
            now = record.pushes_this_cycle.get(channel.name, 0) + 1
            record.pushes_this_cycle[channel.name] = now
            if now > record.burst_peak.get(channel.name, 0):
                record.burst_peak[channel.name] = now

    def _on_pop(self, channel: Channel, item: Any) -> None:
        cycle = self._sim.cycle
        for consumer in channel.consumers:
            record = self._records.get(id(consumer))
            if record is None:
                continue
            if record.first_pop is None:
                record.first_pop = cycle
            record.popped_this_cycle = True
            record.in_octets += _octets(item)
            if _closes_frame(item):
                record.frames_in += 1

    def _end_of_cycle(self, _cycle: int) -> None:
        for record in self._records.values():
            if (
                record.first_pop is not None
                and record.first_push is None
                and not record.popped_this_cycle
            ):
                # Starved of input (or held by backpressure) before the
                # first emission: the contract assumes dense input, so
                # these cycles do not count against the latency bound.
                record.starved_cycles += 1
            record.popped_this_cycle = False
            record.pushes_this_cycle.clear()

    # ------------------------------------------------------------- checks
    def findings(self) -> List[Finding]:
        """P5T006 findings for every observed contract violation."""
        out: List[Finding] = []

        def emit(message: str, subject: str) -> None:
            out.append(Finding.of("P5T006", message, subject=subject))

        for record in self._records.values():
            module, contract = record.module, record.contract
            self._check_latency(record, emit)
            if module.reads_from:
                self._check_flow(record, emit)
            self._check_bursts(record, emit)
            for bound in contract.buffers:
                if not bound.peak_attr:
                    continue
                observed = int(getattr(module, bound.peak_attr, 0))
                if observed > bound.capacity:
                    emit(
                        f"module {module.name!r}: buffer {bound.name!r} "
                        f"peaked at {observed} words against a declared "
                        f"capacity of {bound.capacity}",
                        module.name,
                    )
        return out

    def _check_latency(self, record: _ModuleRecord, emit) -> None:
        contract = record.contract
        if not contract.latency_is_bound:
            return
        if record.first_pop is None or record.first_push is None:
            return
        effective = (
            record.first_push - record.first_pop + 1 - record.starved_cycles
        )
        if effective > contract.latency_cycles:
            emit(
                f"module {record.module.name!r}: observed first-word latency "
                f"{effective} cycles exceeds the declared "
                f"{contract.latency_cycles}",
                record.module.name,
            )

    def _check_flow(self, record: _ModuleRecord, emit) -> None:
        for timing in record.contract.outputs:
            observed = record.out_octets.get(timing.channel.name, 0)
            # The open frame has not produced its eof yet, so allow the
            # per-frame overhead once more than the completed count.
            allowance = (
                math.ceil(timing.max_expansion * record.in_octets)
                + timing.per_frame_octets * (record.frames_in + 1)
            )
            if observed > allowance:
                emit(
                    f"module {record.module.name!r}: pushed {observed} octets "
                    f"into {timing.channel.name!r} from {record.in_octets} "
                    f"consumed — beyond the declared x{timing.max_expansion} "
                    f"expansion (+{timing.per_frame_octets}/frame)",
                    record.module.name,
                )

    def _check_bursts(self, record: _ModuleRecord, emit) -> None:
        for timing in record.contract.outputs:
            peak = record.burst_peak.get(timing.channel.name, 0)
            if peak > timing.burst_words:
                emit(
                    f"module {record.module.name!r}: pushed {peak} words into "
                    f"{timing.channel.name!r} in one cycle against a declared "
                    f"burst of {timing.burst_words}",
                    record.module.name,
                )

    def assert_ok(self) -> None:
        """Raise :class:`ContractViolationError` on any violation."""
        found = self.findings()
        if found:
            lines = "; ".join(f.message for f in found[:4])
            raise ContractViolationError(
                f"{len(found)} contract violation(s): {lines}",
                findings=found,
            )
