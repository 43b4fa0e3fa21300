"""The clocked simulator: sink-first evaluation of synchronous modules."""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import PipelineStallError, SimulationError
from repro.rtl.module import Channel, Module

__all__ = ["Simulator"]


class Simulator:
    """Steps a set of modules one clock cycle at a time.

    Parameters
    ----------
    modules:
        In **source-to-sink** order; the simulator clocks them in
        reverse.  Clocking the sink first frees its input register, so
        an unstalled N-stage pipeline advances every stage in the same
        cycle — the behaviour of real flip-flop pipelines.
    channels:
        Optional channel list for tracing/statistics; purely
        observational.
    watchdog:
        Default no-progress budget (in cycles) for :meth:`run_until`
        and :meth:`drain`.  When set, a run that sees no channel
        activity for this many consecutive cycles raises
        :class:`~repro.errors.PipelineStallError` with a per-module
        occupancy diagnostic instead of spinning to the timeout.
        ``None`` (the default) disables the watchdog.

    Performance notes
    -----------------
    The clock order and the watchdog's channel set are derived once
    and cached; mutate the topology through :meth:`add_module` /
    :meth:`add_channel` (or call :meth:`invalidate_topology` after
    editing the lists directly) so the caches are rebuilt.  The inner
    loop of :meth:`step` skips modules whose
    :attr:`~repro.rtl.module.Module.quiescent` hook reports that
    clocking them would be a no-op, and hoists the observer dispatch
    out of the no-observer case — together with the frame-level
    engine in :mod:`repro.fastpath` these are the "runs as fast as
    the hardware allows" levers (see ``docs/performance.md``).
    """

    def __init__(
        self,
        modules: Sequence[Module],
        channels: Sequence[Channel] = (),
        *,
        max_cycles: int = 10_000_000,
        watchdog: Optional[int] = None,
    ) -> None:
        if not modules:
            raise ValueError("simulator needs at least one module")
        self.modules: List[Module] = list(modules)
        self.channels: List[Channel] = list(channels)
        self.cycle = 0
        self.max_cycles = max_cycles
        self.watchdog = watchdog
        self._observers: List[Callable[[int], None]] = []
        self._watched: Optional[List[Channel]] = None
        self._clock_order: Optional[Tuple[Module, ...]] = None
        self._conformance = None

    def add_observer(self, callback: Callable[[int], None]) -> None:
        """Register a per-cycle callback (called after each step)."""
        self._observers.append(callback)

    # ------------------------------------------------------------- topology
    def add_module(self, module: Module) -> None:
        """Append a module (keeps the derived caches coherent)."""
        self.modules.append(module)
        self.invalidate_topology()

    def add_channel(self, channel: Channel) -> None:
        """Append an observational channel (keeps caches coherent)."""
        self.channels.append(channel)
        self.invalidate_topology()

    def invalidate_topology(self) -> None:
        """Drop the cached clock order and watchdog channel set.

        Call after mutating :attr:`modules` / :attr:`channels` (or any
        module's wiring) directly; :meth:`add_module` and
        :meth:`add_channel` call it for you.
        """
        self._watched = None
        self._clock_order = None

    def enable_conformance(self, *, strict: bool = True):
        """Install a contract-conformance monitor on this simulator.

        Returns the :class:`~repro.sta.conformance.ContractMonitor`,
        which cross-checks every module's declared
        :class:`~repro.rtl.module.TimingContract` against the observed
        run.  With ``strict=True`` (default) a successful
        :meth:`run_until`/:meth:`drain` additionally asserts
        conformance, raising
        :class:`~repro.errors.ContractViolationError` on violation —
        a wrong declaration is itself a run failure.
        """
        from repro.sta.conformance import ContractMonitor

        monitor = ContractMonitor(self, strict=strict)
        self._conformance = monitor
        return monitor

    def _check_conformance(self) -> None:
        if self._conformance is not None and self._conformance.strict:
            self._conformance.assert_ok()

    def step(self, cycles: int = 1) -> None:
        """Advance the clock by ``cycles``.

        Batched stepping is the kernel's hot loop: the sink-first
        module order is a cached tuple, each module's cycle counter is
        credited here and :meth:`~repro.rtl.module.Module.clock` called
        directly (what :meth:`~repro.rtl.module.Module.on_cycle` does,
        one call frame cheaper), modules reporting
        :attr:`~repro.rtl.module.Module.quiescent` are skipped, and the
        observer/conformance dispatch is hoisted entirely out of the
        no-observer case.
        """
        order = self._clock_order
        if order is None:
            order = self._clock_order = tuple(reversed(self.modules))
        observers = self._observers
        if observers:
            for _ in range(cycles):
                for module in order:
                    module.cycles += 1
                    if not module.quiescent:
                        module.clock()
                self.cycle += 1
                cycle = self.cycle
                for callback in observers:
                    callback(cycle)
        else:
            cycle = self.cycle
            for _ in range(cycles):
                for module in order:
                    module.cycles += 1
                    if not module.quiescent:
                        module.clock()
                cycle += 1
            self.cycle = cycle

    # ----------------------------------------------------------- watchdog
    def _watch_channels(self) -> List[Channel]:
        """The channels the watchdog observes: the declared list plus
        everything the modules wired (so forgetting to pass a channel
        cannot blind the watchdog to its activity).

        Derived once and cached; :meth:`invalidate_topology` drops the
        cache when the module/channel lists mutate.  Before the cache
        every watchdog probe re-walked the whole module graph."""
        if self._watched is None:
            seen: List[Channel] = list(self.channels)
            ids = {id(ch) for ch in seen}
            for module in self.modules:
                for channel in list(module.writes_to) + list(module.reads_from):
                    if id(channel) not in ids:
                        ids.add(id(channel))
                        seen.append(channel)
            self._watched = seen
        return self._watched

    def _activity(self) -> int:
        """Monotone counter of all channel traffic ever moved."""
        return sum(ch.pushes + ch.pops for ch in self._watch_channels())

    def stall_diagnostic(self, quiet_cycles: int) -> Dict[str, Any]:
        """Structured snapshot of where the pipeline is wedged."""
        return {
            "cycle": self.cycle,
            "quiet_cycles": quiet_cycles,
            "modules": [
                {
                    "name": module.name,
                    "cycles": module.cycles,
                    "stalled_cycles": module.stalled_cycles,
                }
                for module in self.modules
            ],
            "channels": [
                {
                    "name": ch.name,
                    "occupancy": ch.occupancy,
                    "capacity": ch.capacity,
                }
                for ch in self._watch_channels()
            ],
        }

    def _raise_stall(self, quiet_cycles: int) -> None:
        diagnostic = self.stall_diagnostic(quiet_cycles)
        occupied = [
            f"{c['name']}={c['occupancy']}/{c['capacity']}"
            for c in diagnostic["channels"]
            if c["occupancy"]
        ]
        stalled = sorted(
            diagnostic["modules"], key=lambda m: -m["stalled_cycles"]
        )[:4]
        module_part = ", ".join(
            f"{m['name']} stalled {m['stalled_cycles']}/{m['cycles']}"
            for m in stalled
        )
        raise PipelineStallError(
            f"pipeline stalled: no channel activity for {quiet_cycles} "
            f"cycles (at cycle {self.cycle}); "
            f"occupied channels: {', '.join(occupied) or 'none'}; "
            f"module stalls: {module_part or 'none'}",
            diagnostic=diagnostic,
        )

    # ---------------------------------------------------------------- runs
    def run_until(
        self,
        condition: Callable[[], bool],
        *,
        timeout: Optional[int] = None,
        watchdog: Optional[int] = None,
    ) -> int:
        """Step until ``condition()`` is true; returns cycles elapsed.

        Raises :class:`~repro.errors.SimulationError` on timeout —
        which in the P5 tests usually means a deadlocked handshake —
        and :class:`~repro.errors.PipelineStallError` (with a
        per-module occupancy diagnostic) if a watchdog budget is set
        and no channel moves a word for that many cycles first.  With
        no watchdog budget the per-cycle activity probe is skipped
        entirely.
        """
        limit = timeout if timeout is not None else self.max_cycles
        budget = watchdog if watchdog is not None else self.watchdog
        start = self.cycle
        if budget is None:
            while not condition():
                if self.cycle - start >= limit:
                    raise SimulationError(
                        f"condition not reached within {limit} cycles "
                        f"(started at {start}, now {self.cycle})"
                    )
                self.step()
            self._check_conformance()
            return self.cycle - start
        last_activity = self._activity()
        quiet_since = self.cycle
        while not condition():
            if self.cycle - start >= limit:
                raise SimulationError(
                    f"condition not reached within {limit} cycles "
                    f"(started at {start}, now {self.cycle})"
                )
            if self.cycle - quiet_since >= budget:
                self._raise_stall(self.cycle - quiet_since)
            self.step()
            activity = self._activity()
            if activity != last_activity:
                last_activity = activity
                quiet_since = self.cycle
        self._check_conformance()
        return self.cycle - start

    def drain(
        self,
        *,
        idle_cycles: int = 4,
        timeout: Optional[int] = None,
        watchdog: Optional[int] = None,
    ) -> int:
        """Run until no channel holds data for ``idle_cycles`` in a row."""
        idle = 0
        start = self.cycle
        limit = timeout if timeout is not None else self.max_cycles
        budget = watchdog if watchdog is not None else self.watchdog
        last_activity = self._activity() if budget is not None else 0
        quiet_since = self.cycle

        while idle < idle_cycles:
            if self.cycle - start >= limit:
                raise SimulationError(f"drain did not complete within {limit} cycles")
            if budget is not None and self.cycle - quiet_since >= budget:
                self._raise_stall(self.cycle - quiet_since)
            busy_before = any(ch.can_pop for ch in self.channels)
            self.step()
            busy_after = any(ch.can_pop for ch in self.channels)
            idle = 0 if (busy_before or busy_after) else idle + 1
            if budget is not None:
                activity = self._activity()
                if activity != last_activity:
                    last_activity = activity
                    quiet_since = self.cycle
        self._check_conformance()
        return self.cycle - start
