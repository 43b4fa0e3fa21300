"""Modules, channels and timing contracts — the structural vocabulary
of the kernel.

Besides the simulated structure (:class:`Channel`, :class:`Module`),
this module defines the *declarative* vocabulary the static analyses
consume: :class:`TimingContract` (with :class:`ChannelTiming` and
:class:`BufferBound`) is how a module states its worst-case latency,
initiation interval, per-output expansion/contraction and internal
buffer demands — the inputs of the :mod:`repro.sta` timing, sizing
and deadlock analyses, exactly as ``capacity_needs()`` feeds the
:mod:`repro.lint` graph DRC.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Iterable, List, Optional, Tuple

from repro.errors import BackpressureOverflow

__all__ = [
    "Channel",
    "Module",
    "ChannelTiming",
    "BufferBound",
    "TimingContract",
]


class Channel(deque):
    """A registered link of fixed capacity between two modules.

    ``capacity=1`` models a single pipeline register; larger values
    model a FIFO of that depth.  :meth:`push` into a full channel
    raises :class:`~repro.errors.BackpressureOverflow` — modules must
    consult :attr:`can_push` (or the room left, ``capacity -
    occupancy``) first, which is precisely the ready/valid discipline
    of the hardware.

    The channel *is* its queue: a :class:`~collections.deque` of the
    words in flight, so ``len(ch)`` is the occupancy and ``if ch:``
    reads valid (the same as :attr:`can_pop`) at the cost of a truth
    test.  Channels compare and hash by identity, never by contents.

    Occupancy statistics are tracked so benchmarks can verify the
    paper's "extremely low resynchronisation buffer" claim.

    :attr:`producers` / :attr:`consumers` record which modules wired
    themselves to this channel (via :meth:`Module.writes` /
    :meth:`Module.reads`).  The lists are purely observational — the
    design-rule checker in :mod:`repro.lint` walks them to validate
    the topology before a single cycle is clocked; simulation
    behaviour never depends on them.  ``registered=False`` declares a
    wire-only (combinational) link for DRC purposes; the simulation
    semantics are identical.  ``width_bytes``, when given, is the
    datapath width of the words the channel carries, which the edges
    (PHY hooks, fault injectors, sinks, tracers) use to show a word as
    a :class:`~repro.rtl.pipeline.WordBeat`.
    """

    #: The simulator's hot loop touches every channel every cycle;
    #: slots keep the attribute loads off the dict path.
    __slots__ = (
        "name",
        "capacity",
        "registered",
        "width_bytes",
        "producers",
        "consumers",
        "pushes",
        "pops",
        "max_occupancy",
        "on_push",
        "on_pop",
    )

    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__

    def __init__(
        self,
        name: str,
        capacity: int = 1,
        *,
        registered: bool = True,
        width_bytes: Optional[int] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("channel capacity must be >= 1")
        super().__init__()
        self.name = name
        self.capacity = capacity
        self.registered = registered
        self.width_bytes = width_bytes
        self.producers: List["Module"] = []
        self.consumers: List["Module"] = []
        self.pushes = 0
        self.pops = 0
        self.max_occupancy = 0
        #: Instrumentation taps (e.g. the conformance monitor): called
        #: with the item after a successful push / pop.  ``None`` (the
        #: common case) costs one attribute test in the hot path.
        self.on_push: Optional[Any] = None
        self.on_pop: Optional[Any] = None

    # ------------------------------------------------------------- handshake
    @property
    def can_push(self) -> bool:
        """Ready: space available this cycle."""
        return len(self) < self.capacity

    @property
    def can_pop(self) -> bool:
        """Valid: data available this cycle (``bool(ch)``)."""
        return len(self) > 0

    @property
    def occupancy(self) -> int:
        return len(self)

    # ------------------------------------------------------------------ data
    def push(self, item: Any) -> None:
        """Append ``item``; the capacity check is part of the push."""
        occupancy = len(self) + 1
        if occupancy > self.capacity:
            raise BackpressureOverflow(
                f"push into full channel {self.name!r} (capacity {self.capacity})"
            )
        self.append(item)
        self.pushes += 1
        if occupancy > self.max_occupancy:
            self.max_occupancy = occupancy
        if self.on_push is not None:
            self.on_push(item)

    def pop(self) -> Any:
        if not self:
            raise BackpressureOverflow(f"pop from empty channel {self.name!r}")
        self.pops += 1
        item = self.popleft()
        if self.on_pop is not None:
            self.on_pop(item)
        return item

    def peek(self) -> Any:
        if not self:
            raise BackpressureOverflow(f"peek at empty channel {self.name!r}")
        return self[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Channel({self.name!r}, {len(self)}/{self.capacity})"


@dataclass(frozen=True)
class ChannelTiming:
    """Worst-case flow declaration for one output channel.

    ``max_expansion`` / ``min_expansion`` bound the output-octets per
    input-octet ratio over any drained run (stuffing expands a word by
    up to 2x, destuffing contracts it); ``per_frame_octets`` is the
    additive per-frame overhead (FCS trailer, wrapping flags) excluded
    from the ratio; ``burst_words`` is the most words the module may
    push into this channel in a single cycle — the flow solver's
    minimum safe capacity for the channel.
    """

    channel: Channel
    max_expansion: float = 1.0
    min_expansion: float = 1.0
    per_frame_octets: int = 0
    burst_words: int = 1


@dataclass(frozen=True)
class BufferBound:
    """A module-internal buffer and its statically derived demand.

    ``capacity`` is the configured depth; ``min_required`` is the
    worst-case occupancy the module derives from its own structure
    (e.g. one maximally expanded job for the resynchronisation
    buffer).  The static analyzer proves ``capacity >= min_required``;
    the conformance monitor additionally checks that the *observed*
    peak (read from the module attribute named by ``peak_attr``)
    never exceeds the static bound — so a wrong derivation is itself
    a test failure.
    """

    name: str
    capacity: int
    min_required: int
    peak_attr: str = ""
    why: str = ""


@dataclass(frozen=True)
class TimingContract:
    """A module's static timing declaration.

    ``latency_cycles`` is the worst-case first-word latency: counting
    both endpoints, a word consumed on cycle ``c`` produces its first
    output on cycle ``c + latency_cycles - 1`` at the latest, assuming
    dense full-width input words and no downstream backpressure (the
    datapath's steady-state discipline).  ``initiation_interval`` is
    the steady-state cycles-per-word (1 = fully pipelined).  Modules
    whose first emission depends on traffic *content* rather than
    structure (a flag hunter waiting for alignment) declare their
    steady-state latency but set ``latency_is_bound=False`` so the
    conformance monitor does not treat it as a run-time invariant.
    """

    latency_cycles: int
    initiation_interval: int = 1
    outputs: Tuple[ChannelTiming, ...] = ()
    buffers: Tuple[BufferBound, ...] = ()
    latency_is_bound: bool = True


class Module:
    """Base class for synchronous modules.

    Subclasses implement :meth:`clock`, which is invoked once per
    simulated cycle.  Within ``clock`` a module may pop from its input
    channels and push to its output channels, guarding every push with
    ``can_push`` (stalling otherwise).  The simulator clocks modules
    sink-first, so checking ``can_push`` *after* downstream modules
    have run models a registered pipeline advancing in lock-step.
    """

    #: Base attributes are slotted for the simulator's benefit;
    #: subclasses (which do not declare ``__slots__``) still get a
    #: normal ``__dict__`` for their own state.
    __slots__ = ("name", "cycles", "stalled_cycles", "reads_from", "writes_to")

    #: Quiescence hook for the simulator's idle-module skipping: a
    #: module (or property override) reporting ``True`` promises that
    #: calling :meth:`clock` right now would change *nothing* — no
    #: channel traffic, no internal state, no statistics beyond the
    #: cycle counter.  The simulator then skips the call and bumps
    #: :attr:`cycles` directly, so observable behaviour (including
    #: per-module cycle counts) is identical.  The base class never
    #: promises quiescence.
    quiescent: bool = False

    def __init__(self, name: str) -> None:
        self.name = name
        self.cycles = 0
        self.stalled_cycles = 0
        self.reads_from: List[Channel] = []
        self.writes_to: List[Channel] = []

    # ------------------------------------------------------------- topology
    def reads(self, channel: Channel) -> Channel:
        """Register this module as ``channel``'s consumer; returns it.

        Observational only (used by the :mod:`repro.lint` DRC): wiring
        ``self.inp = self.reads(inp)`` leaves simulation behaviour
        untouched while making the module graph statically visible.
        """
        if channel not in self.reads_from:
            self.reads_from.append(channel)
        if self not in channel.consumers:
            channel.consumers.append(self)
        return channel

    def writes(self, channel: Channel) -> Channel:
        """Register this module as ``channel``'s producer; returns it."""
        if channel not in self.writes_to:
            self.writes_to.append(channel)
        if self not in channel.producers:
            channel.producers.append(self)
        return channel

    def capacity_needs(self) -> Iterable[Tuple[Channel, int, str]]:
        """Declare ``(channel, min_capacity, why)`` requirements.

        Subclasses whose room checks demand more than one word of
        downstream space override this so the DRC can verify the
        declared capacities support the stage's worst-case burst.
        """
        return ()

    def timing_contract(self) -> Optional[TimingContract]:
        """Declare this module's static timing contract (subclass hook).

        ``None`` means "no declaration": the :mod:`repro.sta` path
        engine flags paths through the module as unconstrained rather
        than guessing a latency.
        """
        return None

    def clock(self) -> None:
        """One rising clock edge (subclass hook)."""
        raise NotImplementedError

    def on_cycle(self) -> None:
        """One cycle: credit :attr:`cycles`, then :meth:`clock`.

        :meth:`~repro.rtl.simulator.Simulator.step` does the same inline.
        """
        self.cycles += 1
        self.clock()

    def note_stall(self) -> None:
        """Record one cycle lost to downstream backpressure."""
        self.stalled_cycles += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"
