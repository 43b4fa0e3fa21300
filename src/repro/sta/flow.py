"""Flow solver and deadlock-credit analysis over timing contracts.

Two static questions about every wired topology:

* **sizing** — how deep must each channel be?  The answer is the
  worst single-cycle burst any producer declares into it
  (:func:`channel_demands`).  Sustained worst-case *rate* inflation —
  stuffing doubling the stream — needs no depth: it is absorbed by
  backpressure (halving the intake rate), not by buffering, which is
  why the resynchronisation buffer can stay "extremely low".
* **deadlock-freedom** — can a feedback cycle wedge?  A ring only
  deadlocks when every member waits on a full channel, which is
  impossible while the registered channels on the ring can hold every
  word the members may have in flight at once (:func:`cycle_credits`):
  classic store-and-forward deadlock credit accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Set, Tuple

from repro.lint.graph import dataflow_components
from repro.rtl.module import Channel, Module
from repro.sta.paths import wired_channels

__all__ = [
    "ChannelDemand",
    "CycleCredit",
    "channel_demands",
    "cycle_credits",
]


@dataclass(frozen=True)
class ChannelDemand:
    """The statically derived minimum capacity of one channel."""

    channel: Channel
    required: int
    producer: str
    why: str


def channel_demands(
    modules: Sequence[Module], channels: Iterable[Channel] = ()
) -> List[ChannelDemand]:
    """Minimum safe capacity per channel from contract burst declarations.

    A channel must absorb the worst single-cycle burst of its producer
    (everything beyond that is throughput smoothing, not correctness).
    Channels whose producers declare nothing get the trivial demand of
    one word.
    """
    module_ids = {id(m) for m in modules}
    demands: List[ChannelDemand] = []
    for channel in wired_channels(modules, channels):
        required, producer, why = 1, "", "any producer pushes at least one word"
        for candidate in channel.producers:
            if id(candidate) not in module_ids:
                continue
            contract = candidate.timing_contract()
            if contract is None:
                continue
            for timing in contract.outputs:
                if timing.channel is channel and timing.burst_words > required:
                    required = timing.burst_words
                    producer = candidate.name
                    why = f"declared single-cycle burst of {candidate.name!r}"
        demands.append(
            ChannelDemand(channel=channel, required=required, producer=producer, why=why)
        )
    return demands


@dataclass(frozen=True)
class CycleCredit:
    """Deadlock-credit accounting for one feedback cycle.

    ``credit`` is the total capacity of registered channels internal
    to the cycle; ``demand`` is the worst case the member stages can
    have in flight into those channels in one round (each stage's
    largest declared burst, at least one word each).  ``credit >=
    demand`` rules out store-and-forward deadlock; a cycle with no
    registered internal channel at all is the combinational-loop case
    the graph DRC (P5D007) owns, so ``registered`` is False there.
    """

    modules: Tuple[str, ...]
    credit: int
    demand: int
    registered: bool

    @property
    def deadlock_free(self) -> bool:
        return self.registered and self.credit >= self.demand


def cycle_credits(
    modules: Sequence[Module], channels: Iterable[Channel] = ()
) -> List[CycleCredit]:
    """Credit accounting for every feedback cycle in the graph."""
    module_list = list(modules)
    all_channels = wired_channels(module_list, channels)
    credits: List[CycleCredit] = []
    for component in dataflow_components(module_list, all_channels):
        members: Set[int] = {id(m) for m in component}
        if len(component) == 1:
            # A single module is cyclic only via a self-loop channel.
            lone = component[0]
            if not any(ch in lone.reads_from for ch in lone.writes_to):
                continue
        internal = [
            ch for ch in all_channels
            if any(id(p) in members for p in ch.producers)
            and any(id(c) in members for c in ch.consumers)
        ]
        if not internal:
            continue
        registered_internal = [ch for ch in internal if ch.registered]
        credit = sum(ch.capacity for ch in registered_internal)
        demand = 0
        internal_ids = {id(ch) for ch in internal}
        for member in component:
            burst = 1
            contract = member.timing_contract()
            if contract is not None:
                for timing in contract.outputs:
                    if id(timing.channel) in internal_ids and timing.burst_words > burst:
                        burst = timing.burst_words
            demand += burst
        credits.append(CycleCredit(
            modules=tuple(m.name for m in component),
            credit=credit,
            demand=demand,
            registered=bool(registered_internal),
        ))
    return credits
