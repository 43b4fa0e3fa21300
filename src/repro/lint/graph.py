"""Graph design-rule checks over a wired Module/Channel topology.

The checks run on a *constructed* pipeline — no cycle is clocked.
They rely on the observational producer/consumer registration that
:meth:`repro.rtl.module.Module.reads` / ``writes`` record at wiring
time, which every module in the tree performs in its constructor.

``lint_topology(modules, channels)`` interprets the module sequence
exactly as the :class:`~repro.rtl.simulator.Simulator` would: as the
intended **source-to-sink** clocking order.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set

from repro.lint.rules import Finding
from repro.rtl.module import Channel, Module

__all__ = ["lint_topology", "dataflow_components"]


def _collect_channels(
    modules: Sequence[Module], channels: Iterable[Channel]
) -> List[Channel]:
    """Union of the passed channels and everything the modules wired."""
    seen: List[Channel] = []
    for channel in channels:
        if channel not in seen:
            seen.append(channel)
    for module in modules:
        for channel in list(module.writes_to) + list(module.reads_from):
            if channel not in seen:
                seen.append(channel)
    return seen


def _sccs(adjacency: Dict[int, Set[int]], count: int) -> List[List[int]]:
    """Strongly connected components (iterative Tarjan), by node index."""
    index_of: Dict[int, int] = {}
    low: Dict[int, int] = {}
    on_stack: Set[int] = set()
    stack: List[int] = []
    result: List[List[int]] = []
    counter = [0]

    for root in range(count):
        if root in index_of:
            continue
        work = [(root, iter(sorted(adjacency.get(root, ()))))]
        index_of[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for successor in successors:
                if successor not in index_of:
                    index_of[successor] = low[successor] = counter[0]
                    counter[0] += 1
                    stack.append(successor)
                    on_stack.add(successor)
                    work.append((successor, iter(sorted(adjacency.get(successor, ())))))
                    advanced = True
                    break
                if successor in on_stack:
                    low[node] = min(low[node], index_of[successor])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index_of[node]:
                component: List[int] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                result.append(component)
    return result


def dataflow_components(
    modules: Sequence[Module], channels: Iterable[Channel] = ()
) -> List[List[Module]]:
    """Strongly connected components of the module dataflow graph.

    Shared with :mod:`repro.sta`, whose deadlock-credit analysis runs
    per cyclic component.  Components are returned as module lists;
    membership order follows the (source-to-sink) module sequence.
    """
    module_list = list(modules)
    module_set = set(map(id, module_list))
    order = {id(module): i for i, module in enumerate(module_list)}
    adjacency: Dict[int, Set[int]] = {i: set() for i in range(len(module_list))}
    for channel in _collect_channels(module_list, channels):
        for producer in channel.producers:
            for consumer in channel.consumers:
                if id(producer) in module_set and id(consumer) in module_set:
                    adjacency[order[id(producer)]].add(order[id(consumer)])
    return [
        [module_list[i] for i in sorted(component)]
        for component in _sccs(adjacency, len(module_list))
    ]


def lint_topology(
    modules: Sequence[Module],
    channels: Iterable[Channel] = (),
    *,
    topology_name: str = "",
) -> List[Finding]:
    """Run every graph DRC rule; returns findings (empty = clean)."""
    findings: List[Finding] = []
    module_list = list(modules)
    module_set = set(map(id, module_list))
    order = {id(module): i for i, module in enumerate(module_list)}
    prefix = f"{topology_name}: " if topology_name else ""
    all_channels = _collect_channels(module_list, channels)

    def emit(code: str, message: str, subject: str) -> None:
        findings.append(Finding.of(code, prefix + message, subject=subject))

    # ---- P5D001/2/3: exactly one producer and one consumer per channel
    for channel in all_channels:
        if len(channel.producers) > 1:
            emit("P5D001",
                 f"channel {channel.name!r} has {len(channel.producers)} "
                 f"producers: {[m.name for m in channel.producers]}",
                 channel.name)
        if len(channel.consumers) > 1:
            emit("P5D002",
                 f"channel {channel.name!r} has {len(channel.consumers)} "
                 f"consumers: {[m.name for m in channel.consumers]}",
                 channel.name)
        if not channel.producers:
            emit("P5D003", f"channel {channel.name!r} has no producer",
                 channel.name)
        if not channel.consumers:
            emit("P5D003", f"channel {channel.name!r} has no consumer",
                 channel.name)

    # ---- P5D008: every wired endpoint must actually be clocked
    for channel in all_channels:
        for role, endpoints in (("producer", channel.producers),
                                ("consumer", channel.consumers)):
            for endpoint in endpoints:
                if id(endpoint) not in module_set:
                    emit("P5D008",
                         f"{role} {endpoint.name!r} of channel "
                         f"{channel.name!r} is not in the module list",
                         endpoint.name)

    # ---- Build the module dataflow graph (producer -> consumer edges).
    adjacency: Dict[int, Set[int]] = {i: set() for i in range(len(module_list))}
    for channel in all_channels:
        for producer in channel.producers:
            for consumer in channel.consumers:
                if id(producer) in module_set and id(consumer) in module_set:
                    adjacency[order[id(producer)]].add(order[id(consumer)])

    # ---- P5D004: every module with inputs is reachable from a source.
    sources = [i for i, module in enumerate(module_list)
               if not module.reads_from]
    reachable: Set[int] = set(sources)
    frontier = list(sources)
    while frontier:
        node = frontier.pop()
        for successor in adjacency[node]:
            if successor not in reachable:
                reachable.add(successor)
                frontier.append(successor)
    for i, module in enumerate(module_list):
        if i not in reachable:
            emit("P5D004",
                 f"module {module.name!r} is unreachable from any source "
                 f"module", module.name)

    # ---- SCCs: ring detection for P5D005 exemptions and P5D007.
    components = _sccs(adjacency, len(module_list))
    component_of: Dict[int, int] = {}
    for comp_index, component in enumerate(components):
        for node in component:
            component_of[node] = comp_index
    cyclic_components = {
        comp_index
        for comp_index, component in enumerate(components)
        if len(component) > 1
        or (component and component[0] in adjacency[component[0]])
    }

    # ---- P5D007: every cycle must contain a registered channel.
    for comp_index in sorted(cyclic_components):
        members = set(components[comp_index])
        internal = [
            channel for channel in all_channels
            if any(id(p) in module_set and order[id(p)] in members
                   for p in channel.producers)
            and any(id(c) in module_set and order[id(c)] in members
                    for c in channel.consumers)
        ]
        if internal and not any(channel.registered for channel in internal):
            names = sorted(module_list[n].name for n in members)
            emit("P5D007",
                 f"combinational loop through {names} has no registered "
                 f"channel", names[0])

    # ---- P5D005: list order must be a source-to-sink topological order.
    for channel in all_channels:
        for producer in channel.producers:
            for consumer in channel.consumers:
                if producer is consumer:
                    continue  # registered self-loop (e.g. a FIFO store)
                if id(producer) not in module_set or id(consumer) not in module_set:
                    continue  # reported as P5D008 already
                p, c = order[id(producer)], order[id(consumer)]
                if component_of.get(p) == component_of.get(c) and \
                        component_of.get(p) in cyclic_components:
                    continue  # a ring has no topological order; P5D007 rules it
                if p > c:
                    emit("P5D005",
                         f"producer {producer.name!r} is clocked as if "
                         f"downstream of consumer {consumer.name!r} "
                         f"(list order {p} > {c} for channel "
                         f"{channel.name!r})", channel.name)

    # ---- P5D006: declared burst needs fit the wired capacities.
    for module in module_list:
        for channel, need, why in module.capacity_needs():
            if channel.capacity < need:
                emit("P5D006",
                     f"module {module.name!r} needs {need} words of room "
                     f"in channel {channel.name!r} ({why}) but its "
                     f"capacity is {channel.capacity}", channel.name)

    # ---- P5D009: burst-capable endpoints must state their contracts.
    for module in module_list:
        deep = [
            channel.name
            for channel in _collect_channels([module], ())
            if channel.capacity > 1
        ]
        if not deep:
            continue
        if list(module.capacity_needs()) or module.timing_contract() is not None:
            continue
        emit("P5D009",
             f"module {module.name!r} touches multi-word channel(s) "
             f"{sorted(set(deep))} but declares neither capacity_needs() "
             f"nor a timing_contract()", module.name)

    return findings
