"""Cycle-by-cycle tracing and ASCII timing diagrams.

Figures 5 and 6 of the paper explain the escape units with byte-lane
diagrams; :class:`TraceRecorder` reproduces that view from a live
simulation so the F5/F6 benchmarks can print the same story::

    cycle | escin             | escout
    ------+-------------------+-------------------
        3 | 7E 12 34 56 [S]   |
        7 |                   | 7D 5E 12 34 [S]
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.rtl.module import Channel
from repro.rtl.pipeline import WordBeat, word_of

__all__ = ["TraceRecorder"]


class TraceRecorder:
    """Samples the heads of selected channels every cycle."""

    def __init__(self, channels: Sequence[Channel]) -> None:
        self.channels = list(channels)
        self.rows: List[Dict[str, Optional[str]]] = []

    def sample(self, cycle: int) -> None:
        """Record each channel's visible beat this cycle (observer hook)."""
        row: Dict[str, Optional[str]] = {"cycle": str(cycle)}
        for channel in self.channels:
            if channel.can_pop:
                head = channel.peek()
                word = word_of(head)
                if word is not None and not isinstance(head, WordBeat):
                    head = WordBeat.from_word(word, channel.width_bytes)
                row[channel.name] = (
                    head.render() if hasattr(head, "render") else repr(head)
                )
            else:
                row[channel.name] = None
        self.rows.append(row)

    def render(self, *, skip_idle: bool = True, limit: Optional[int] = None) -> str:
        """Format the samples as an ASCII timing table."""
        names = ["cycle"] + [ch.name for ch in self.channels]
        body: List[List[str]] = []
        for row in self.rows:
            cells = [row["cycle"]] + [row[ch.name] or "" for ch in self.channels]
            if skip_idle and all(c == "" for c in cells[1:]):
                continue
            body.append(cells)
            if limit is not None and len(body) >= limit:
                break
        widths = [
            max(len(name), *(len(r[i]) for r in body)) if body else len(name)
            for i, name in enumerate(names)
        ]
        header = " | ".join(n.ljust(w) for n, w in zip(names, widths))
        rule = "-+-".join("-" * w for w in widths)
        lines = [header, rule]
        for cells in body:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(cells, widths)))
        return "\n".join(lines)
