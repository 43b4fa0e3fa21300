"""VCD (Value Change Dump) export for simulation waveforms.

Lets the cycle-accurate runs be inspected in GTKWave or any other
standard waveform viewer — the workflow a hardware engineer would use
on the real P5.  Each traced channel contributes three signals:

* ``<name>_valid``  (1 bit)  — data visible this cycle;
* ``<name>_data``   (W*8 bits) — the packed lane bytes;
* ``<name>_nvalid`` (8 bits) — how many lanes are valid.

Usage::

    writer = VcdWriter([ch1, ch2], timescale_ns=12.8)  # 78.125 MHz
    sim.add_observer(writer.sample)
    sim.step(100)
    writer.save("trace.vcd")
"""

from __future__ import annotations

import io
from typing import Dict, List, Optional, Sequence

from repro.rtl.module import Channel
from repro.rtl.pipeline import word_of

__all__ = ["VcdWriter"]

#: Printable VCD identifier characters.
_ID_ALPHABET = "".join(chr(c) for c in range(33, 127))


def _identifier(index: int) -> str:
    """Compact VCD identifier for signal ``index``."""
    out = ""
    index += 1
    while index:
        index, digit = divmod(index - 1, len(_ID_ALPHABET))
        out = _ID_ALPHABET[digit] + out
    return out


class VcdWriter:
    """Samples channels each cycle and renders a VCD document."""

    def __init__(
        self,
        channels: Sequence[Channel],
        *,
        timescale_ns: float = 12.8,
        module_name: str = "p5",
        data_bits: int = 32,
    ) -> None:
        self.channels = list(channels)
        self.timescale_ns = timescale_ns
        self.module_name = module_name
        self.data_bits = data_bits
        self._ids: Dict[str, str] = {}
        counter = 0
        for channel in self.channels:
            for suffix in ("valid", "data", "nvalid"):
                self._ids[f"{channel.name}.{suffix}"] = _identifier(counter)
                counter += 1
        self._changes: List[tuple] = []     # (cycle, id, value_str)
        self._last: Dict[str, str] = {}
        self.cycles_sampled = 0

    # --------------------------------------------------------------- sampling
    def sample(self, cycle: int) -> None:
        """Record the channels' head values (simulator observer hook)."""
        self.cycles_sampled = max(self.cycles_sampled, cycle)
        for channel in self.channels:
            if channel.can_pop:
                word = word_of(channel.peek())
                valid = "1"
                if word is not None:
                    payload = word[0]
                    value = int.from_bytes(payload, "big") if payload else 0
                    data = format(value, "b")
                    nvalid = format(len(payload), "08b")
                else:
                    data = "x"
                    nvalid = format(0, "08b")
            else:
                valid, data, nvalid = "0", "x", format(0, "08b")
            self._record(cycle, f"{channel.name}.valid", valid)
            self._record(cycle, f"{channel.name}.data", f"b{data}")
            self._record(cycle, f"{channel.name}.nvalid", f"b{nvalid}")

    def _record(self, cycle: int, key: str, value: str) -> None:
        if self._last.get(key) == value:
            return
        self._last[key] = value
        self._changes.append((cycle, self._ids[key], value))

    # --------------------------------------------------------------- document
    def render(self) -> str:
        """The complete VCD document as a string."""
        out = io.StringIO()
        out.write("$date repro P5 simulation $end\n")
        out.write("$version repro.rtl.vcd $end\n")
        # VCD timescale must be an integer unit; use ps for sub-ns.
        out.write(f"$timescale {int(self.timescale_ns * 1000)}ps $end\n")
        out.write(f"$scope module {self.module_name} $end\n")
        for channel in self.channels:
            safe = channel.name.replace(".", "_").replace(">", "_")
            out.write(
                f"$var wire 1 {self._ids[channel.name + '.valid']} "
                f"{safe}_valid $end\n"
            )
            out.write(
                f"$var wire {self.data_bits} {self._ids[channel.name + '.data']} "
                f"{safe}_data $end\n"
            )
            out.write(
                f"$var wire 8 {self._ids[channel.name + '.nvalid']} "
                f"{safe}_nvalid $end\n"
            )
        out.write("$upscope $end\n$enddefinitions $end\n")
        current: Optional[int] = None
        for cycle, ident, value in self._changes:
            if cycle != current:
                out.write(f"#{cycle}\n")
                current = cycle
            if value.startswith("b"):
                out.write(f"{value} {ident}\n")
            else:
                out.write(f"{value}{ident}\n")
        out.write(f"#{self.cycles_sampled + 1}\n")
        return out.getvalue()

    def save(self, path: str) -> None:
        """Write the VCD document to ``path``."""
        with open(path, "w") as handle:
            handle.write(self.render())
