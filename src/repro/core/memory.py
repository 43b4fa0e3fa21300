"""Shared memory and DMA descriptor rings — paper Figure 2's "Shared
Memory" block.

"Data is buffered before transmission and after reception in memory."
Real line cards structure that memory as descriptor rings: the host
writes frame buffers and ring descriptors; the hardware DMA engine
walks the ring at line rate, raising interrupts as descriptors
complete.  This module models that host interface:

* :class:`SharedMemory` — a flat byte array with bounds-checked
  read/write windows (the microprocessor bus's view);
* :class:`DescriptorRing` — a circular buffer of
  (address, length, flags) descriptors with OWN-bit handover;
* :class:`DmaTxFrameSource` / :class:`DmaRxFrameSink` — drop-in
  replacements for the queue-based TX source / RX sink that move
  frames between the rings and the datapath word streams, modelling
  the memory port's bandwidth (one word per cycle).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import ConfigError, SimulationError
from repro.rtl.module import Channel, ChannelTiming, Module, TimingContract
from repro.rtl.pipeline import EOF_ABORT

__all__ = [
    "SharedMemory",
    "Descriptor",
    "DescriptorRing",
    "DmaTxFrameSource",
    "DmaRxFrameSink",
]

#: Descriptor flag bits.
OWN_HW = 1 << 0       # descriptor belongs to the hardware
EOF_FLAG = 1 << 1     # buffer holds a complete frame
ERR_FLAG = 1 << 2     # receive error (bad FCS) — set by hardware


class SharedMemory:
    """A flat, bounds-checked byte memory shared by host and P5."""

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise ConfigError("memory size must be positive")
        self.size = size
        self._data = bytearray(size)
        self.reads = 0
        self.writes = 0

    def write(self, address: int, data: bytes) -> None:
        """Host or DMA write of ``data`` at ``address``."""
        self._check(address, len(data))
        self._data[address : address + len(data)] = data
        self.writes += 1

    def read(self, address: int, length: int) -> bytes:
        """Host or DMA read of ``length`` bytes at ``address``."""
        self._check(address, length)
        self.reads += 1
        return bytes(self._data[address : address + length])

    def _check(self, address: int, length: int) -> None:
        if address < 0 or length < 0 or address + length > self.size:
            raise SimulationError(
                f"memory access [{address}, {address + length}) outside "
                f"0..{self.size}"
            )


@dataclass
class Descriptor:
    """One ring entry: a buffer window plus ownership/status flags."""

    address: int
    length: int
    flags: int = 0

    @property
    def hw_owned(self) -> bool:
        return bool(self.flags & OWN_HW)


class DescriptorRing:
    """A circular descriptor queue with OWN-bit handover.

    The host fills descriptors and sets ``OWN_HW``; the hardware
    consumes them in order and clears the bit when done (adding status
    flags on receive).  ``head`` is the hardware's cursor.
    """

    def __init__(self, entries: int) -> None:
        if entries < 2:
            raise ConfigError("a ring needs at least two descriptors")
        self.descriptors: List[Descriptor] = [
            Descriptor(0, 0, 0) for _ in range(entries)
        ]
        self.head = 0            # hardware cursor
        self.completed = 0

    def __len__(self) -> int:
        return len(self.descriptors)

    # -------------------------------------------------------------- host side
    def host_post(self, index: int, address: int, length: int, *, flags: int = 0) -> None:
        """Host fills descriptor ``index`` and hands it to hardware."""
        descriptor = self.descriptors[index]
        if descriptor.hw_owned:
            raise SimulationError(f"descriptor {index} is still hardware-owned")
        descriptor.address = address
        descriptor.length = length
        descriptor.flags = flags | OWN_HW

    def host_reclaim(self, index: int) -> Optional[Descriptor]:
        """Host checks a descriptor back; None while hardware owns it."""
        descriptor = self.descriptors[index]
        if descriptor.hw_owned:
            return None
        return descriptor

    # ---------------------------------------------------------- hardware side
    def hw_current(self) -> Optional[Descriptor]:
        """The descriptor under the hardware cursor, if hardware-owned."""
        descriptor = self.descriptors[self.head]
        return descriptor if descriptor.hw_owned else None

    def hw_complete(self, *, status: int = 0, length: Optional[int] = None) -> None:
        """Finish the current descriptor and advance the cursor."""
        descriptor = self.descriptors[self.head]
        if not descriptor.hw_owned:
            raise SimulationError("completing a descriptor the hardware does not own")
        if length is not None:
            descriptor.length = length
        descriptor.flags = (descriptor.flags | status) & ~OWN_HW
        self.head = (self.head + 1) % len(self.descriptors)
        self.completed += 1


class DmaTxFrameSource(Module):
    """Transmit DMA: walks the TX ring, streaming frames as words.

    Replaces :class:`repro.core.tx.TxFrameSource` behind the same
    output channel.  The memory port supplies one datapath word per
    cycle, so DMA never outruns the line.
    """

    def __init__(
        self,
        name: str,
        out: Channel,
        *,
        memory: SharedMemory,
        ring: DescriptorRing,
        width_bytes: int,
    ) -> None:
        super().__init__(name)
        self.out = self.writes(out)
        self.memory = memory
        self.ring = ring
        self.width_bytes = width_bytes
        self._cursor = 0           # byte offset within the open frame
        self.frames_fetched = 0
        self.enabled = True

    @property
    def busy(self) -> bool:
        return self.ring.hw_current() is not None

    def clock(self) -> None:
        if not self.enabled:
            return
        descriptor = self.ring.hw_current()
        if descriptor is None or not self.out.can_push:
            if descriptor is not None:
                self.note_stall()
            return
        remaining = descriptor.length - self._cursor
        take = min(self.width_bytes, remaining)
        chunk = self.memory.read(descriptor.address + self._cursor, take)
        self._cursor += take
        last = self._cursor >= descriptor.length
        self.out.push((chunk, self._cursor == take, last))
        if last:
            self.ring.hw_complete()
            self.frames_fetched += 1
            self._cursor = 0

    def timing_contract(self) -> TimingContract:
        return TimingContract(
            latency_cycles=1,
            outputs=(ChannelTiming(self.out),),
        )


class DmaRxFrameSink(Module):
    """Receive DMA: assembles words into ring buffers with status.

    Replaces :class:`repro.core.rx.RxFrameSink`: each completed frame
    lands in the next hardware-owned RX descriptor's buffer, with
    ``EOF_FLAG`` (and ``ERR_FLAG`` on a failed FCS) in its flags and
    the actual length written back.
    """

    def __init__(
        self,
        name: str,
        inp: Channel,
        crc,
        *,
        memory: SharedMemory,
        ring: DescriptorRing,
    ) -> None:
        super().__init__(name)
        self.inp = self.reads(inp)
        self.crc = crc
        self.memory = memory
        self.ring = ring
        self._current = bytearray()
        self.frames_stored = 0
        self.frames_dropped_no_descriptor = 0

    def clock(self) -> None:
        if not self.inp.can_pop:
            return
        descriptor = self.ring.hw_current()
        if descriptor is None:
            # No buffer available: drop at the memory interface (the
            # overrun case a slow host provokes).
            octets, _sof, eof = self.inp.pop()
            self._current += octets
            if eof == EOF_ABORT:
                self._current.clear()
            elif eof:
                self.frames_dropped_no_descriptor += 1
                self.crc.pop_verdict()
                self._current.clear()
            return
        octets, _sof, eof = self.inp.pop()
        self._current += octets
        if eof == EOF_ABORT:
            self._current.clear()   # aborted: never lands, has no verdict
            return
        if not eof:
            return
        frame = bytes(self._current)
        self._current.clear()
        good = self.crc.pop_verdict()
        stored = frame[: descriptor.length]   # truncate to the buffer
        self.memory.write(descriptor.address, stored)
        status = EOF_FLAG | (0 if good else ERR_FLAG)
        self.ring.hw_complete(status=status, length=len(stored))
        self.frames_stored += 1

    def timing_contract(self) -> TimingContract:
        return TimingContract(latency_cycles=1)

    def host_collect(self) -> List[Tuple[bytes, bool]]:
        """Host-side helper: reclaim all completed RX descriptors."""
        frames: List[Tuple[bytes, bool]] = []
        for index, descriptor in enumerate(self.ring.descriptors):
            if descriptor.hw_owned or not descriptor.flags & EOF_FLAG:
                continue
            data = self.memory.read(descriptor.address, descriptor.length)
            frames.append((data, not descriptor.flags & ERR_FLAG))
            descriptor.flags = 0   # consumed
        return frames
